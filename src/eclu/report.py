"""Correction reports: what was fixed, how long it took, how random it was.

Serialized by the harness as line-oriented ``key=value`` text; nested stage
reports get dotted key prefixes.
"""

from dataclasses import dataclass, field


@dataclass
class CorrectionReport:
    stage: str = ""
    corrected: int = 0
    positions: list = field(default_factory=list)
    rounds: int = 0                # loop passes including the final clean one
    correcting_rounds: int = 0     # passes that found erroneous columns
    lam: int = 0                   # projections; a parent holds its largest child's
    epsilon: float = 0.0
    extended: bool = False         # recovery field is an extension (m >= q),
    ext_degree: int = 1            # of this degree; built only to recover
    seed: object = None
    wall_time: float = 0.0
    verified: bool = False         # final Freivalds pass (probabilistic)
    dense_verified: object = None  # optional deterministic check result
    children: list = field(default_factory=list)

    def add_child(self, child):
        self.children.append(child)
        self.corrected += child.corrected
        self.rounds += child.rounds
        self.correcting_rounds += child.correcting_rounds
        self.lam = max(self.lam, child.lam)
        self.extended = self.extended or child.extended
        self.ext_degree = max(self.ext_degree, child.ext_degree)
        self.wall_time += child.wall_time

    def shift(self, dr, dc):
        """Offset this report's own positions by (dr, dc); returns self."""
        self.positions = [(r + dr, c + dc) for r, c in self.positions]
        return self

    def transposed(self):
        """Swap row and column in this report's own positions; returns self."""
        self.positions = [(c, r) for r, c in self.positions]
        return self

    def epsilon_budget(self):
        """Sum of the failure bounds of all leaf verification stages."""
        if not self.children:
            return self.epsilon
        return sum(c.epsilon_budget() for c in self.children)

    def max_rounds(self):
        if not self.children:
            return self.rounds
        return max(c.max_rounds() for c in self.children)

    def iter_leaves(self):
        if not self.children:
            yield self
        for c in self.children:
            yield from c.iter_leaves()

    def to_lines(self, prefix=""):
        pre = prefix + "." if prefix else ""
        out = []
        if self.stage:
            out.append("%sstage=%s" % (pre, self.stage))
        out.append("%scorrected=%d" % (pre, self.corrected))
        out.append("%srounds=%d" % (pre, self.rounds))
        out.append("%scorrecting_rounds=%d" % (pre, self.correcting_rounds))
        out.append("%slambda=%d" % (pre, self.lam))
        out.append("%sepsilon=%r" % (pre, self.epsilon))
        out.append("%sextended=%d" % (pre, int(self.extended)))
        out.append("%sext_degree=%d" % (pre, self.ext_degree))
        if self.seed is not None:
            out.append("%sseed=%s" % (pre, self.seed))
        out.append("%swall_time=%.6f" % (pre, self.wall_time))
        out.append("%sverified=%d" % (pre, int(self.verified)))
        if self.dense_verified is not None:
            out.append("%sdense_verified=%d" % (pre, int(self.dense_verified)))
        if self.positions:
            out.append("%spositions=%s" % (
                pre, ";".join("%d,%d" % (r, c) for r, c in self.positions)))
        for i, c in enumerate(self.children):
            out.extend(c.to_lines(prefix="%sstage%d" % (pre, i)))
        return out

    def serialize(self):
        return "\n".join(self.to_lines()) + "\n"


def parse_report(text):
    """Parse serialized key=value lines back into a CorrectionReport tree."""
    root = CorrectionReport()
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, val = line.split("=", 1)
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            idx = int(part[len("stage"):])
            while len(node.children) <= idx:
                node.children.append(CorrectionReport())
            node = node.children[idx]
        leaf = parts[-1]
        if leaf == "stage":
            node.stage = val
        elif leaf in ("corrected", "rounds", "correcting_rounds", "ext_degree"):
            setattr(node, leaf, int(val))
        elif leaf == "lambda":
            node.lam = int(val)
        elif leaf == "epsilon":
            node.epsilon = float(val)
        elif leaf in ("extended", "verified", "dense_verified"):
            setattr(node, leaf, bool(int(val)))
        elif leaf == "seed":
            node.seed = int(val)
        elif leaf == "wall_time":
            node.wall_time = float(val)
        elif leaf == "positions":
            node.positions = [tuple(map(int, pair.split(",")))
                              for pair in val.split(";") if pair]
    return root
