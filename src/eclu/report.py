"""Correction reports: what was fixed, how long it took, how random it was.

A report tree is written as JSON by to_json and read back by from_json.

A correction loop's report also keeps one record per projected pass in
trace, a dict with keys c (erroneous columns the projection found),
k_guess and k_done (the error guess and the errors confirmed, after the
pass updated them), s (terms recovered per column, 0 when the pass
recovered nothing), tried and failed (columns handed to interpolation and
those that came back without a value), and ext (whether theta came from
an extension field); stop says why the loop ended: "clean" (a projection
found no erroneous column), "dense" (a dense check or solve settled it)
or "cap" (the round budget ran out, on the MonteCarloFailure's report).
A dense_node report, a Crout node's rest refactored, keeps one record:
found, settled, k, descent and refactor (see croutec._rest_prices).

record is the one writer of positions and corrected, so corrected counts
the positions on every report.  Every corrector opens its report with
stage, which times the whole block.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


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
    wall_time: float = 0.0         # the whole stage, children included
    verified: bool = False         # final Freivalds pass (probabilistic)
    dense_verified: bool = False   # settled by a dense check or solve
    stop: str = ""                 # "clean", "dense" or "cap"; loops only
    trace: list = field(default_factory=list)  # one dict per projected pass
    children: list = field(default_factory=list)

    def add_child(self, child):
        self.children.append(child)
        self.corrected += child.corrected
        self.rounds += child.rounds
        self.correcting_rounds += child.correcting_rounds
        self.lam = max(self.lam, child.lam)
        self.extended = self.extended or child.extended
        self.ext_degree = max(self.ext_degree, child.ext_degree)

    def record(self, rows, cols):
        """Add the corrected entries (rows[i], cols[i]) of two index arrays."""
        self.positions.extend(zip(rows.tolist(), cols.tolist()))
        self.corrected += len(rows)

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

    def to_json(self):
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text):
        """The report tree that to_json wrote; an unknown key raises
        TypeError."""
        return cls._from_dict(json.loads(text))

    @classmethod
    def _from_dict(cls, d):
        rep = cls(**d)
        rep.positions = [tuple(p) for p in rep.positions]
        rep.children = [cls._from_dict(c) for c in rep.children]
        return rep


@contextmanager
def stage(name, params):
    """The report of one stage, named name, with params' eps and seed.

    However the block ends, a raise included, wall_time covers all of it;
    a report with children is verified when all of them are.
    """
    rep = CorrectionReport(stage=name, epsilon=params.eps, seed=params.seed)
    t0 = time.perf_counter()
    try:
        yield rep
    finally:
        if rep.children:
            rep.verified = all(c.verified for c in rep.children)
        rep.wall_time = time.perf_counter() - t0
