"""Per-layer self time and counts, taken by wrapping eclu's entry points.

Each wrapped call is a span.  A layer's self time is the span's duration
minus the time of the wrapped calls it made, so the self times of one
certify call add up to its traced wall time.  Spans are aggregated as they
close rather than kept, which keeps memory flat over thousands of kernel
calls.

eclu's modules import functions by name, so a function is replaced on
every loaded eclu module that holds it, not only where it is defined.
Methods are replaced on their class.  Times come from the benchmark's own
clock: neither CorrectionReport.wall_time nor ff.op_count() is read.
"""

import contextlib
import sys
import time
from collections import defaultdict

# per-layer metrics, in the order they are reported
TIMES = ("ff.prime_matmul_s", "ff.ext_matmul_s", "ff.lift_s",
         "ff.powtable_s", "sparseint.vandermonde_s",
         "sparseint.interpolate_s", "mat.solve_s", "trsmec.self_s",
         "croutec.self_s", "blackbox.project_s", "syssolve.tr_inv_s",
         "syssolve.self_s")
COUNTS = ("ff.prime_matmul_calls", "ff.prime_matmul_mops",
          "ff.ext_matmul_calls", "sparseint.columns",
          "sparseint.columns_failed", "mat.solve_calls", "trsmec.calls",
          "trsmec.rounds", "trsmec.correcting_rounds", "trsmec.dense_calls",
          "blackbox.project_calls")


def _count_prime_matmul(c, args, out):
    _, A, B = args
    c["ff.prime_matmul_calls"] += 1
    # m * ell * n multiply-adds, computed from the operand shapes; summed as
    # integers so that the total does not depend on the order of the calls
    c["ff.prime_matmul_mops"] += A.shape[0] * A.shape[1] * B.shape[1]


def _calls(name):
    def count(c, args, out):
        c[name] += 1
    return count


def _count_interpolate(c, args, out):
    c["sparseint.columns"] += len(out)
    c["sparseint.columns_failed"] += sum(col is None for col in out)


def _count_trsm(c, args, out):
    c["trsmec.calls"] += 1
    c["trsmec.rounds"] += out.rounds
    c["trsmec.correcting_rounds"] += out.correcting_rounds
    c["trsmec.dense_calls"] += bool(out.dense_verified)


def _targets():
    """(owner, attribute, layer, counter) for every wrapped entry point."""
    from eclu import blackbox, croutec, ff, mat, sparseint, syssolve, trsmec
    out = [
        (ff.PrimeField, "matmul", "ff.prime_matmul_s", _count_prime_matmul),
        (ff.ExtField, "matmul", "ff.ext_matmul_s",
         _calls("ff.ext_matmul_calls")),
        (ff, "extend_field", "ff.lift_s", None),
        (ff, "embed_up", "ff.lift_s", None),
        (ff, "coerce_down", "ff.lift_s", None),
        (blackbox.BlackboxRHS, "lift", "ff.lift_s", None),
        (ff, "element_of_order_at_least", "ff.powtable_s", None),
        (sparseint, "apply_vandermonde", "sparseint.vandermonde_s", None),
        (sparseint, "batch_interpolate", "sparseint.interpolate_s",
         _count_interpolate),
        (mat.Tri, "solve_right", "mat.solve_s", _calls("mat.solve_calls")),
        (mat.Tri, "solve_left", "mat.solve_s", _calls("mat.solve_calls")),
        (blackbox.BlackboxRHS, "project_left", "blackbox.project_s",
         _calls("blackbox.project_calls")),
        (croutec, "crout_ec", "croutec.self_s", None),
        (syssolve, "tr_inv_ec", "syssolve.tr_inv_s", None),
        (syssolve, "solve_large_rhs", "syssolve.self_s", None),
    ]
    for name in ("trsm_ec_upper_right", "trsm_ec_lower_right",
                 "trsm_ec_lower_left", "trsm_ec_upper_left"):
        out.append((trsmec, name, "trsmec.self_s", _count_trsm))
    return out


class Tracer:
    """Self time per layer and counts, summed over the spans recorded."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self._inner = []  # time spent in child spans, one slot per open span

    def reset(self):
        self.times.clear()
        self.counts.clear()

    def snapshot(self):
        counts = {k: self.counts[k] for k in COUNTS}
        counts["ff.prime_matmul_mops"] /= 1e6
        return {k: self.times[k] for k in TIMES}, counts

    def wrap(self, fn, layer, counter):
        def traced(*args, **kwargs):
            self._inner.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.times[layer] += dt - self._inner.pop()
                if self._inner:
                    self._inner[-1] += dt
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, counter in _targets():
                orig = getattr(owner, attr)
                wrapped = self.wrap(orig, layer, counter)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [mod for name, mod in list(sys.modules.items())
                               if (name == "eclu" or name.startswith("eclu."))
                               and getattr(mod, attr, None) is orig]
                for holder in holders:
                    saved.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, orig in reversed(saved):
                setattr(holder, attr, orig)
