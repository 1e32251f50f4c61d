"""Error-correcting triangular solves against blackbox right-hand sides.

The core loop guesses the number of errors k, locates erroneous columns of
the candidate solution with a random left projection (a Freivalds-style
check), recovers up to s = ceil(2(k - k')/c) errors per located column by
sparse interpolation, and writes the recovered values into the candidate at
once.  The next round's projection confirms each such column or rolls it
back.  If fewer than half of the located columns clear in a round, the
guess k doubles.  The loop ends when a projection finds no erroneous column
at all, which bounds the failure probability of the final state by the
requested epsilon, or with one deterministic dense solve when
`dense_cheaper` finds that cheaper than the round's recovery.

All but the recovery runs in R's own field: projections of lam =
freivalds_lambda(q, n, eps) rows, residual solves, commits and dense solve.
Recovery needs theta of order at least m, so on a field of at most m
elements theta comes from the smallest extension of R's field that has
one, built over it on first use.  The recovery round still multiplies
only over R's field, by the digit planes of the Vandermonde matrix, and
checks that each recovered value lies in R's field.
"""

import functools
import math
import time

import numpy as np

from . import ff
from .blackbox import BlackboxRHS
from .mat import DimensionError, Mat, Tri
from .report import CorrectionReport
from .sparseint import apply_vandermonde, batch_interpolate


class MonteCarloFailure(RuntimeError):
    """Raised when the correction loop exceeds its iteration budget."""


class TrsmEcParams:
    """Failure bound plus randomness for one correction call."""

    __slots__ = ("eps", "seed", "rng")

    def __init__(self, eps, seed=None, rng=None):
        if not 0 < eps < 1:
            raise ValueError("failure bound must lie in (0, 1)")
        self.eps = float(eps)
        self.seed = seed
        self.rng = rng

    def generator(self):
        if self.rng is not None:
            return self.rng
        return np.random.default_rng(self.seed)

    @classmethod
    def with_generator(cls, params):
        """params (a TrsmEcParams or a bare failure bound) holding a live
        generator, so that the stages of one call draw from one stream."""
        if not isinstance(params, cls):
            params = cls(params)
        if params.rng is None:
            params = cls(params.eps, seed=params.seed, rng=params.generator())
        return params

    def child(self, eps):
        p = TrsmEcParams(eps, seed=self.seed)
        p.rng = self.rng
        return p


@functools.lru_cache(maxsize=4096)
def freivalds_lambda(q, n, eps):
    """Projection block height: ceil(log_q(3 n log2(n) / eps)), at least 1."""
    n = max(n, 2)
    target = 3.0 * n * math.log2(n) / eps
    return max(1, math.ceil(math.log(target) / math.log(q)))


# Scalar work of one bad column in a recovery round (Berlekamp-Massey, the
# locator sweep, the value solve and the re-check), in dense multiply-adds.
_COLUMN_COST = 2 ** 14


def dense_cheaper(q, eps, m, n, ell, c=None, k_left=0):
    """Whether one dense solve of R T = H costs no more than the sparse path.

    R is m-by-n, T is n-by-n and H has inner dimension ell; costs count
    multiply-adds.  The dense path evaluates H and solves against T:
    m n (ell + n).  Without a column count the sparse side is one projection
    round with lam = freivalds_lambda(q, n, eps) rows, lam (mn + n^2 +
    ell (m + n)).  With c > 0 bad columns and k_left errors still expected,
    it adds that round's recovery: the Vandermonde projection and residual,
    2s (mn + m ell + c (ell + n)) with s = ceil(2 max(k_left, c) / c), and
    c times _COLUMN_COST for the scalar per-column work.

    _COLUMN_COST = 2^14 comes from a one-thread microbenchmark (OpenBLAS
    0.3.31, numpy 2.4.6): recovering one column with s = 2 took 60-140 us
    at GF(65537), GF(2^31 - 1) and GF(7^3), and the dense path took 2-7 ns
    per multiply-add at m = n = ell = 32..64, the strip sizes at which the
    switch happens on small fields (0.2-0.8 ns at 128 and above); their
    ratio spans 2^13 to 2^16.
    """
    sparse = freivalds_lambda(q, n, eps) * (m * n + n * n + ell * (m + n))
    if c is not None:
        s = -(-2 * max(k_left, c) // c)
        sparse += 2 * s * (m * n + m * ell + c * (ell + n)) + c * _COLUMN_COST
    return m * n * (ell + n) <= sparse


def iteration_cap(m, n):
    # generous: the analysis gives ~3 log2 n rounds on success
    return int(3 * math.log2(max(n, 2)) + 2 * math.log2(max(m * n, 2)) + 8)


def trsm_ec_upper_right(R, H, U, params):
    """Correct R in place so that R.U = H, with probability >= 1 - eps.

    R is m-by-n, H an m-by-n BlackboxRHS, U an invertible upper-triangular
    Tri (or square Mat); params is a TrsmEcParams or a bare failure bound.
    """
    return _trsm_ec_right(R, H, _as_tri(U, "upper"), params,
                          "trsmec_upper_right")


def trsm_ec_lower_right(R, H, L, params):
    """Correct R in place so that R.L = H."""
    return _trsm_ec_right(R, H, _as_tri(L, "lower"), params,
                          "trsmec_lower_right")


def trsm_ec_lower_left(R, H, L, params):
    """Correct R in place so that L.R = H, run as R^T.L^T = H^T."""
    return _trsm_ec_right(R.T, H.T, _as_tri(L, "lower").T, params,
                          "trsmec_lower_left").transposed()


def trsm_ec_upper_left(R, H, U, params):
    """Correct R in place so that U.R = H, run as R^T.U^T = H^T."""
    return _trsm_ec_right(R.T, H.T, _as_tri(U, "upper").T, params,
                          "trsmec_upper_left").transposed()


def _as_tri(T, kind):
    if isinstance(T, Tri):
        if T.kind != kind:
            raise ValueError("expected a %s triangle" % kind)
        return T
    return Tri(T, kind)


def _trsm_ec_right(R, H, T, params, stage):
    """Entry of the four public variants: checks shapes, operand ranges and
    T's diagonal once, then runs the correction loop on R.T = H."""
    t0 = time.perf_counter()
    params = TrsmEcParams.with_generator(params)
    m, n = R.shape
    if H.rows != m or H.cols != n:
        raise DimensionError("blackbox shape %s does not match candidate %s"
                             % ((H.rows, H.cols), (m, n)))
    if T.n != n:
        raise DimensionError("triangle size %d does not match candidate cols %d"
                             % (T.n, n))
    # the candidate is reduced in place, the inputs through reduced copies
    R.ctx.canonical(R.a, in_place=True)
    H = H.canonical()
    T = T.with_ctx(T.ctx, R.ctx.canonical(T.a))
    if m and n:
        T.check_invertible()
    rep = _correction_loop(R, H, T, params, stage)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _correction_loop(R, H, T, params, stage):
    """Correct R in place so that R.T = H; returns the report, named stage.

    Assumes checked operands: matching shapes, codes in [0, q), T
    invertible, and params holding a live generator.
    """
    t0 = time.perf_counter()
    m, n = R.shape
    rep = CorrectionReport(stage=stage, epsilon=params.eps, seed=params.seed)
    if m == 0 or n == 0:
        rep.verified = True
        rep.wall_time = time.perf_counter() - t0
        return rep

    base, ell = R.ctx, H.inner
    if dense_cheaper(base.q, params.eps, m, n, ell):
        # narrow system: evaluating H densely and checking R T = H costs no
        # more than one projection round, so correct deterministically
        rep.rounds = 1
        _dense_solve(R, H, T, rep, check=True)
        rep.wall_time = time.perf_counter() - t0
        return rep

    rng = params.generator()
    lam = freivalds_lambda(base.q, n, params.eps)
    rep.lam = lam
    cap = iteration_cap(m, n)
    rep.extended = m >= base.q  # theta's field, built on first recovery
    rep.ext_degree = ff.extension_degree(base, m)
    tab = None

    k_guess = 1
    k_done = 0
    c_prev = 2 * n
    undo = {}  # col -> (rows, previous values) of unconfirmed corrections

    while True:
        rep.rounds += 1
        if rep.rounds > cap:
            for j, (ri, old) in undo.items():
                R.a[ri, j] = old  # R keeps only confirmed corrections
            raise MonteCarloFailure(
                "correction did not converge within %d rounds "
                "(failure bound %g)" % (cap, params.eps))
        W = base.rand(rng, (lam, m))
        # D = W H - W R T; zero iff no erroneous column remains (T is
        # invertible), found without the triangular solve
        D = _projected_gap(base, W, H, R.a, T)
        if not D.any():
            bad = np.empty(0, dtype=np.intp)
        else:
            T.solve_right(D)  # (W H T^-1 - W R), same column count
            bad = np.nonzero(D.any(axis=0))[0]
        c = len(bad)
        # confirm the corrections the projection did not contradict, and
        # roll back the others
        bad_set = set(int(j) for j in bad)
        for j, (ri, old) in undo.items():
            if j in bad_set:
                R.a[ri, j] = old
                continue
            k_done += len(ri)
            rep.positions.extend((int(r), int(j)) for r in ri)
        undo = {}
        if c > c_prev / 2:
            k_guess = max(2 * k_guess, c)  # too many bad columns: k was wrong
        c_prev = c
        if c == 0:
            break
        if dense_cheaper(base.q, params.eps, m, n, ell, c, k_guess - k_done):
            _dense_solve(R, H, T, rep)
            rep.wall_time = time.perf_counter() - t0
            return rep
        rep.correcting_rounds += 1
        if tab is None:
            big = ff.extend_field(base, m) if rep.extended else base
            tab = ff.element_of_order_at_least(big, m, rng=rng)
        s = min(m, max(1, math.ceil(2 * (k_guess - k_done) / c)))
        for j, (ri, rv) in _recover(base, tab, s, H, R, T, bad).items():
            undo[j] = (ri, R.a[ri, j])
            R.a[ri, j] = base.add(R.a[ri, j], rv)

    rep.verified = True  # the loop exits on a clean Freivalds projection
    rep.corrected = k_done
    rep.wall_time = time.perf_counter() - t0
    return rep


def _dense_solve(R, H, T, rep, check=False):
    """Correct R in place to H T^-1, solved densely in R's own field.

    Only the entries that differ are written; they join rep.positions in
    R's coordinates, and rep.corrected counts those positions.  With check,
    a clean R (R T = H) is confirmed by one product and left alone, without
    the solve.
    """
    X = H.dense().a
    rep.verified = True
    rep.dense_verified = True
    if check and np.array_equal(T.mul_right(R.a), X):
        return
    T.solve_right(X)
    diff = np.nonzero(X != R.a)
    rep.correcting_rounds += 1
    rep.positions.extend(zip(diff[0].tolist(), diff[1].tolist()))
    rep.corrected = len(rep.positions)
    R.a[diff] = X[diff]


def _projected_gap(ctx, W, H, Ra, T):
    """W H - (W R) T, reduced mod the field."""
    return ctx.sub(H.project_left(Mat(ctx, W)).a,
                   T.mul_right(ctx.matmul(W, Ra)))


def _recover(base, tab, s, H, R, T, bad):
    """col -> (row indices, values) of the error E = H T^-1 - R on the bad
    columns, over base.

    With V = (theta^(i j)) of 2s rows over theta's field big (tab.ctx),
    G (P^T T P) = V (H - R T) P = V E P.  Every operand but V is over base,
    so G is formed and solved as its digit planes over base (see
    apply_vandermonde) and packed into big only to be interpolated; a
    value outside base fails its column.
    """
    big = tab.ctx
    rows = 2 * s
    sel = H.select_cols(bad)
    Tc = T.cols(bad).a
    G = base.neg(base.matmul(apply_vandermonde(base, tab, rows, R.a), Tc))
    if sel.C is not None:
        G = base.add(G, apply_vandermonde(base, tab, rows, sel.C.a))
    if sel.A is not None:
        VA = apply_vandermonde(base, tab, rows, sel.A.a)
        prod = base.matmul(VA, sel.B.a)
        G = base.sub(G, prod) if sel.sign < 0 else base.add(G, prod)
    # rows bad of T P are P^T T P, as bad is increasing
    Tri(Mat(base, Tc[bad]), T.kind).solve_right(G)
    if big is not base:
        G = big.pack(G)
    pending = {}
    for j, col in zip(bad, batch_interpolate(big, G, s, tab)):
        if col is None or not col.indices:
            continue
        try:
            values = ff.coerce_down(base, big,
                                    np.array(col.values, dtype=np.int64))
        except ff.FieldError:
            continue
        pending[int(j)] = (np.array(col.indices, dtype=np.intp), values)
    return pending
