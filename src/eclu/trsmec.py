"""Error-correcting triangular solves against blackbox right-hand sides.

The core loop guesses the number of errors k, locates erroneous columns of
the candidate solution with a random left projection (a Freivalds-style
check), recovers up to s = ceil(2(k - k')/c) errors per located column by
sparse interpolation, and commits a recovered column only once the next
round's projection confirms it.  If fewer than half of the located columns
clear in a round, the guess k doubles.  The loop ends when a projection
finds no erroneous column at all, which bounds the failure probability of
the final state by the requested epsilon, or with one deterministic dense
solve when `dense_cheaper` finds that cheaper than the round's recovery.
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
    Tri (or square Mat).
    """
    return _trsm_ec_right(R, H, _as_tri(U, "upper"), params)


def trsm_ec_lower_right(R, H, L, params):
    """Correct R in place so that R.L = H."""
    return _trsm_ec_right(R, H, _as_tri(L, "lower"), params)


def trsm_ec_lower_left(R, H, L, params):
    """Correct R in place so that L.R = H (transpose of upper/right)."""
    return _trsm_ec_right(R.T, H.T, _as_tri(L, "lower").T, params)


def trsm_ec_upper_left(R, H, U, params):
    """Correct R in place so that U.R = H (transpose of lower/right)."""
    return _trsm_ec_right(R.T, H.T, _as_tri(U, "upper").T, params)


def _as_tri(T, kind):
    if isinstance(T, Tri):
        if T.kind != kind:
            raise ValueError("expected a %s triangle" % kind)
        return T
    return Tri(T, kind)


def _trsm_ec_right(R, H, T, params):
    """Shared loop for the two right-side variants (T upper or lower)."""
    t0 = time.perf_counter()
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
    rep = CorrectionReport(stage="trsmec_%s_right" % T.kind,
                           epsilon=params.eps, seed=params.seed)
    if m == 0 or n == 0:
        rep.verified = True
        rep.wall_time = time.perf_counter() - t0
        return rep
    T.check_invertible()

    ell = H.inner
    if dense_cheaper(R.ctx.q, params.eps, m, n, ell):
        # narrow system: evaluating H densely and checking R T = H costs no
        # more than one projection round, so correct deterministically
        rep.rounds = 1
        _dense_solve(R, H, T, rep, check=True)
        rep.wall_time = time.perf_counter() - t0
        return rep

    base = R.ctx
    ctx = base
    if m >= base.q:
        ctx = ff.extend_field(base, m)
        rep.extended = True
        rep.ext_degree = ctx.nu // base.nu
    Ra = ff.embed_up(base, ctx, R.a) if ctx is not base else R.a
    Hx = H if ctx is base else H.lift(ctx, base)
    Tx = T if ctx is base else T.with_ctx(ctx, ff.embed_up(base, ctx, T.a))

    rng = params.generator()
    lam = freivalds_lambda(ctx.q, n, params.eps)
    rep.lam = lam
    cap = iteration_cap(m, n)
    tab = None  # power table built lazily, only when a correction is needed

    k_guess = 1
    k_done = 0
    c_prev = 2 * n
    pending = {}  # col -> (row index array, value array), the matrix E

    while True:
        rep.rounds += 1
        if rep.rounds > cap:
            raise MonteCarloFailure(
                "correction did not converge within %d rounds "
                "(failure bound %g)" % (cap, params.eps))
        W = ctx.rand(rng, (lam, m))
        # D = W H - W (R+E) T; zero iff no erroneous column remains (T is
        # invertible), found without the triangular solve
        D = _projected_gap(ctx, W, Hx, Ra, pending, Tx)
        if not D.any():
            bad = np.empty(0, dtype=np.intp)
        else:
            resid = D  # (X - WR - WE) T, same column count
            Tx.solve_right(resid)
            bad = np.nonzero(resid.any(axis=0))[0]
        c = len(bad)
        # commit pending corrections that the projection did not contradict
        bad_set = set(int(j) for j in bad)
        for j, (ri, rv) in pending.items():
            if j in bad_set:
                continue
            Ra[ri, j] = ctx.add(Ra[ri, j], rv)
            k_done += len(ri)
            rep.positions.extend((int(r), int(j)) for r in ri)
        pending = {}
        if c > c_prev / 2:
            k_guess = max(2 * k_guess, c)  # too many bad columns: k was wrong
        c_prev = c
        if c == 0:
            break
        if dense_cheaper(ctx.q, params.eps, m, n, ell, c, k_guess - k_done):
            # the dense result overwrites whatever is still pending; R first
            # takes the commits so far when they live in a separate lifted copy
            if Ra is not R.a:
                R.a[...] = ff.coerce_down(base, ctx, Ra)
            _dense_solve(R, H, T, rep)
            rep.wall_time = time.perf_counter() - t0
            return rep
        rep.correcting_rounds += 1
        if tab is None:
            tab = ff.element_of_order_at_least(ctx, m, rng=rng)
        s = min(m, max(1, math.ceil(2 * (k_guess - k_done) / c)))
        # projected residual system: G (P^T T P) = V (H - R T) P
        G = _vand_residual(ctx, tab, s, Hx, Ra, Tx, bad)
        Tx.principal(bad).solve_right(G)
        recovered = batch_interpolate(ctx, G, s, tab)
        for j, col in zip(bad, recovered):
            if col is not None and col.indices:
                pending[int(j)] = (np.array(col.indices, dtype=np.intp),
                                   np.array(col.values, dtype=np.int64))

    rep.verified = True  # the loop exits on a clean Freivalds projection
    rep.corrected = k_done
    if ctx is not base:
        R.a[...] = ff.coerce_down(base, ctx, Ra)
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


def _projected_gap(ctx, W, H, Ra, pending, T):
    """W H - (W (R+E)) T, reduced mod the field."""
    X0 = H.project_left(Mat(ctx, W)).a
    WR = ctx.matmul(W, Ra)
    for j, (ri, rv) in pending.items():
        we = ctx.matmul(W[:, ri], rv.reshape(-1, 1))[:, 0]
        WR[:, j] = ctx.add(WR[:, j], we)
    return ctx.sub(X0, T.mul_right(WR))


def _vand_residual(ctx, tab, s, H, Ra, T, bad):
    """G0 = V.C.P - (V.A)(B.P) - (V.R)(T.P) for the selected columns."""
    rows = 2 * s
    sel = H.select_cols(bad)
    acc = None
    if sel.C is not None:
        acc = apply_vandermonde(ctx, tab, rows, sel.C.a)
    if sel.A is not None:
        VA = apply_vandermonde(ctx, tab, rows, sel.A.a)
        prod = ctx.matmul(VA, sel.B.a)
        if sel.sign < 0:
            acc = ctx.neg(prod) if acc is None else ctx.sub(acc, prod)
        else:
            acc = prod if acc is None else ctx.add(acc, prod)
    VR = apply_vandermonde(ctx, tab, rows, Ra)
    acc = ctx.sub(acc, ctx.matmul(VR, T.cols(bad).a))
    return acc
