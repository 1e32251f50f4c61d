"""Error-correcting triangular solves against blackbox right-hand sides.

The core loop guesses the number of errors k, locates erroneous columns of
the candidate solution with a random left projection (a Freivalds-style
check), recovers up to s = ceil(2(k - k')/c) errors per located column by
sparse interpolation, k' being the errors already confirmed, and writes the
recovered values into the candidate at once.  The next round's projection
confirms each such column or rolls it back.  If fewer than half of the
located columns cleared in a round, the guess k doubles.  The guess bounds
all errors, confirmed ones included, so before each recovery it is also
raised to at least k' + c plus s for each located column whose recovery
at s terms failed: each located column still holds an error, and one that
failed at s terms holds more than s.  So s is at least 2, and a good round
never leaves the next one asking for too few terms.  A first pass that
finds c of n columns bad also raises the guess to -n ln(1 - c/n), the
linear-counting estimate (Whang, Vander-Zanden, Taylor, ACM TODS 1990),
once that at least doubles it.

The loop ends when a projection finds no erroneous column at all, which
bounds the failure probability of the final state by the requested
epsilon, or with one deterministic dense solve once the sparse work spent
in the call plus its next round would cost more than that solve
(`dense_cheaper`).  Like renting skis until the rent paid reaches the
price of buying (Karlin, Manasse, Rudolph, Sleator, "Competitive snoopy
caching", 1988), this keeps a call within about twice the cost of one
dense solve, plus one round, whatever the number of errors.

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

import numpy as np

from . import ff
from .mat import DimensionError, Mat, Tri
from .report import stage
from .sparseint import apply_vandermonde, batch_interpolate


class MonteCarloFailure(RuntimeError):
    """Raised when the correction loop exceeds its iteration budget; report
    is that loop's report, stopped at "cap"."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TrsmEcParams:
    """Failure bound plus randomness for one correction call."""

    __slots__ = ("eps", "seed", "rng")

    def __init__(self, eps, seed=None, rng=None):
        if not 0 < eps < 1:
            raise ValueError("failure bound must lie in (0, 1)")
        self.eps = float(eps)
        self.seed = seed
        self.rng = rng

    @classmethod
    def with_generator(cls, params):
        """params (a TrsmEcParams or a bare failure bound) holding a live
        generator, so that the stages of one call draw from one stream."""
        if not isinstance(params, cls):
            params = cls(params)
        if params.rng is None:
            params = cls(params.eps, params.seed,
                         np.random.default_rng(params.seed))
        return params

    def child(self, eps):
        return TrsmEcParams(eps, self.seed, self.rng)


@functools.lru_cache(maxsize=4096)
def freivalds_lambda(q, n, eps):
    """Projection block height: ceil(log_q(3 n log2(n) / eps)), at least 1."""
    n = max(n, 2)
    target = 3.0 * n * math.log2(n) / eps
    return max(1, math.ceil(math.log(target) / math.log(q)))


# Prices of the dense-or-sparse decision, in units of about 4 ns; their
# calibration is in dense_cheaper.
_CALL = 2 ** 13   # fixed price of a dense solve or a projected pass
_ROUND = 2 ** 15  # fixed price of a recovery round
_COLUMN = 5000    # per column interpolated, plus per term:
_TERM2 = 750      # per s^2 (Berlekamp-Massey, value solve, re-check)
_SCAN = 8         # per m s (root scan)
_EXT = 5          # factor on the terms when theta lies in an extension


def dense_price(q, m, n, ell):
    """Price of one dense solve of R T = H over GF(q) (see dense_cheaper)."""
    work = m * n * (ell + n)
    return (_CALL + min(work / 10, 32 * work ** (2 / 3))
            * ff.PrimeField.madd_price(q))


def sparse_price(q, eps, m, n, ell, c=0, s=0):
    """Price of the sparse path's next step: one projected pass, and with
    c > 0 bad columns the recovery round at s terms before it (see
    dense_cheaper)."""
    lam = freivalds_lambda(q, n, eps)
    read = (2 * m * n + n * n + ell * (m + n)) * (16 + lam) / 32
    price = _CALL
    if c:
        nu = ff.extension_degree(q, m)
        terms = (_TERM2 * s * s + _SCAN * m * s) * (_EXT if nu > 1 else 1)
        read += ((m * (n + ell) + c * (m + n + ell + c))
                 * (16 + 2 * s * nu) / 32)
        price += _ROUND + c * (_COLUMN + terms)
    return price + read * ff.PrimeField.madd_price(q)


def dense_cheaper(q, eps, m, n, ell, c=0, s=0, spent=0):
    """Whether one dense solve of R T = H costs no more than the sparse path.

    R is m-by-n, T is n-by-n and H has inner dimension ell.  The test
    compares dense_price with the sparse work spent in the call so far
    plus sparse_price of the next step: at the loop's entry (spent = 0,
    c = 0) one projected pass, later the recovery round for c bad columns
    at s terms and the pass after it.  The loop adds sparse_price of every
    step it takes to spent, so it turns dense once the sparse path has
    cost about as much as the dense solve.

    Prices are in units of about 4 ns.  Both paths pay _CALL for each
    dense solve or pass.  dense_price adds the dense path's
    work = m n (ell + n) multiply-adds, evaluating H and solving against
    T, at 1/10 unit each, or 32 / work^(1/3) once that is less; crout_ec
    prices refactoring a node's strips and second half alike.  A pass
    reads 2mn + n^2 + ell (m + n) operand entries at (16 + lam) / 32 each,
    lam = freivalds_lambda(q, n, eps).  A recovery round pays _ROUND,
    reads m (n + ell) + c (m + n + ell + c) entries in products of 2 s nu
    rows, nu the degree of theta's field, at (16 + 2 s nu) / 32 each, and
    interpolates c columns at _COLUMN + _TERM2 s^2 + _SCAN m s each, the
    terms times _EXT when theta lies in an extension.  The multiply-adds
    and the entries read cost ff.PrimeField.madd_price(q) times as much as
    at GF(65537): the price of the path PrimeField.matmul takes over GF(q).

    Calibration, one thread, OpenBLAS 0.3.31, numpy 2.4.6, each part timed
    alone at GF(65537) and GF(7), n = 16..1024, m = n..2n, ell = 0..n.  A
    dense solve, with the triangle's block inverses built (the projected
    path builds them too once it solves), cost about 30 us plus 0.3-0.5 ns
    per multiply-add up to work = 2^25, then 0.15-0.25 ns at n = 512 and
    0.09-0.11 ns at n = 1024.  A product of r rows cost about
    2 + 0.12 r ns per entry it read, from 2 to 64 rows and n = 256..1024,
    and a pass about 30 us more.  An interpolated column cost
    20 us + 3 us s^2 + 30 ns m s at GF(65537), m = 256..1024, s = 2..64,
    and about five times the terms at GF(7^4) and GF(2^9); a column that
    fails costs a third to a half of one that recovers.  A recovery round
    of one column cost 70-150 us more than these parts at GF(65537),
    m = 16..128, and 85-300 us more at GF(7^2) and GF(7^3), in calls on
    small arrays.  Summed per round, these prices matched measured rounds
    of trsm_ec_upper_right at n = 1024 to within 10-30%.
    """
    return (dense_price(q, m, n, ell)
            <= spent + sparse_price(q, eps, m, n, ell, c, s))


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


def _trsm_ec_right(R, H, T, params, name):
    """Entry of the four public variants and tr_inv_ec: checks shapes,
    operand ranges and T's diagonal once, then runs the correction loop on
    R.T = H in a stage named name, which it returns."""
    params = TrsmEcParams.with_generator(params)
    m, n = R.shape
    if H.rows != m or H.cols != n:
        raise DimensionError("blackbox shape %s does not match candidate %s"
                             % ((H.rows, H.cols), (m, n)))
    if T.n != n:
        raise DimensionError("triangle size %d does not match candidate cols %d"
                             % (T.n, n))
    with stage(name, params) as rep:
        # the candidate is reduced in place, the inputs through reduced copies
        R.ctx.canonical(R.a, in_place=True)
        H = H.canonical()
        T = Tri(Mat(R.ctx, R.ctx.canonical(T.a)), T.kind, T.unit)
        if m and n:
            T.check_invertible()
        _correction_loop(R, H, T, params, rep)
    return rep


def _correction_loop(R, H, T, params, rep):
    """Correct R in place so that R.T = H, filling rep, the report of the
    stage that the caller opened.

    Assumes checked operands: matching shapes, codes in [0, q), T
    invertible, and params holding a live generator.
    """
    m, n = R.shape
    if m == 0 or n == 0:
        rep.verified = True
        return

    base, ell, eps = R.ctx, H.inner, params.eps
    if dense_cheaper(base.q, eps, m, n, ell):
        # narrow system: evaluating H densely and checking R T = H costs no
        # more than one projection round, so correct deterministically
        rep.rounds = 1
        _dense_solve(R, H, T, rep, check=True)
        return

    lam = freivalds_lambda(base.q, n, eps)
    rep.lam = lam
    cap = iteration_cap(m, n)
    rep.extended = m >= base.q  # theta's field, built on first recovery
    rep.ext_degree = ff.extension_degree(base.q, m)
    tab = None

    k_guess = 1
    k_done = 0
    c_prev = 2 * n
    tried, s = np.empty(0, dtype=np.intp), 0  # columns and terms last tried
    spent = sparse_price(base.q, eps, m, n, ell)  # the first pass
    undo = {}  # col -> (rows, previous values) of unconfirmed corrections

    while True:
        rep.rounds += 1
        if rep.rounds > cap:
            for j, (ri, old) in undo.items():
                R.a[ri, j] = old  # R keeps only confirmed corrections
            rep.stop = "cap"
            raise MonteCarloFailure(
                "correction did not converge within %d rounds "
                "(failure bound %g)" % (cap, eps), rep)
        W = base.rand(params.rng, (lam, m))
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
            k_guess *= 2  # too many bad columns remain: k was too small
        c_prev = c
        # k_guess bounds all errors, the confirmed ones included: each bad
        # column still holds one, and one that the last recovery tried at s
        # terms holds more than s
        again = np.intersect1d(bad, tried, assume_unique=True).size if s else 0
        k_guess = max(k_guess, k_done + c + s * again)
        if rep.rounds == 1 and c:
            # c of n columns hit suggest -n ln(1 - c/n) errors (linear
            # counting), trusted once that doubles the guess
            k_est = -n * math.log1p(-min(c, n - 0.5) / n)
            if k_est >= 2 * k_guess:
                k_guess = math.ceil(k_est)
        tried = bad
        step = dict(c=c, k_guess=k_guess, k_done=k_done, s=0, tried=0,
                    failed=0, ext=False)
        rep.trace.append(step)
        if c == 0:
            break
        s = min(m, math.ceil(2 * (k_guess - k_done) / c))
        if dense_cheaper(base.q, eps, m, n, ell, c, s, spent):
            _dense_solve(R, H, T, rep)
            return
        spent += sparse_price(base.q, eps, m, n, ell, c, s)
        rep.correcting_rounds += 1
        if tab is None:
            big = ff.extend_field(base, m) if rep.extended else base
            tab = ff.element_of_order_at_least(big, m)
        fixed = _recover(base, tab, s, H, R, T, bad)
        step.update(s=s, tried=c, failed=c - len(fixed), ext=rep.extended)
        for j, (ri, rv) in fixed.items():
            undo[j] = (ri, R.a[ri, j])
            R.a[ri, j] = base.add(R.a[ri, j], rv)

    rep.verified = True  # the loop exits on a clean Freivalds projection
    rep.stop = "clean"
    rep.corrected = k_done


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
    rep.stop = "dense"
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

    With V = (theta^(i j)) of 2s rows over theta's field tab.ctx and P the
    bad columns, G (P^T T P) = V (H - R T) P = V E P.  apply_vandermonde
    forms V H P and V R over base, as digit planes when theta lies in an
    extension, and batch_interpolate recovers E P from G in base.
    """
    rows = 2 * s
    Tc = T.cols(bad).a
    G = base.sub(apply_vandermonde(base, tab, rows, H.select_cols(bad)),
                 base.matmul(apply_vandermonde(base, tab, rows, R.a), Tc))
    # rows bad of T P are P^T T P, as bad is increasing
    Tri(Mat(base, Tc[bad]), T.kind).solve_right(G)
    pending = {}
    for j, col in zip(bad, batch_interpolate(base, G, s, tab)):
        if col is not None and col.indices:
            pending[int(j)] = (np.array(col.indices, dtype=np.intp),
                               np.array(col.values, dtype=np.int64))
    return pending
