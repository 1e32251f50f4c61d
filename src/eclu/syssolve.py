"""System solving with error correction.

Two pipelines for X.A = B with A square invertible GRP:

 - small right-hand side: correct the LU factors, then the candidate
   intermediate solution Y (with Y.U = B), then X (with X.L = Y);
 - large right-hand side: correct the LU factors, then a candidate for
   U^{-1}, then X directly against the unevaluated product B.U^{-1}.

Each stage gets a third of the failure budget.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ff
from .blackbox import BlackboxRHS
from .croutec import crout_ec
from .mat import DimensionError, Mat, PackedLU, Tri
from .report import CorrectionReport
from .sparseint import apply_vandermonde, batch_interpolate, vandermonde_cols
from .trsmec import (MonteCarloFailure, TrsmEcParams, _dense_solve,
                     dense_cheaper, freivalds_lambda, iteration_cap,
                     trsm_ec_lower_right, trsm_ec_upper_right)


@dataclass
class SmallRhsBundle:
    A: Mat            # n-by-n invertible GRP
    B: Mat            # m-by-n
    lu_candidate: PackedLU
    Y_candidate: Mat  # m-by-n, approximate Y with Y.U = B
    X_candidate: Mat  # m-by-n
    eps: float


@dataclass
class LargeRhsBundle:
    A: Mat
    B: Mat
    lu_candidate: PackedLU
    Rinv_candidate: Mat  # n-by-n, approximate inverse of U
    X_candidate: Mat
    eps: float


def small_m_cutoff(n):
    """Row count below which re-solving beats correcting Y and X."""
    return max(1, n ** 0.125)


def solve_small_rhs(bundle, params=None):
    """Correct everything so that X.A = B; returns (X, report)."""
    params = TrsmEcParams.with_generator(
        bundle.eps if params is None else params)
    _check_shapes(bundle.A, bundle.B, bundle.lu_candidate)
    rep = CorrectionReport(stage="solve_small_rhs", epsilon=params.eps,
                           seed=params.seed)
    B = _canonical_rhs(bundle)
    packed, sub = crout_ec(bundle.lu_candidate, bundle.A,
                           params.child(params.eps / 3))
    rep.add_child(sub)
    m, n = B.shape
    if m <= small_m_cutoff(n):
        # few rows: cheaper to back-solve from the corrected factors than to
        # correct the candidates
        X = B.copy()
        packed.upper_tri().solve_right(X)
        packed.lower_tri().solve_right(X)
        rep.verified = sub.verified
        return X, rep
    rep.add_child(trsm_ec_upper_right(bundle.Y_candidate,
                                      BlackboxRHS(C=B),
                                      packed.upper_tri(),
                                      params.child(params.eps / 3)))
    rep.add_child(trsm_ec_lower_right(bundle.X_candidate,
                                      BlackboxRHS(C=bundle.Y_candidate),
                                      packed.lower_tri(),
                                      params.child(params.eps / 3)))
    rep.verified = all(c.verified for c in rep.children)
    return bundle.X_candidate, rep


def solve_large_rhs(bundle, params=None):
    """Pipeline for many rows: corrects a candidate U^{-1} instead of Y."""
    params = TrsmEcParams.with_generator(
        bundle.eps if params is None else params)
    _check_shapes(bundle.A, bundle.B, bundle.lu_candidate)
    n = bundle.A.rows
    if bundle.Rinv_candidate.shape != (n, n):
        raise DimensionError("inverse candidate must be n-by-n")
    rep = CorrectionReport(stage="solve_large_rhs", epsilon=params.eps,
                           seed=params.seed)
    B = _canonical_rhs(bundle)
    packed, sub = crout_ec(bundle.lu_candidate, bundle.A,
                           params.child(params.eps / 3))
    rep.add_child(sub)
    rep.add_child(tr_inv_ec(bundle.Rinv_candidate, packed.upper_tri(),
                            params.child(params.eps / 3)))
    # X.L = B.R, with the product right-hand side left unevaluated
    H = BlackboxRHS(A=B, B=bundle.Rinv_candidate, sign=+1)
    rep.add_child(trsm_ec_lower_right(bundle.X_candidate, H,
                                      packed.lower_tri(),
                                      params.child(params.eps / 3)))
    rep.verified = all(c.verified for c in rep.children)
    return bundle.X_candidate, rep


def tr_inv_ec(R, U, params):
    """Correct R in place toward U^{-1}; returns a report.

    U is upper triangular and invertible.  Erroneous columns are located by
    comparing a random left projection of U^{-1} (obtained by triangular
    solves against U) with the same projection of R; the selected error
    block (I - R.U) P (P^T U P)^{-1} is recovered by sparse interpolation.
    No independent-column selection is needed since U is triangular.
    """
    t0 = time.perf_counter()
    if not isinstance(params, TrsmEcParams):
        params = TrsmEcParams(params)
    U = U if isinstance(U, Tri) else Tri(U, "upper")
    n = U.n
    if R.shape != (n, n):
        raise DimensionError("candidate inverse must match U")
    # the candidate is reduced in place, the input through a reduced copy
    R.ctx.canonical(R.a, in_place=True)
    U = U.with_ctx(U.ctx, R.ctx.canonical(U.a))
    rep = CorrectionReport(stage="tr_inv_ec", epsilon=params.eps,
                           seed=params.seed)
    if n == 0:
        rep.verified = True
        return rep
    U.check_invertible()

    base = R.ctx
    ctx = base
    if n >= base.q:
        ctx = ff.extend_field(base, n)
        rep.extended = True
        rep.ext_degree = ctx.nu // base.nu
    Ra = ff.embed_up(base, ctx, R.a) if ctx is not base else R.a
    Ux = U if ctx is base else U.with_ctx(ctx, ff.embed_up(base, ctx, U.a))

    rng = params.generator()
    lam = freivalds_lambda(ctx.q, n, params.eps)
    rep.lam = lam
    cap = iteration_cap(n, n)
    tab = None

    k_guess = 1
    k_done = 0
    c_prev = 2 * n
    pending = {}

    while True:
        rep.rounds += 1
        if rep.rounds > cap:
            raise MonteCarloFailure(
                "inverse correction did not converge within %d rounds" % cap)
        W = ctx.rand(rng, (lam, n))
        WR = ctx.matmul(W, Ra)
        for j, (ri, rv) in pending.items():
            we = ctx.matmul(W[:, ri], rv.reshape(-1, 1))[:, 0]
            WR[:, j] = ctx.add(WR[:, j], we)
        # W = W (R+E) U iff W U^{-1} - W (R+E) = 0, avoiding the solve on
        # clean rounds
        if np.array_equal(W, Ux.mul_right(WR)):
            bad = np.empty(0, dtype=np.intp)
        else:
            X = W.copy()
            Ux.solve_right(X)  # X = W U^{-1}, one solve per projection row
            resid = ctx.sub(X, WR)
            bad = np.nonzero(resid.any(axis=0))[0]
        c = len(bad)
        bad_set = set(int(j) for j in bad)
        for j, (ri, rv) in pending.items():
            if j in bad_set:
                continue
            Ra[ri, j] = ctx.add(Ra[ri, j], rv)
            k_done += len(ri)
            rep.positions.extend((int(r), int(j)) for r in ri)
        pending = {}
        if c > c_prev / 2:
            k_guess = max(2 * k_guess, c)
        c_prev = c
        if c == 0:
            break
        if dense_cheaper(ctx.q, params.eps, n, n, 0, c, k_guess - k_done):
            # R = I U^-1 by one dense solve, as in trsmec's loop
            if Ra is not R.a:
                R.a[...] = ff.coerce_down(base, ctx, Ra)
            _dense_solve(R, BlackboxRHS(C=Mat.identity(base, n)), U, rep)
            rep.wall_time = time.perf_counter() - t0
            return rep
        rep.correcting_rounds += 1
        if tab is None:
            tab = ff.element_of_order_at_least(ctx, n, rng=rng)
        s = min(n, max(1, math.ceil(2 * (k_guess - k_done) / c)))
        # V (I - R U) P, then divide out P^T U P on the right
        G = vandermonde_cols(ctx, tab, 2 * s, bad)
        VR = apply_vandermonde(ctx, tab, 2 * s, Ra)
        G = ctx.sub(G, ctx.matmul(VR, Ux.cols(bad).a))
        Ux.principal(bad).solve_right(G)
        for j, col in zip(bad, batch_interpolate(ctx, G, s, tab)):
            if col is not None and col.indices:
                pending[int(j)] = (np.array(col.indices, dtype=np.intp),
                                   np.array(col.values, dtype=np.int64))

    rep.verified = True
    rep.corrected = k_done
    if ctx is not base:
        R.a[...] = ff.coerce_down(base, ctx, Ra)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _canonical_rhs(bundle):
    """B with codes in [0, q); the candidates are reduced by the correctors."""
    ctx = bundle.B.ctx
    return Mat(ctx, ctx.canonical(bundle.B.a))


def _check_shapes(A, B, packed):
    if A.rows != A.cols:
        raise DimensionError("A must be square")
    if B.cols != A.rows:
        raise DimensionError("B must have as many columns as A")
    if packed.n != A.rows:
        raise DimensionError("LU candidate size disagrees with A")
