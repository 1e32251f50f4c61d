"""System solving with error correction.

Two pipelines for X.A = B with A square invertible GRP:

 - small right-hand side: correct the LU factors, then the candidate
   intermediate solution Y (with Y.U = B), then X (with X.L = Y);
 - large right-hand side: correct the LU factors, then a candidate for
   U^{-1}, then X directly against the unevaluated product B.U^{-1}.

Correcting the candidate inverse R is correcting R.U = I, with the identity
as a blackbox right-hand side.

Each stage gets a third of the failure budget.
"""

from dataclasses import dataclass

from .blackbox import BlackboxRHS
from .croutec import crout_ec
from .mat import DimensionError, Mat, PackedLU
from .report import stage
from .trsmec import (TrsmEcParams, _as_tri, _trsm_ec_right,
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


def solve_small_rhs(bundle, params=None):
    """Correct everything so that X.A = B; returns (X, report)."""
    params = TrsmEcParams.with_generator(
        bundle.eps if params is None else params)
    _check_shapes(bundle.A, bundle.B, bundle.lu_candidate)
    with stage("solve_small_rhs", params) as rep:
        B = _canonical_rhs(bundle)
        packed, sub = crout_ec(bundle.lu_candidate, bundle.A,
                               params.child(params.eps / 3))
        rep.add_child(sub)
        rep.add_child(trsm_ec_upper_right(bundle.Y_candidate,
                                          BlackboxRHS(C=B),
                                          packed.upper_tri(),
                                          params.child(params.eps / 3)))
        rep.add_child(trsm_ec_lower_right(bundle.X_candidate,
                                          BlackboxRHS(C=bundle.Y_candidate),
                                          packed.lower_tri(),
                                          params.child(params.eps / 3)))
    return bundle.X_candidate, rep


def solve_large_rhs(bundle, params=None):
    """Pipeline for many rows: corrects a candidate U^{-1} instead of Y."""
    params = TrsmEcParams.with_generator(
        bundle.eps if params is None else params)
    _check_shapes(bundle.A, bundle.B, bundle.lu_candidate)
    n = bundle.A.rows
    if bundle.Rinv_candidate.shape != (n, n):
        raise DimensionError("inverse candidate must be n-by-n")
    with stage("solve_large_rhs", params) as rep:
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
    return bundle.X_candidate, rep


def tr_inv_ec(R, U, params):
    """Correct R in place toward U^{-1}; returns a report.

    U is upper triangular and invertible.  The inverse is the correction of
    R.U = I, with the identity as a blackbox right-hand side, so R goes
    through the same locate / recover / commit loop as every other
    triangular solve.
    """
    n = U.a.shape[0]
    if R.shape != (n, n):
        raise DimensionError("candidate inverse must match U")
    return _trsm_ec_right(R, BlackboxRHS(C=Mat.identity(R.ctx, n)),
                          _as_tri(U, "upper"), params, "tr_inv_ec")


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
