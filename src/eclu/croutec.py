"""Recursive Crout LU, its error-correcting version, and the rectangular
and rank-deficient wrappers.

The Crout schedule computes each entry of L and U directly from the original
input and previously finished factors, which is exactly what lets the
error-correcting variant replace the two inner triangular solves by
blackbox corrections without ever forming an intermediate product.
"""

import time

import numpy as np

from .blackbox import BlackboxRHS
from .mat import DimensionError, Mat, PackedLU, Tri
from .report import CorrectionReport
from .trsmec import (TrsmEcParams, dense_cheaper, trsm_ec_lower_left,
                     trsm_ec_upper_right)


class GrpViolation(ValueError):
    """Zero pivot met while the input was asserted invertible with GRP."""


class _RankStop(Exception):
    def __init__(self, rank):
        self.rank = rank


def crout_reference(A):
    """Exact LU factorization of an invertible GRP matrix.

    Returns a PackedLU with extract_L() . extract_U() == A.
    """
    if A.rows != A.cols:
        raise DimensionError("square matrix required")
    n = A.rows
    M = Mat.zeros(A.ctx, n, n)
    _crout(A.ctx, M.a, A.a, 0, n)
    return PackedLU(M)


def _crout(ctx, M, A, n1, nrest):
    if nrest == 0:
        return
    if nrest == 1:
        piv = ctx.ssub(int(A[n1, n1]), ctx.dot(M[n1, :n1], M[:n1, n1]))
        if piv == 0:
            raise GrpViolation("zero pivot at index %d" % n1)
        M[n1, n1] = piv
        return
    n2 = (nrest + 1) // 2
    n3 = nrest - n2
    _crout(ctx, M, A, n1, n2)
    r1 = slice(0, n1)
    r2 = slice(n1, n1 + n2)
    r3 = slice(n1 + n2, n1 + nrest)
    M[r2, r3] = ctx.sub(A[r2, r3], ctx.matmul(M[r2, r1], M[r1, r3]))
    Tri(Mat(ctx, M[r2, r2]), "lower", unit=True).solve_left(M[r2, r3])
    M[r3, r2] = ctx.sub(A[r3, r2], ctx.matmul(M[r3, r1], M[r1, r2]))
    Tri(Mat(ctx, M[r2, r2]), "upper").solve_right(M[r3, r2])
    _crout(ctx, M, A, n1 + n2, n3)


def crout_ec(packed, A, params):
    """Correct a candidate LU factorization of A in place.

    packed holds the (possibly erroneous) L below the diagonal and U on and
    above it; on success it is overwritten with the true factors and
    Pr[A = L.U] >= 1 - eps.  Returns (packed, report); the report's
    wall_time covers the whole call, its lam is the largest of its stages.
    """
    t0 = time.perf_counter()
    params = TrsmEcParams.with_generator(params)
    if A.rows != A.cols or packed.n != A.rows:
        raise DimensionError("candidate and input sizes disagree")
    rep = CorrectionReport(stage="croutec", epsilon=params.eps,
                           seed=params.seed)
    ctx = A.ctx
    # the candidate is reduced in place, the input through a reduced copy
    ctx.canonical(packed.mat.a, in_place=True)
    _crout_ec(ctx, packed.mat.a, ctx.canonical(A.a), 0, A.rows, params.eps,
              params, rep, rank_mode=False)
    rep.verified = all(c.verified for c in rep.children) if rep.children else True
    rep.wall_time = time.perf_counter() - t0
    return packed, rep


def _crout_ec(ctx, M, A, n1, nrest, eps, params, rep, rank_mode):
    if nrest == 0:
        return
    if nrest == 1:
        i = n1
        piv = ctx.ssub(int(A[i, i]), ctx.dot(M[i, :i], M[:i, i]))
        if piv == 0:
            if rank_mode:
                raise _RankStop(i)
            raise GrpViolation("zero pivot at index %d" % i)
        M[i, i] = piv  # recomputed from scratch: the diagonal must be correct
        return
    if nrest <= _BLOCK_CHECK:
        sub = _dense_block(ctx, M, A, n1, nrest, eps)
        if sub is not None:
            rep.add_child(sub)
            return
    n2 = (nrest + 1) // 2
    n3 = nrest - n2
    _crout_ec(ctx, M, A, n1, n2, eps / 4, params, rep, rank_mode)
    r1 = slice(0, n1)
    r2 = slice(n1, n1 + n2)
    r3 = slice(n1 + n2, n1 + nrest)
    # narrow strips that the triangular corrector would check densely are
    # checked here, skipping the operand wrapping
    fast = dense_cheaper(ctx.q, eps / 4, n3, n2, n1)
    sub = _dense_strip(ctx, M, A, r1, r2, r3, "u", eps / 4) if fast else None
    if sub is None:
        # correct U23 against L22 . U23 = A23 - L21 . U13 (right side
        # unevaluated)
        H_u = BlackboxRHS(C=Mat(ctx, A[r2, r3]),
                          A=Mat(ctx, M[r2, r1]), B=Mat(ctx, M[r1, r3]))
        L22 = Tri(Mat(ctx, M[r2, r2]), "lower", unit=True)
        sub = trsm_ec_lower_left(Mat(ctx, M[r2, r3]), H_u, L22,
                                 params.child(eps / 4))
    rep.add_child(sub)
    sub = _dense_strip(ctx, M, A, r1, r2, r3, "l", eps / 4) if fast else None
    if sub is None:
        # correct L32 against L32 . U22 = A32 - L31 . U12
        H_l = BlackboxRHS(C=Mat(ctx, A[r3, r2]),
                          A=Mat(ctx, M[r3, r1]), B=Mat(ctx, M[r1, r2]))
        U22 = Tri(Mat(ctx, M[r2, r2]), "upper")
        sub = trsm_ec_upper_right(Mat(ctx, M[r3, r2]), H_l, U22,
                                  params.child(eps / 4))
    rep.add_child(sub)
    _crout_ec(ctx, M, A, n1 + n2, n3, eps / 4, params, rep, rank_mode)


# subtree size up to which a clean block is confirmed by one dense check
_BLOCK_CHECK = 16


def _dense_block(ctx, M, A, n1, ns, eps):
    """One-shot deterministic check of a small trailing-diagonal block.

    By the elimination order every column left of n1 is already final, so
    B = A - (L prefix).(U prefix) restricted to the block is exact, and
    L_b . U_b = B with a nonzero U_b diagonal determines both factors
    uniquely.  Returns None (caller recurses normally) on any mismatch, on
    a zero diagonal entry, or in general whenever the block needs work.
    """
    t0 = time.perf_counter()
    s = slice(n1, n1 + ns)
    Ms = Mat(ctx, M[s, s])
    if not Ms.a.diagonal().all():
        return None
    B = ctx.sub(A[s, s], ctx.matmul(M[s, :n1], M[:n1, s]))
    Lb = Tri(Ms, "lower", unit=True).dense().a
    if not np.array_equal(Tri(Ms, "upper").mul_right(Lb), B):
        return None
    return _dense_report("dense_block", eps, t0)


def _dense_strip(ctx, M, A, r1, r2, r3, which, eps):
    """Dense check of one already-correct strip; None on any mismatch.

    which is "u" for the U strip (L22 . U23 = A23 - L21 . U13) and "l" for
    the L strip (L32 . U22 = A32 - L31 . U12).  Falls back to the full
    corrector (by returning None) as soon as the strip disagrees with its
    defining equation, so only the clean case is handled here.  The result
    is the same deterministic verification the dense path of the
    triangular corrector performs.
    """
    t0 = time.perf_counter()
    D = Mat(ctx, M[r2, r2])
    if which == "u":
        H = ctx.sub(A[r2, r3], ctx.matmul(M[r2, r1], M[r1, r3]))
        Z = ctx.matmul(Tri(D, "lower", unit=True).dense().a, M[r2, r3])
    else:
        # U22 must be invertible for R U22 = H to pin R down
        if not D.a.diagonal().all():
            return None
        H = ctx.sub(A[r3, r2], ctx.matmul(M[r3, r1], M[r1, r2]))
        Z = Tri(D, "upper").mul_right(M[r3, r2])
    if not np.array_equal(Z, H):
        return None
    return _dense_report("dense_strip_" + which, eps, t0)


def _dense_report(stage, eps, t0):
    sub = CorrectionReport(stage=stage, epsilon=eps)
    sub.rounds = 1
    sub.verified = True
    sub.dense_verified = True
    sub.wall_time = time.perf_counter() - t0
    return sub


def rect_ec(A, packed, U2, params):
    """Correct the factorization of a wide matrix A = [A1 A2], m <= n.

    packed is the candidate L\\U1 of the square leading block, U2 the
    candidate for the trailing columns.  Both are corrected in place so
    that L . [U1 U2] = A with probability >= 1 - eps.
    """
    params = TrsmEcParams.with_generator(params)
    m, n = A.shape
    if m > n:
        raise DimensionError("rect_ec expects m <= n")
    if packed.n != m or U2.shape != (m, n - m):
        raise DimensionError("candidate shapes disagree with A")
    rep = CorrectionReport(stage="rect_ec", epsilon=params.eps,
                           seed=params.seed)
    _, sub = crout_ec(packed, A.view(0, 0, m, m), params.child(params.eps / 2))
    rep.add_child(sub)
    if n > m:
        H = BlackboxRHS(C=A.view(0, m, m, n - m))
        rep.add_child(trsm_ec_lower_left(U2, H, packed.lower_tri(),
                                         params.child(params.eps / 2)))
    rep.verified = all(c.verified for c in rep.children)
    return packed, U2, rep


def rank_deficient_ec(A, L_cand, U_cand, params):
    """Correct a factorization of a GRP matrix of unknown rank.

    L_cand is m-by-r_hat, U_cand is r_hat-by-n for the server's claimed rank
    r_hat; entries outside the true r-shaped factors are ignored.  The first
    zero pivot met during the corrected elimination reveals the true rank.
    Returns (r, L, U, report) with L of size m-by-r, U of size r-by-n and
    L . U = A with probability >= 1 - eps.
    """
    params = TrsmEcParams.with_generator(params)
    ctx = A.ctx
    m, n = A.shape
    r_hat = L_cand.cols
    if L_cand.rows != m or U_cand.cols != n or U_cand.rows != r_hat:
        raise DimensionError("candidate shapes disagree with A")
    d = min(m, n)
    rep = CorrectionReport(stage="rank_deficient_ec", epsilon=params.eps,
                           seed=params.seed)

    # packed candidate for the leading d-by-d block, zero-padded past r_hat
    M = np.zeros((d, d), dtype=np.int64)
    ru = min(r_hat, d)
    M[:ru, :] = np.triu(U_cand.a[:ru, :d])
    M[:, :ru] += np.tril(L_cand.a[:d, :ru], -1)
    ctx.canonical(M, in_place=True)
    A = Mat(ctx, ctx.canonical(A.a))

    sub = CorrectionReport(stage="croutec", epsilon=params.eps / 3)
    try:
        _crout_ec(ctx, M, A.a[:d, :d], 0, d, params.eps / 3,
                  params.child(params.eps / 3), sub, rank_mode=True)
        r = d
    except _RankStop as stop:
        r = stop.rank
    sub.verified = all(c.verified for c in sub.children) if sub.children else True
    rep.add_child(sub)

    # U right strip: columns r..n (partially corrected inside M up to d)
    U_rest = np.zeros((r, n - r), dtype=np.int64)
    U_rest[:, :d - r] = np.triu(M, 0)[:r, r:d]
    take = min(r_hat, r)
    if n > d:
        U_rest[:take, d - r:] = U_cand.a[:take, d:]
    L11 = Tri(Mat(ctx, M[:r, :r]), "lower", unit=True)
    U11 = Tri(Mat(ctx, M[:r, :r]), "upper")
    U_rest_m = Mat(ctx, U_rest)
    if n > r:
        rep.add_child(trsm_ec_lower_left(
            U_rest_m, BlackboxRHS(C=A.view(0, r, r, n - r)), L11,
            params.child(params.eps / 3)))

    # L bottom strip: rows r..m
    L_rest = np.zeros((m - r, r), dtype=np.int64)
    L_rest[:d - r, :] = np.tril(M, -1)[r:d, :r]
    if m > d:
        L_rest[d - r:, :take] = L_cand.a[d:, :take]
    L_rest_m = Mat(ctx, L_rest)
    if m > r:
        rep.add_child(trsm_ec_upper_right(
            L_rest_m, BlackboxRHS(C=A.view(r, 0, m - r, r)), U11,
            params.child(params.eps / 3)))

    L_out = np.zeros((m, r), dtype=np.int64)
    L_out[:r, :] = np.tril(M[:r, :r], -1) + np.eye(r, dtype=np.int64)
    L_out[r:, :] = L_rest
    U_out = np.zeros((r, n), dtype=np.int64)
    U_out[:, :r] = np.triu(M[:r, :r])
    U_out[:, r:] = U_rest_m.a
    rep.verified = all(c.verified for c in rep.children) if rep.children else True
    return r, Mat(ctx, L_out), Mat(ctx, U_out), rep


def make_grp_instance(ctx, n, rng, rank=None):
    """Random GRP matrix built from its own factorization certificate.

    Returns (A, L0, U0): L0 unit lower m-by-rank, U0 upper rank-by-n with
    nonzero diagonal, A = L0.U0.  Leading principal minors up to the rank
    are products of U0's diagonal, hence nonzero.
    """
    if isinstance(n, tuple):
        m, n_ = n
    else:
        m = n_ = n
    r = min(m, n_) if rank is None else rank
    L = np.tril(ctx.rand(rng, (m, r)), -1)
    np.fill_diagonal(L[:r, :r], 1)
    U = np.triu(ctx.rand(rng, (r, n_)))
    diag = ctx.rand_nonzero(rng, (r,))
    U[np.arange(r), np.arange(r)] = diag
    A = Mat(ctx, ctx.matmul(L, U))
    return A, Mat(ctx, L), Mat(ctx, U)
