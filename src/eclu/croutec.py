"""Recursive Crout LU, its error-correcting version, and the rectangular
and rank-deficient wrappers.

The Crout schedule computes each entry of L and U directly from the original
input and previously finished factors, which is exactly what lets the
error-correcting variant replace the two inner triangular solves by
blackbox corrections without ever forming an intermediate product.  The
corrector first checks each node with one Freivalds projection of its
trailing block and skips the node's subtree when the check passes, so a
correct candidate costs one projection of the whole product.  A node that
fails descends: each small diagonal block is checked densely, and each
strip goes through the triangular correction loop.  The reference and a
wrong block share one leaf kernel, in-place elimination of the block's
Schur complement.  Every report leaf holds its positions in the packed
matrix's coordinates, and every stage, leaves and strips included, times
itself through report.stage.
"""

import numpy as np

from .blackbox import BlackboxRHS
from .mat import _BLOCK_CHECK, DimensionError, Mat, PackedLU, Tri
from .report import stage
from .trsmec import (TrsmEcParams, _correction_loop, freivalds_lambda,
                     trsm_ec_lower_left, trsm_ec_upper_right)


class GrpViolation(ValueError):
    """Zero pivot, at position index, met where the input was asserted GRP;
    raised by crout_ec, report is its report, holding the corrections made
    before the pivot."""

    def __init__(self, index):
        super().__init__("zero pivot at index %d" % index)
        self.index = index
        self.report = None


def crout_reference(A):
    """Exact LU factorization of an invertible GRP matrix.

    Returns a PackedLU with extract_L() . extract_U() == A.
    """
    if A.rows != A.cols:
        raise DimensionError("square matrix required")
    P = PackedLU(Mat.zeros(A.ctx, A.rows, A.rows))
    _crout(P.lower_tri(), P.upper_tri(), A.a, 0, A.rows)
    return P


def _crout(L, U, A, n1, nrest):
    """Factor the trailing block from n1 into M's root triangles L, U.

    Leaves of at most _BLOCK_CHECK rows go to _factor_leaf; each level
    solves against the roots' sub-triangles, sharing their inverses.
    """
    ctx, M = L.ctx, L.a
    if nrest <= _BLOCK_CHECK:
        s = slice(n1, n1 + nrest)
        _factor_leaf(ctx, M[s, s],
                     ctx.sub(A[s, s], ctx.matmul(M[s, :n1], M[:n1, s])), n1)
        return
    n2 = (nrest + 1) // 2
    _crout(L, U, A, n1, n2)
    r1 = slice(0, n1)
    r2 = slice(n1, n1 + n2)
    r3 = slice(n1 + n2, n1 + nrest)
    M[r2, r3] = ctx.sub(A[r2, r3], ctx.matmul(M[r2, r1], M[r1, r3]))
    L.sub(n1, n2).solve_left(M[r2, r3])
    M[r3, r2] = ctx.sub(A[r3, r2], ctx.matmul(M[r3, r1], M[r1, r2]))
    U.sub(n1, n2).solve_right(M[r3, r2])
    _crout(L, U, A, n1 + n2, nrest - n2)


def _factor_leaf(ctx, Ms, B, n1):
    """Factor the leaf at n1 into its block Ms of M by right-looking
    elimination, in field ops, of its Schur complement B, which it
    overwrites.  A zero pivot i raises GrpViolation(n1 + i) once the L
    columns and U rows before i are in Ms, leaving the rest of Ms as it was.
    """
    for i in range(B.shape[0]):
        piv = int(B[i, i])
        if piv == 0:
            Ms[:i], Ms[i:, :i] = B[:i], B[i:, :i]
            raise GrpViolation(n1 + i)
        col = B[i + 1:, i] = ctx.mul(B[i + 1:, i], ctx.sinv(piv))
        B[i + 1:, i + 1:] = ctx.sub(B[i + 1:, i + 1:],
                                    ctx.mul(col[:, None], B[i, i + 1:]))
    Ms[...] = B


def crout_ec(packed, A, params):
    """Correct a candidate LU factorization of A in place.

    packed holds the (possibly erroneous) L below the diagonal and U on and
    above it; on success it is overwritten with the true factors and
    Pr[A = L.U] >= 1 - eps.  Returns (packed, report); the report's lam is
    the largest of its stages.  Raises GrpViolation, carrying the report,
    when A has a zero pivot.
    """
    params = TrsmEcParams.with_generator(params)
    if A.rows != A.cols or packed.n != A.rows:
        raise DimensionError("candidate and input sizes disagree")
    ctx = A.ctx
    with stage("croutec", params) as rep:
        # the only range checks: the candidate in place, the input by a copy
        ctx.canonical(packed.mat.a, in_place=True)
        try:
            _crout_ec(packed.lower_tri(), packed.upper_tri(),
                      ctx.canonical(A.a), 0, A.rows, params, rep)
        except GrpViolation as err:
            err.report = rep
            raise
    return packed, rep


def _crout_ec(L, U, A, n1, nrest, params, rep):
    """Correct the trailing block from n1 of the packed buffer M.

    A node larger than _BLOCK_CHECK is checked first and skipped when the
    check passes; a smaller one is a leaf, checked by _dense_block.  L and
    U are M's root triangles, whose sub-triangles serve as in _crout.
    """
    ctx, M = L.ctx, L.a
    if nrest <= _BLOCK_CHECK:
        _dense_block(ctx, M, A, n1, nrest, params, rep)
        return
    check = _node_check(L, U, A, n1, nrest, params)
    if check.verified:
        rep.add_child(check)
        return
    # a wrong node passes its check with probability at most check.epsilon,
    # so the descent keeps the rest of eps
    n2 = (nrest + 1) // 2
    quarter = params.child((params.eps - check.epsilon) / 4)
    _crout_ec(L, U, A, n1, n2, quarter, rep)
    r1 = slice(0, n1)
    r2 = slice(n1, n1 + n2)
    r3 = slice(n1 + n2, n1 + nrest)
    # U23 from L22 . U23 = A23 - L21 . U13 (right side unevaluated),
    # corrected as its transpose U23^T . L22^T = H^T
    H_u = BlackboxRHS(C=Mat(ctx, A[r2, r3]),
                      A=Mat(ctx, M[r2, r1]), B=Mat(ctx, M[r1, r3]))
    with stage("trsmec_lower_left", quarter) as strip:
        _correction_loop(Mat(ctx, M[r2, r3]).T, H_u.T, L.sub(n1, n2).T,
                         quarter, strip)
    rep.add_child(strip.transposed().shift(n1, n1 + n2))
    # L32 from L32 . U22 = A32 - L31 . U12
    H_l = BlackboxRHS(C=Mat(ctx, A[r3, r2]),
                      A=Mat(ctx, M[r3, r1]), B=Mat(ctx, M[r1, r2]))
    with stage("trsmec_upper_right", quarter) as strip:
        _correction_loop(Mat(ctx, M[r3, r2]), H_l, U.sub(n1, n2), quarter,
                         strip)
    rep.add_child(strip.shift(n1 + n2, n1))
    _crout_ec(L, U, A, n1 + n2, nrest - n2, quarter, rep)


def _node_check(L, U, A, n1, ns, params):
    """Freivalds check of the node on n1..n1+ns-1, as a freivalds_lu leaf.

    By the elimination order the prefix columns are final, so the node is
    right when L_s . U_s = B_s = A_s - M[s, :n1] . M[:n1, s] and U_s has a
    nonzero diagonal, which determines both factors uniquely.  The check
    compares W . B_s with (W . L_s) . U_s for lam random rows W in the base
    field, so a wrong node passes with probability at most q^-lam, the
    leaf's epsilon.  The leaf is verified when the check passes; a zero on
    U_s's diagonal always fails it, so the zero pivot is met below.
    """
    ctx, M = L.ctx, L.a
    with stage("freivalds_lu", params) as rep:
        lam = freivalds_lambda(ctx.q, ns, params.eps)
        s = slice(n1, n1 + ns)
        W = ctx.rand(params.rng, (lam, ns))
        WB = ctx.sub(ctx.matmul(W, A[s, s]),
                     ctx.matmul(ctx.matmul(W, M[s, :n1]), M[:n1, s]))
        Us = U.sub(n1, ns)
        rep.verified = bool(Us.a.diagonal().all() and np.array_equal(
            Us.mul_right(L.sub(n1, ns).mul_right(W)), WB))
        rep.epsilon, rep.rounds, rep.lam = float(ctx.q) ** -lam, 1, lam
    return rep


def _dense_block(ctx, M, A, n1, ns, params, parent):
    """Deterministic check of a small diagonal block; recomputes it if wrong.

    By the elimination order every column left of n1 is already final, so
    B = A - (L prefix).(U prefix) restricted to the block is exact, and
    L_b . U_b = B with a nonzero U_b diagonal determines both factors
    uniquely.  A failed block is refactored from that same B by
    _factor_leaf; the leaf joins parent even when a zero pivot raises,
    reporting the entries that changed as one correcting round.
    """
    with stage("dense_block", params) as rep:
        rep.rounds, rep.verified, rep.dense_verified = 1, True, True
        s = slice(n1, n1 + ns)
        Ms, before = M[s, s], M[s, s].copy()
        B = ctx.sub(A[s, s], ctx.matmul(M[s, :n1], M[:n1, s]))
        LU = ctx.matmul(np.tril(Ms, -1) + np.eye(ns, dtype=np.int64),
                        np.triu(Ms))
        try:
            if not (Ms.diagonal().all() and np.array_equal(LU, B)):
                rep.correcting_rounds = 1
                _factor_leaf(ctx, Ms, B, n1)
        finally:
            rep.positions = list(map(tuple,
                                     np.argwhere(Ms != before).tolist()))
            rep.corrected = len(rep.shift(n1, n1).positions)
            parent.add_child(rep)


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
    with stage("rect_ec", params) as rep:
        _, sub = crout_ec(packed, A.view(0, 0, m, m),
                          params.child(params.eps / 2))
        rep.add_child(sub)
        if n > m:
            rep.add_child(trsm_ec_lower_left(
                U2, BlackboxRHS(C=A.view(0, m, m, n - m)), packed.lower_tri(),
                params.child(params.eps / 2)).shift(0, m))
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
    with stage("rank_deficient_ec", params) as rep:
        # one m-by-n buffer: L below the diagonal, U on and above it, zero
        # past r_hat; the leading d-by-d block is the packed candidate of
        # crout_ec
        M = np.zeros((m, n), dtype=np.int64)
        M[:r_hat] = np.triu(U_cand.a[:m])
        M[:, :r_hat] += np.tril(L_cand.a[:, :n], -1)
        ctx.canonical(M, in_place=True)
        A = Mat(ctx, ctx.canonical(A.a))
        try:
            _, sub = crout_ec(PackedLU(Mat(ctx, M[:d, :d])),
                              A.view(0, 0, d, d), params.child(params.eps / 3))
            r = d
        except GrpViolation as stop:
            r, sub = stop.index, stop.report
        rep.add_child(sub)

        # the U strip right of r and the L strip below it, corrected in place
        if n > r:
            rep.add_child(trsm_ec_lower_left(
                Mat(ctx, M[:r, r:]), BlackboxRHS(C=A.view(0, r, r, n - r)),
                Tri(Mat(ctx, M[:r, :r]), "lower", unit=True),
                params.child(params.eps / 3)).shift(0, r))
        if m > r:
            rep.add_child(trsm_ec_upper_right(
                Mat(ctx, M[r:, :r]), BlackboxRHS(C=A.view(r, 0, m - r, r)),
                Tri(Mat(ctx, M[:r, :r]), "upper"),
                params.child(params.eps / 3)).shift(r, 0))
    L = np.tril(M[:, :r], -1) + np.eye(m, r, dtype=np.int64)
    return r, Mat(ctx, L), Mat(ctx, np.triu(M[:r])), rep


def make_grp_instance(ctx, n, rng, rank=None):
    """Random GRP matrix built from its own factorization certificate.

    Returns (A, L0, U0): L0 unit lower m-by-rank, U0 upper rank-by-n with
    nonzero diagonal, A = L0.U0.  Leading principal minors up to the rank
    are products of U0's diagonal, hence nonzero.
    """
    m, n_ = n if isinstance(n, tuple) else (n, n)
    r = min(m, n_) if rank is None else rank
    L = np.tril(ctx.rand(rng, (m, r)), -1)
    np.fill_diagonal(L[:r, :r], 1)
    U = np.triu(ctx.rand(rng, (r, n_)))
    diag = ctx.rand_nonzero(rng, (r,))
    U[np.arange(r), np.arange(r)] = diag
    A = Mat(ctx, ctx.matmul(L, U))
    return A, Mat(ctx, L), Mat(ctx, U)
