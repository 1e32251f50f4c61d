"""Batched sparse recovery from Vandermonde projections.

A column e with at most s nonzeros (at row indices below m) is recovered
from its 2s evaluations g_i = sum_j e_j * theta^(i*j):

 1. Berlekamp-Massey finds the minimal linear recurrence of the sequence,
    whose characteristic polynomial has the term locations theta^j as roots.
 2. Roots are located by scanning the precomputed powers theta^0..theta^(m-1)
    (Chien-style, O(m*s) per column); the index of a root is its position
    in the table.
 3. Values come from the transposed-Vandermonde system on the first s'
    evaluations, solved in O(s'^2) by synthetic division against the locator.
 4. The candidate is re-checked against all 2s evaluations before being
    accepted; any inconsistency yields an explicit failure marker.

Columns that are denser than s may be returned as failures or as wrong
columns; callers are expected to re-verify externally.
"""

from dataclasses import dataclass

import numpy as np

from . import ff
from .blackbox import BlackboxRHS
from .mat import Mat


@dataclass
class SparseColumn:
    """Strictly increasing row indices paired with nonzero values."""
    indices: list
    values: list


FAILED = None  # a column with no consistent sparse candidate


def berlekamp_massey(ctx, seq):
    """Minimal LFSR for seq over ctx.

    Returns coefficients c[0..L] (c[0] = 1) with
    sum_i c[i] * seq[n - i] = 0 for all n >= L, together with L.
    """
    n = len(seq)
    C = [1]
    B = [1]
    L = 0
    m = 1
    b = 1
    for i in range(n):
        # discrepancy
        d = seq[i]
        for j in range(1, L + 1):
            if j < len(C) and C[j]:
                d = ctx.sadd(d, ctx.smul(C[j], seq[i - j]))
        if d == 0:
            m += 1
            continue
        coef = ctx.smul(d, ctx.sinv(b))
        if 2 * L <= i:
            T = list(C)
            if len(C) < len(B) + m:
                C = C + [0] * (len(B) + m - len(C))
            for j in range(len(B)):
                C[j + m] = ctx.ssub(C[j + m], ctx.smul(coef, B[j]))
            L = i + 1 - L
            B = T
            b = d
            m = 1
        else:
            if len(C) < len(B) + m:
                C = C + [0] * (len(B) + m - len(C))
            for j in range(len(B)):
                C[j + m] = ctx.ssub(C[j + m], ctx.smul(coef, B[j]))
            m += 1
    return C[:L + 1] + [0] * (L + 1 - len(C)), L


def _locator_roots(ctx, conn, L, tab):
    """Root positions of the characteristic polynomial among tab's powers.

    conn is the connection polynomial (c[0]=1); the characteristic polynomial
    is z^L + c[1] z^(L-1) + ... + c[L], whose roots are the term locations.
    Returns index list j (< m) or None if the root count is off.
    """
    coeffs = list(conn) + [0] * (L + 1 - len(conn))
    # evaluate at every stored power with a vectorized Horner sweep
    vals = np.full(tab.m, coeffs[0], dtype=np.int64)
    x = tab.powers
    for i in range(1, L + 1):
        vals = ctx.add(ctx.mul(vals, x), np.int64(coeffs[i]))
    hits = np.nonzero(vals == 0)[0]
    if len(hits) != L:
        return None
    return [int(j) for j in hits]


def _term_values(ctx, evals, roots_b, conn, L):
    """Solve sum_t v_t * b_t^i = evals[i] for i < L via synthetic division."""
    char = [1] + [conn[i] if i < len(conn) else 0 for i in range(1, L + 1)]
    values = []
    for b in roots_b:
        # q(z) = char(z) / (z - b); Horner-style synthetic division
        q = [0] * L
        acc = char[0]
        for i in range(L):
            q[i] = acc
            acc = ctx.sadd(char[i + 1], ctx.smul(acc, b))
        # q coefficients are high-degree first: q[i] is the coeff of z^(L-1-i)
        num = 0
        den = 0
        bp = 1
        for i in range(L):
            num = ctx.sadd(num, ctx.smul(q[L - 1 - i], evals[i]))
            den = ctx.sadd(den, ctx.smul(q[L - 1 - i], bp))
            bp = ctx.smul(bp, b)
        if den == 0:
            return None
        values.append(ctx.smul(num, ctx.sinv(den)))
    return values


def interpolate_column(ctx, evals, s, tab):
    """Recover a column with <= s nonzeros from its 2s evaluations.

    Returns a SparseColumn, or FAILED when no consistent sparse candidate
    exists (recurrence too long, missing locator roots, zero values, or the
    2s-point re-check fails).
    """
    evals = [int(v) for v in evals]
    if not any(evals):
        return SparseColumn([], [])
    conn, L = berlekamp_massey(ctx, evals)
    if L == 0 or L > s:
        return FAILED
    hits = _locator_roots(ctx, conn, L, tab)
    if hits is None:
        return FAILED
    roots_b = [int(tab.powers[j]) for j in hits]
    values = _term_values(ctx, evals, roots_b, conn, L)
    if values is None or any(v == 0 for v in values):
        return FAILED
    # re-verify against every available evaluation before accepting
    cur = list(values)
    for i in range(len(evals)):
        tot = 0
        for t in range(L):
            tot = ctx.sadd(tot, cur[t])
        if tot != evals[i]:
            return FAILED
        for t in range(L):
            cur[t] = ctx.smul(cur[t], roots_b[t])
    pairs = sorted(zip(hits, values))
    return SparseColumn([j for j, _ in pairs], [v for _, v in pairs])


def batch_interpolate(ctx, G, s, tab):
    """Columnwise recovery over ctx of S with V.S = G; G is 2s-by-c.

    G is as apply_vandermonde returns it: the digit planes over ctx when
    theta's field tab.ctx extends ctx, interpolated in tab.ctx.  Returns one
    SparseColumn with values in ctx, or FAILED, per column; a column with a
    value outside ctx is FAILED.
    """
    big = tab.ctx
    Ga = G.a if isinstance(G, Mat) else G
    if big != ctx:
        Ga = big.pack(Ga)
    out = []
    for j in range(Ga.shape[1]):
        col = interpolate_column(big, Ga[:, j], s, tab)
        if col is not FAILED and big != ctx:
            try:
                col.values = ff.coerce_down(
                    ctx, big, np.array(col.values)).tolist()
            except ff.FieldError:
                col = FAILED
        out.append(col)
    return out


def vandermonde_cols(ctx, tab, nrows, cols):
    """Columns cols of the Vandermonde projector V, nrows rows.

    out[i, t] = theta^(i * cols[t]); row i is row i-1 times theta^cols,
    one elementwise field product per row.
    """
    x = tab.powers[cols]
    out = np.empty((nrows, len(x)), dtype=np.int64)
    if nrows:
        out[0] = 1
    for i in range(1, nrows):
        out[i] = ctx.mul(out[i - 1], x)
    return out


def apply_vandermonde(ctx, tab, nrows, M):
    """(theta^(i*j))_{i<nrows, j<m} applied to M, over M's field ctx.

    M is an array, a Mat (the result is then a Mat) or a BlackboxRHS,
    which projects V by its own project_left.  When theta's field tab.ctx
    extends ctx, V.M is returned as its digit planes [V_0.M; ...;
    V_{nu-1}.M] over ctx.  For an array or a Mat only the columns of V
    that meet a nonzero row of M are built, and the product is one matmul
    over ctx on those rows, so the cost tracks the number of nonzero rows.
    """
    box = isinstance(M, BlackboxRHS)
    Ma = M.a if isinstance(M, Mat) else M
    m = M.rows if box else Ma.shape[0]
    if m > tab.m:
        raise ValueError("row dimension exceeds the power table")
    live = np.arange(m) if box else np.nonzero(Ma.any(axis=1))[0]
    V = vandermonde_cols(tab.ctx, tab, nrows, live)
    if tab.ctx != ctx:
        V = tab.ctx.planes(V)
    if box:
        return M.project_left(V).a
    out = ctx.matmul(V, Ma if len(live) == m else Ma[live])
    return Mat(ctx, out) if isinstance(M, Mat) else out
