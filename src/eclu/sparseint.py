"""Batched sparse recovery from Vandermonde projections.

A column e with at most s nonzeros (at row indices below m) is recovered
from its 2s evaluations g_i = sum_j e_j * theta^(i*j):

 1. Berlekamp-Massey finds the minimal linear recurrence of the sequence,
    whose characteristic polynomial has the term locations theta^j as roots.
 2. Roots are located by scanning the precomputed powers theta^0..theta^(m-1)
    (Chien-style, O(m*s) per column); the index of a root is its position
    in the table.
 3. Values come from Forney's formula (Forney, IEEE Trans. Inf. Theory
    1965), v = -b w(1/b) / c'(1/b) for each root b, with c the connection
    polynomial and w = c times the first s' evaluations mod z^s'; O(s'^2)
    per column, and no root is inverted.
 4. The candidate is re-checked against all 2s evaluations before being
    accepted; any inconsistency yields an explicit failure marker.

Columns that are denser than s may be returned as failures or as wrong
columns; callers are expected to re-verify externally.
"""

from dataclasses import dataclass

import numpy as np

from . import ff
from .blackbox import BlackboxRHS


@dataclass
class SparseColumn:
    """Strictly increasing row indices paired with nonzero values."""
    indices: list
    values: list


FAILED = None  # a column with no consistent sparse candidate


def berlekamp_massey(ctx, seq):
    """Minimal LFSR for seq over ctx (Massey, IEEE Trans. Inf. Theory 1969).

    Returns coefficients c[0..L] (c[0] = 1) with
    sum_i c[i] * seq[n - i] = 0 for all n >= L, together with L.
    """
    C, B = [1], [1]  # current connection polynomial, and the last one
    L, shift, b = 0, 1, 1  # B was current shift steps ago, discrepancy b
    for i in range(len(seq)):
        d = seq[i]
        for j in range(1, L + 1):
            d = ctx.sadd(d, ctx.smul(C[j], seq[i - j]))
        if d == 0:
            shift += 1
            continue
        # T = C - (d / b) z^shift B
        coef = ctx.smul(d, ctx.sinv(b))
        T = C + [0] * (len(B) + shift - len(C))
        for j, x in enumerate(B):
            T[j + shift] = ctx.ssub(T[j + shift], ctx.smul(coef, x))
        if 2 * L <= i:
            L, B, b, shift = i + 1 - L, C, d, 1
        else:
            shift += 1
        C = T
    return C, L


def _locator_roots(ctx, conn, L, tab):
    """Root positions of the characteristic polynomial among tab's powers.

    conn is the connection polynomial (c[0]=1); the characteristic polynomial
    is z^L + c[1] z^(L-1) + ... + c[L], whose roots are the term locations.
    Returns index list j (< m) or None if the root count is off.
    """
    # evaluate at every stored power with a vectorized Horner sweep
    vals = np.full(tab.m, conn[0], dtype=np.int64)
    x = tab.powers
    for i in range(1, L + 1):
        vals = ctx.add(ctx.mul(vals, x), np.int64(conn[i]))
    hits = np.nonzero(vals == 0)[0]
    return [int(j) for j in hits] if len(hits) == L else None


def _term_values(ctx, evals, roots_b, conn, L):
    """Solve sum_t v_t * b_t^i = evals[i] for i < L by Forney's formula:
    v = -b w(1/b) / c'(1/b), c = conn and w = evals . c mod z^L.  w and c'
    have degree below L; reversed at degree L - 1, v = -b w~(b) / c'~(b)."""
    w = [0] * L
    for k in range(L):
        for j in range(k + 1):
            w[k] = ctx.sadd(w[k], ctx.smul(conn[j], evals[k - j]))
    # -c' by its z^k coefficients -(k + 1) conn[k + 1]; Horner from k = 0
    # evaluates the reversal of both
    dc = [ctx.smul((-k - 1) % ctx.p, conn[k + 1]) for k in range(L)]
    values = []
    for b in roots_b:
        num = den = 0
        for k in range(L):
            num = ctx.sadd(ctx.smul(num, b), w[k])
            den = ctx.sadd(ctx.smul(den, b), dc[k])
        values.append(ctx.smul(ctx.smul(b, num), ctx.sinv(den)))
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
    if any(v == 0 for v in values):
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
    return SparseColumn(hits, values)


def batch_interpolate(ctx, G, s, tab):
    """Columnwise recovery over ctx of S with V.S = G; G is 2s-by-c.

    G is as apply_vandermonde returns it: the digit planes over ctx when
    theta's field tab.ctx extends ctx, interpolated in tab.ctx.  Returns one
    SparseColumn with values in ctx, or FAILED, per column; a column with a
    value outside ctx is FAILED.
    """
    big = tab.ctx
    if big != ctx:
        G = big.pack(G)
    out = []
    for j in range(G.shape[1]):
        col = interpolate_column(big, G[:, j], s, tab)
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

    M is an m-row array or a BlackboxRHS, which projects V by its own
    project_left.  When theta's field tab.ctx extends ctx, V.M is returned
    as its digit planes [V_0.M; ...; V_{nu-1}.M] over ctx.
    """
    box = isinstance(M, BlackboxRHS)
    m = M.rows if box else M.shape[0]
    if m > tab.m:
        raise ValueError("row dimension exceeds the power table")
    V = vandermonde_cols(tab.ctx, tab, nrows, np.arange(m))
    if tab.ctx != ctx:
        V = tab.ctx.planes(V)
    return M.project_left(V).a if box else ctx.matmul(V, M)
