"""Benchmark inputs and exact checks, made with numpy alone.

Nothing here imports eclu: the instances, the injected errors and the
products that check eclu's outputs must not move when eclu's own
generators or kernels change.
"""

import numpy as np

# operand split for the exact product: residues below 2^31 are split into
# 16-bit halves, so each partial product is below 2^32 and a sum of up to
# 2^21 of them stays below 2^53, where float64 arithmetic is exact
_SPLIT = 16
_MAX_P = 1 << 31
_MAX_INNER = 1 << 21
_ROW_BLOCK = 256


def modmul(A, B, p):
    """Exact (A @ B) mod p for residue matrices, p < 2^31.

    The four half-word products are formed as one float64 BLAS product of
    stacked operands; numpy's int64 matmul has no BLAS path and is an order
    of magnitude slower at the sizes the benchmark uses.
    """
    if not 2 <= p < _MAX_P:
        raise ValueError("modulus %d outside [2, 2^31)" % p)
    m, ell = A.shape
    if B.shape[0] != ell:
        raise ValueError("inner dimensions %d and %d disagree"
                         % (ell, B.shape[0]))
    if ell > _MAX_INNER:
        raise ValueError("inner dimension %d too large for exact float64"
                         % ell)
    n = B.shape[1]
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    for M in (A, B):
        if M.size and (M.min() < 0 or M.max() >= p):
            raise ValueError("operand entries must be residues in [0, p)")
    mask = (1 << _SPLIT) - 1
    Bs = np.hstack([B >> _SPLIT, B & mask]).astype(np.float64)
    out = np.empty((m, n), dtype=np.int64)
    # row blocks keep the float64 temporaries small
    for r in range(0, m, _ROW_BLOCK):
        Ar = A[r:r + _ROW_BLOCK]
        h = Ar.shape[0]
        P = (np.vstack([Ar >> _SPLIT, Ar & mask]).astype(np.float64)
             @ Bs).astype(np.int64)
        hh, hl = P[:h, :n], P[:h, n:]
        lh, ll = P[h:, :n], P[h:, n:]
        acc = ((hh % p) << _SPLIT) + hl % p + lh % p
        out[r:r + h] = (((acc % p) << _SPLIT) + ll % p) % p
    return out


def upper_inverse(U, p):
    """Inverse mod p of an upper-triangular U with a nonzero diagonal.

    Block recursion: inv([[A, B], [0, D]]) = [[Ai, -Ai B Di], [0, Di]].
    """
    n = U.shape[0]
    if n == 1:
        return np.array([[pow(int(U[0, 0]), p - 2, p)]], dtype=np.int64)
    h = n // 2
    Ai = upper_inverse(U[:h, :h], p)
    Di = upper_inverse(U[h:, h:], p)
    out = np.zeros((n, n), dtype=np.int64)
    out[:h, :h] = Ai
    out[h:, h:] = Di
    out[:h, h:] = (-modmul(modmul(Ai, U[:h, h:], p), Di, p)) % p
    return out


def random_lu(rng, n, p):
    """Unit lower L and upper U with a nonzero diagonal, and A = L.U.

    Every leading minor of A is a product of U's diagonal, so A has generic
    rank profile and (L, U) is its only LU factorization with unit L.
    """
    L = np.tril(rng.integers(0, p, size=(n, n), dtype=np.int64), -1)
    np.fill_diagonal(L, 1)
    U = np.triu(rng.integers(0, p, size=(n, n), dtype=np.int64))
    U[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n,
                                                 dtype=np.int64)
    return L, U, modmul(L, U, p)


def pack(L, U):
    """L strictly below the diagonal, U on and above it, in one buffer."""
    return np.tril(L, -1) + np.triu(U)


def inject(rng, mats, k, p):
    """Shift k distinct positions, drawn over all entries of `mats`, by
    nonzero deltas mod p.  Returns corrupted copies; inputs are untouched.
    """
    sizes = [M.size for M in mats]
    flat = rng.choice(sum(sizes), size=k, replace=False)
    deltas = rng.integers(1, p, size=k, dtype=np.int64)
    out = [M.copy() for M in mats]
    bounds = np.cumsum(sizes)
    for pos, d in zip(flat, deltas):
        i = int(np.searchsorted(bounds, pos, side="right"))
        off = int(pos) - (int(bounds[i - 1]) if i else 0)
        r, c = divmod(off, mats[i].shape[1])
        out[i][r, c] = (out[i][r, c] + d) % p
    return out
