"""Dense matrices over a field context.

A Mat is a thin wrapper over a numpy int64 array of field codes plus the
owning FieldCtx; slicing produces aliasing views, so block algorithms work
in place without copies.  Triangular operands are wrapped in Tri, which
masks the opposite triangle (needed when L and U share one packed buffer).
Tri.mul_right multiplies by column panels, masking only a copy of each
panel's small diagonal block and reading the rest of the triangle as a
view, so no dense copy of the triangle is made.

A triangular solve halves the triangle down to diagonal base blocks of at
most _TRSM_BASE rows and solves against each as one kernel product with
the block's inverse.  That inverse is built from the inverses of the
block's two halves by two kernel products, down to leaves of at most
_BLOCK_CHECK rows (the Crout leaf), which are inverted by repeated
squaring.  A Tri stores the inverses it builds, halves included, keyed by
kind, absolute offset and size, for as long as it lives, and its
sub-triangles and transposes share that store, so a block whose halves a
Crout level has already solved against costs two products; a block
missing under one kind is read as the transpose of the other's entry.  A
stored inverse is never rebuilt, so a sub-triangle may only be solved
against once its block is final: crout_ec and crout_reference solve
against a diagonal block only after that block's subtree has returned, and
nothing writes into it afterwards (node checks only multiply by
sub-triangles and Crout leaves only eliminate, neither reads an inverse).
The pipelines and wrappers after crout_ec solve against its root
triangles, stores included, rank_deficient_ec even past a zero pivot;
every other Tri starts an empty store.
"""

import numpy as np


class DimensionError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


class Mat:
    __slots__ = ("ctx", "a")

    def __init__(self, ctx, a):
        self.ctx = ctx
        self.a = np.asarray(a, dtype=np.int64)
        if self.a.ndim != 2:
            raise DimensionError("matrix must be 2-dimensional")

    @classmethod
    def zeros(cls, ctx, m, n):
        return cls(ctx, np.zeros((m, n), dtype=np.int64))

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, np.eye(n, dtype=np.int64))

    @classmethod
    def random(cls, ctx, m, n, rng):
        return cls(ctx, ctx.rand(rng, (m, n)))

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def view(self, r0, c0, m, n):
        """Aliasing block view."""
        if r0 < 0 or c0 < 0 or r0 + m > self.rows or c0 + n > self.cols:
            raise DimensionError("view out of bounds")
        return Mat(self.ctx, self.a[r0:r0 + m, c0:c0 + n])

    @property
    def T(self):
        return Mat(self.ctx, self.a.T)

    def copy(self):
        return Mat(self.ctx, self.a.copy())

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.ctx == other.ctx
                and self.a.shape == other.a.shape
                and bool(np.array_equal(self.a, other.a)))

    def __repr__(self):
        return "Mat(%r, %r)" % (self.ctx, self.a.tolist())


def check_fields(*ops):
    """Raise DimensionError unless all ops (each with a ctx) share a field."""
    if any(op.ctx != ops[0].ctx for op in ops[1:]):
        raise DimensionError("operands live in different fields")


def multiply(A, B):
    """Exact product A.B over the operands' field."""
    if A.cols != B.rows:
        raise DimensionError("inner dimensions %d and %d disagree"
                             % (A.cols, B.rows))
    check_fields(A, B)
    return Mat(A.ctx, A.ctx.matmul(A.a, B.a))


def nnz(M):
    a = M.a if isinstance(M, Mat) else M
    return int(np.count_nonzero(a))


class Tri:
    """Triangular operand over a (possibly shared) square Mat's buffer.

    kind is "upper" or "lower"; with unit=True the diagonal is implicitly 1
    and stored diagonal entries are never read.  Only the entries of the
    declared triangle are ever accessed, so a Tri can safely view one half
    of a packed L\\U buffer.
    """

    __slots__ = ("ctx", "a", "kind", "unit", "_inv", "_off")

    def __init__(self, mat, kind, unit=False):
        if mat.rows != mat.cols:
            raise DimensionError("triangular matrix must be square")
        if kind not in ("upper", "lower"):
            raise ValueError("kind must be 'upper' or 'lower'")
        self.ctx, self.a = mat.ctx, mat.a
        self.kind = kind
        self.unit = unit
        self._inv = {}
        self._off = 0

    def _like(self, ctx, a, kind, inv, off):
        t = Tri.__new__(Tri)
        t.ctx, t.a, t.kind, t.unit = ctx, a, kind, self.unit
        t._inv, t._off = inv, off
        return t

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def T(self):
        return self._like(self.ctx, self.a.T, _OTHER[self.kind], self._inv,
                          self._off)

    def sub(self, o, n):
        """The diagonal sub-triangle on indices o..o+n-1, sharing the store.

        Solve against it only once that block is final: a stored inverse
        is never rebuilt.
        """
        return self._like(self.ctx, self.a[o:o + n, o:o + n], self.kind,
                          self._inv, self._off + o)

    def check_invertible(self):
        if not self.unit and not self.a.diagonal().all():
            raise SingularMatrixError("zero on the diagonal")

    def dense(self):
        """Materialize as a full Mat (masking the other triangle)."""
        out = np.triu(self.a) if self.kind == "upper" else np.tril(self.a)
        if self.unit:
            np.fill_diagonal(out, 1)
        return Mat(self.ctx, out)

    def mul_right(self, Y):
        """Y.T as a plain array, by column panels of at most _PANEL.

        Panel j..k-1 is Y[:, j:k] times a masked copy of T's diagonal block
        plus the rest of Y times the panel's off-diagonal rectangle, read
        as a view, so no copy of the whole triangle is made.
        """
        ctx, a, n = self.ctx, self.a, self.n
        out = np.empty((Y.shape[0], n), dtype=np.int64)
        for j in range(0, n, _PANEL):
            k = min(j + _PANEL, n)
            blk = a[j:k, j:k]
            D = np.where(_STRICT[self.kind][:k - j, :k - j], blk, 0)
            np.fill_diagonal(D, 1 if self.unit else blk.diagonal())
            acc = ctx.matmul(Y[:, j:k], D)
            off = np.s_[:j] if self.kind == "upper" else np.s_[k:]
            if a[off, j:k].size:
                acc = ctx.add(acc, ctx.matmul(Y[:, off], a[off, j:k]))
            out[:, j:k] = acc
        return out

    def cols(self, J):
        """T restricted to columns J, other triangle masked out."""
        J = np.asarray(J, dtype=np.intp)
        out = self.a[:, J].copy()
        rows = np.arange(self.n)[:, None]
        if self.kind == "upper":
            out[rows > J[None, :]] = 0
        else:
            out[rows < J[None, :]] = 0
        if self.unit:
            out[J, np.arange(len(J))] = 1
        else:
            out[J, np.arange(len(J))] = np.diagonal(self.a)[J]
        return Mat(self.ctx, out)

    def solve_right(self, B):
        """In place: B <- B T^{-1} (rows of B solved against T)."""
        _solve_right(self, B.a if isinstance(B, Mat) else B)

    def solve_left(self, B):
        """In place: B <- T^{-1} B."""
        a = B.a if isinstance(B, Mat) else B
        _solve_right(self.T, a.T)

    def _block_inverse(self, o, b):
        """Inverse of the diagonal block on o..o+b-1, from the store.

        A block of more than _BLOCK_CHECK rows is built from the inverses
        X1, X2 of its halves, split at (b + 1) // 2 as _solve_rec splits,
        and fetched through the store: with T12 (T21) the off-diagonal
        block, an upper inverse is [[X1, -X1.T12.X2], [0, X2]] and a lower
        one [[X1, 0], [-X2.T21.X1, X2]], two kernel products.
        """
        key = (self.kind, self._off + o, b)
        inv = self._inv.get(key)
        if inv is not None:
            return inv
        inv = self._inv.get((_OTHER[self.kind], self._off + o, b))
        if inv is not None:  # built through the transpose
            return inv.T
        ctx, a = self.ctx, self.a
        if b <= _BLOCK_CHECK:
            inv = _inverse(ctx, a[o:o + b, o:o + b], self.kind, self.unit)
        else:
            h = (b + 1) // 2
            X1 = self._block_inverse(o, h)
            X2 = self._block_inverse(o + h, b - h)
            inv = np.zeros((b, b), dtype=np.int64)
            inv[:h, :h], inv[h:, h:] = X1, X2
            if self.kind == "upper":
                inv[:h, h:] = ctx.neg(ctx.matmul(
                    ctx.matmul(X1, a[o:o + h, o + h:o + b]), X2))
            else:
                inv[h:, :h] = ctx.neg(ctx.matmul(
                    ctx.matmul(X2, a[o + h:o + b, o:o + h]), X1))
        self._inv[key] = inv
        return inv


# Column panel width of Tri.mul_right.  Picked from a one-thread
# microbenchmark (OpenBLAS 0.3.31, numpy 2.4.6) of Y.T for Y with 2 and 8
# rows, T a transposed view of n = 256, 512 and 1024 over GF(7), GF(65537)
# and GF(2^31 - 1): widths 64 and 128 stay within 25% of each other, 256
# costs 20-70% more, and one product with a dense copy of T 1.5-10x more.
_PANEL = 128

# The identity and the masks of the strict triangles, read as their top
# left b-by-b corners for any block size b up to _PANEL: the panels'
# diagonal blocks and the leaves of at most _BLOCK_CHECK rows that _inverse
# inverts.
_EYE = np.eye(_PANEL, dtype=np.int64)
_STRICT = {"upper": np.triu(_EYE == 0), "lower": np.tril(_EYE == 0)}
_OTHER = {"upper": "lower", "lower": "upper"}
for _mask in (_EYE, *_STRICT.values()):
    _mask.flags.writeable = False

# Largest diagonal block solved as one product with its inverse.  Picked
# from a one-thread microbenchmark (OpenBLAS 0.3.31, numpy 2.4.6) of solves
# with 1, 2, 50 and n rows at n = 128, 384 and 1024 over GF(7), GF(65537)
# and GF(2^31 - 1), for bases 16 to 96: with the inverses stored, solves
# speed up until 32-48 and gain at most 15% beyond 48, while a solve that
# builds its inverses (a fresh Tri) costs least at 24-48 and 30-50% more
# at 64 and 96 for n = 1024.
_TRSM_BASE = 48

# Leaf size of both Crout recursions, largest block crout_ec checks densely,
# and largest diagonal block whose inverse _inverse builds directly.  From a
# one-thread sweep (OpenBLAS 0.3.31, numpy 2.4.6) of leaves 8..64 over
# crout_reference (n = 256..1024; GF(7), GF(65537), GF(2^31-1)) and crout_ec
# (GF(7), n = 128, k = 1639; GF(65537), n = 1024, k = 0, 256): 16..48 are
# within noise, 8 slows the reference 6-36% and 64 by 16-120%, except at
# 2^31 - 1.
_BLOCK_CHECK = 16


def _solve_right(T, B):
    """Blocked solve of X T = B, overwriting B with X."""
    n = T.n
    if B.shape[1] != n:
        raise DimensionError("right-hand side has %d cols, triangle is %d"
                             % (B.shape[1], n))
    T.check_invertible()
    if n and B.shape[0]:
        _solve_rec(T, 0, n, B)


def _solve_rec(T, o, n, B):
    """X T_oo = B for the diagonal block of T on o..o+n-1.

    Splits at (n + 1) // 2 as the Crout recursion does, so that the
    sub-triangles crout_ec takes, nodes of the same split tree, solve
    against their root's base blocks.
    """
    ctx, a = T.ctx, T.a
    if n <= _TRSM_BASE:
        B[...] = ctx.matmul(B, T._block_inverse(o, n))
        return
    h = (n + 1) // 2
    if T.kind == "upper":
        _solve_rec(T, o, h, B[:, :h])
        B[:, h:] = ctx.sub(B[:, h:],
                           ctx.matmul(B[:, :h], a[o:o + h, o + h:o + n]))
        _solve_rec(T, o + h, n - h, B[:, h:])
    else:
        _solve_rec(T, o + h, n - h, B[:, h:])
        B[:, :h] = ctx.sub(B[:, :h],
                           ctx.matmul(B[:, h:], a[o + h:o + n, o:o + h]))
        _solve_rec(T, o, h, B[:, :h])


def _inverse(ctx, a, kind, unit):
    """Inverse of the invertible b-by-b triangle a, through the kernel.

    With D the diagonal and N the strict triangle, a = (I + M) D where
    M = N D^-1 is nilpotent, so a^-1 = D^-1 (I - M)(I + M^2)(I + M^4)...:
    ceil(log2 b) - 1 squarings and as many products.  Tri._block_inverse
    calls it on its leaves, of at most _BLOCK_CHECK rows, and builds every
    larger block from its halves.
    """
    b = a.shape[0]
    d = None if unit else np.array([ctx.sinv(x) for x in a.diagonal()],
                                   dtype=np.int64)
    if b == 1:
        return np.ones((1, 1), dtype=np.int64) if unit else d.reshape(1, 1)
    eye, strict = _EYE[:b, :b], _STRICT[kind][:b, :b]
    M = np.where(strict, a, 0)
    if not unit:
        M = ctx.mul(M, d)
    inv = ctx.sub(eye, M)
    for _ in range((b - 1).bit_length() - 1):
        M = ctx.matmul(M, M)
        inv = ctx.matmul(inv, ctx.add(eye, M))
    return inv if unit else ctx.mul(d[:, None], inv)


class PackedLU:
    """Square buffer with L strictly below the diagonal and U on/above.

    L's unit diagonal is implicit.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        if mat.rows != mat.cols:
            raise DimensionError("packed LU must be square")
        self.mat = mat

    @classmethod
    def pack(cls, L, U):
        if L.shape != U.shape or L.rows != L.cols:
            raise DimensionError("L and U must be square of equal size")
        a = np.triu(U.a) + np.tril(L.a, -1)
        return cls(Mat(L.ctx, a))

    @property
    def n(self):
        return self.mat.rows

    @property
    def ctx(self):
        return self.mat.ctx

    def extract_L(self):
        n = self.n
        a = np.tril(self.mat.a, -1) + np.eye(n, dtype=np.int64)
        return Mat(self.ctx, a)

    def extract_U(self):
        return Mat(self.ctx, np.triu(self.mat.a))

    def rebuild(self):
        return multiply(self.extract_L(), self.extract_U())

    def lower_tri(self):
        return Tri(self.mat, "lower", unit=True)

    def upper_tri(self):
        return Tri(self.mat, "upper", unit=False)
