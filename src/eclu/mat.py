"""Dense matrices over a field context.

A Mat is a thin wrapper over a numpy int64 array of field codes plus the
owning FieldCtx; slicing produces aliasing views, so block algorithms work
in place without copies.  Triangular operands are wrapped in Tri, which
masks the opposite triangle (needed when L and U share one packed buffer).
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

    def multiply(self, other):
        return multiply(self, other)

    def add(self, other):
        return Mat(self.ctx, self.ctx.add(self.a, other.a))

    def sub(self, other):
        return Mat(self.ctx, self.ctx.sub(self.a, other.a))


def multiply(A, B):
    """Exact product A.B over the operands' field."""
    if A.cols != B.rows:
        raise DimensionError("inner dimensions %d and %d disagree"
                             % (A.cols, B.rows))
    if A.ctx != B.ctx:
        raise DimensionError("operands live in different fields")
    return Mat(A.ctx, A.ctx.matmul(A.a, B.a))


def nnz(M):
    a = M.a if isinstance(M, Mat) else M
    return int(np.count_nonzero(a))


def col_support(M):
    """Indices of columns holding at least one nonzero entry, ascending."""
    a = M.a if isinstance(M, Mat) else M
    return np.nonzero(a.any(axis=0))[0]


def select_cols(M, J):
    """Gather columns J (the action of the selection matrix on the right)."""
    return Mat(M.ctx, M.a[:, np.asarray(J, dtype=np.intp)].copy())


def select_rows_cols(T, J):
    """Principal submatrix on indices J; preserves triangularity."""
    J = np.asarray(J, dtype=np.intp)
    return Mat(T.ctx, T.a[np.ix_(J, J)].copy())


def scatter_cols(S, J, n):
    """Place the columns of S at indices J inside an m-by-n zero matrix."""
    J = np.asarray(J, dtype=np.intp)
    out = np.zeros((S.rows, n), dtype=np.int64)
    out[:, J] = S.a
    return Mat(S.ctx, out)


class Tri:
    """Triangular operand over a (possibly shared) square buffer.

    kind is "upper" or "lower"; with unit=True the diagonal is implicitly 1
    and stored diagonal entries are never read.  Only the entries of the
    declared triangle are ever accessed, so a Tri can safely view one half
    of a packed L\\U buffer.
    """

    __slots__ = ("ctx", "a", "kind", "unit")

    def __init__(self, mat, kind, unit=False):
        a = mat.a if isinstance(mat, Mat) else mat
        if a.shape[0] != a.shape[1]:
            raise DimensionError("triangular matrix must be square")
        if kind not in ("upper", "lower"):
            raise ValueError("kind must be 'upper' or 'lower'")
        self.ctx = mat.ctx if isinstance(mat, Mat) else None
        self.a = a
        self.kind = kind
        self.unit = unit

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def T(self):
        other = "lower" if self.kind == "upper" else "upper"
        t = Tri.__new__(Tri)
        t.ctx = self.ctx
        t.a = self.a.T
        t.kind = other
        t.unit = self.unit
        return t

    def with_ctx(self, ctx, a=None):
        t = Tri.__new__(Tri)
        t.ctx = ctx
        t.a = self.a if a is None else a
        t.kind = self.kind
        t.unit = self.unit
        return t

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
        """Y.T as a plain array (one multiply, other triangle masked)."""
        return self.ctx.matmul(Y, self.dense().a)

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

    def principal(self, J):
        """P^T T P as a concrete Tri on indices J (still triangular)."""
        J = np.asarray(J, dtype=np.intp)
        sub = self.a[np.ix_(J, J)].copy()
        c = len(J)
        idx = np.arange(c)
        if self.kind == "upper":
            sub[idx[:, None] > idx[None, :]] = 0
        else:
            sub[idx[:, None] < idx[None, :]] = 0
        if self.unit:
            sub[idx, idx] = 1
        m = Mat(self.ctx, sub)
        return Tri(m, self.kind, unit=False)

    def solve_right(self, B):
        """In place: B <- B T^{-1} (rows of B solved against T)."""
        _solve_right(self.ctx, self, B.a if isinstance(B, Mat) else B)

    def solve_left(self, B):
        """In place: B <- T^{-1} B."""
        a = B.a if isinstance(B, Mat) else B
        _solve_right(self.ctx, self.T, a.T)


_TRSM_BASE = 48


def _solve_right(ctx, T, B):
    """Recursive blocked solve of X T = B, overwriting B with X."""
    n = T.n
    if B.shape[1] != n:
        raise DimensionError("right-hand side has %d cols, triangle is %d"
                             % (B.shape[1], n))
    T.check_invertible()
    _solve_right_rec(ctx, T.a, T.kind, T.unit, B)


def _solve_right_rec(ctx, Ta, kind, unit, B):
    n = Ta.shape[0]
    if n == 0 or B.shape[0] == 0:
        return
    if n <= _TRSM_BASE:
        _solve_right_base(ctx, Ta, kind, unit, B)
        return
    h = n // 2
    if kind == "upper":
        _solve_right_rec(ctx, Ta[:h, :h], kind, unit, B[:, :h])
        B[:, h:] = ctx.sub(B[:, h:], ctx.matmul(B[:, :h], Ta[:h, h:]))
        _solve_right_rec(ctx, Ta[h:, h:], kind, unit, B[:, h:])
    else:
        _solve_right_rec(ctx, Ta[h:, h:], kind, unit, B[:, h:])
        B[:, :h] = ctx.sub(B[:, :h], ctx.matmul(B[:, h:], Ta[h:, :h]))
        _solve_right_rec(ctx, Ta[:h, :h], kind, unit, B[:, :h])


def _solve_right_base(ctx, Ta, kind, unit, B):
    n = Ta.shape[0]
    order = range(n) if kind == "upper" else range(n - 1, -1, -1)
    for j in order:
        if kind == "upper":
            if j:
                B[:, j] = ctx.sub(B[:, j],
                                  ctx.matmul(B[:, :j], Ta[:j, j:j + 1])[:, 0])
        else:
            if j < n - 1:
                B[:, j] = ctx.sub(B[:, j],
                                  ctx.matmul(B[:, j + 1:], Ta[j + 1:, j:j + 1])[:, 0])
        if not unit:
            d = int(Ta[j, j])
            if d == 0:
                raise SingularMatrixError("zero pivot at %d" % j)
            if d != 1:
                B[:, j] = ctx.mul(B[:, j], ctx.sinv(d))


def trsm(kind, side, T, B):
    """Triangular solve with matrix right-hand side, in place on B.

    kind: "upper"/"lower"; side: "left" (B <- T^{-1} B) or "right"
    (B <- B T^{-1}).  T may be a Tri (honoring an implicit unit diagonal)
    or a square Mat.
    """
    if not isinstance(T, Tri):
        T = Tri(T, kind)
    elif T.kind != kind:
        raise ValueError("Tri kind %r does not match requested %r"
                         % (T.kind, kind))
    if side == "right":
        T.solve_right(B)
    elif side == "left":
        T.solve_left(B)
    else:
        raise ValueError("side must be 'left' or 'right'")


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
