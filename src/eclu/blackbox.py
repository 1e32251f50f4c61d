"""Unevaluated right-hand sides of the form C - A.B (or +A.B).

The product term is never formed; only left projections W.H and
column-selected projections V.H.P are computed, which keeps the cost
proportional to the sizes of the factors rather than of H itself.
"""

import numpy as np

from .mat import DimensionError, Mat, check_fields


class BlackboxRHS:
    """H = C + sign * A.B with any of the terms optional.

    C is m-by-n; A is m-by-ell and B is ell-by-n (ell = 0 or missing factors
    mean H = C).  sign is -1 for the usual C - A.B form, +1 for a plain
    product right-hand side.
    """

    __slots__ = ("ctx", "C", "A", "B", "sign", "rows", "cols")

    def __init__(self, C=None, A=None, B=None, sign=-1):
        if (A is None) != (B is None):
            raise DimensionError("A and B must be given together")
        if C is None and A is None:
            raise DimensionError("empty blackbox")
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.C = C
        self.A = A
        self.B = B
        self.sign = sign
        if A is not None and A.cols != B.rows:
            raise DimensionError("inner dimensions of the product term disagree")
        shapes = []
        if C is not None:
            shapes.append(C.shape)
        if A is not None:
            shapes.append((A.rows, B.cols))
        if len(shapes) == 2 and shapes[0] != shapes[1]:
            raise DimensionError("C and A.B have different shapes")
        self.rows, self.cols = shapes[0]
        self.ctx = C.ctx if C is not None else A.ctx
        check_fields(*(x for x in (C, A, B) if x is not None))

    @property
    def inner(self):
        return 0 if self.A is None else self.A.cols

    @property
    def T(self):
        """Transposed blackbox: H^T = C^T + sign * B^T A^T."""
        t = BlackboxRHS.__new__(BlackboxRHS)
        t.C = None if self.C is None else self.C.T
        t.A = None if self.B is None else self.B.T
        t.B = None if self.A is None else self.A.T
        t.sign = self.sign
        t.ctx = self.ctx
        t.rows, t.cols = self.cols, self.rows
        return t

    def project_left(self, W):
        """W.H computed as W.C + sign * (W.A).B, without forming A.B."""
        Wa = W.a if isinstance(W, Mat) else W
        if Wa.shape[1] != self.rows:
            raise DimensionError("projector has %d cols, blackbox has %d rows"
                                 % (Wa.shape[1], self.rows))
        ctx = self.ctx
        acc = None
        if self.C is not None:
            acc = ctx.matmul(Wa, self.C.a)
        if self.A is not None:
            prod = ctx.matmul(ctx.matmul(Wa, self.A.a), self.B.a)
            if self.sign < 0:
                acc = ctx.neg(prod) if acc is None else ctx.sub(acc, prod)
            else:
                acc = prod if acc is None else ctx.add(acc, prod)
        return Mat(ctx, acc)

    def select_cols(self, J):
        """The blackbox H.P = C.P + sign * A.(B.P)."""
        J = np.asarray(J, dtype=np.intp)
        C = None if self.C is None else Mat(self.ctx, self.C.a[:, J])
        B = None if self.B is None else Mat(self.ctx, self.B.a[:, J])
        return BlackboxRHS(C=C, A=self.A, B=B, sign=self.sign)

    def dense(self):
        """Materialize H, as a dense solve against it needs."""
        ctx = self.ctx
        acc = np.zeros((self.rows, self.cols), dtype=np.int64)
        if self.C is not None:
            acc = self.C.a.copy()
        if self.A is not None:
            prod = ctx.matmul(self.A.a, self.B.a)
            acc = ctx.sub(acc, prod) if self.sign < 0 else ctx.add(acc, prod)
        return Mat(ctx, acc)

    def canonical(self):
        """The same right-hand side over operands with codes in [0, q).

        An out-of-range operand is replaced by a reduced copy; the caller's
        arrays are never written.
        """
        def red(M):
            return None if M is None else Mat(self.ctx, self.ctx.canonical(M.a))

        return BlackboxRHS(C=red(self.C), A=red(self.A), B=red(self.B),
                           sign=self.sign)

    def lift(self, big, base):
        """The same right-hand side read in big, a field that extend_field
        built over base, where base codes are big codes."""
        def up(M):
            return None if M is None else Mat(big, M.a)

        return BlackboxRHS(C=up(self.C), A=up(self.A), B=up(self.B),
                           sign=self.sign)
