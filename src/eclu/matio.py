"""Matrix text format shared between the library and the CLI harness.

Header line 1: ``field <p> <nu>``
Header line 2: ``dense <m> <n>`` followed by m whitespace-separated rows, or
``sparse <m> <n> <k>`` followed by k lines ``<row> <col> <value>``
(0-indexed).  Extension-field elements are serialized as comma-joined
coefficient digits ``c0,c1,...``.
"""

import numpy as np

from .ff import make_ext_field
from .mat import Mat


def _fmt(ctx, code):
    if ctx.nu == 1:
        return str(int(code))
    return ",".join(str(c) for c in ctx.coeffs(code))


def _parse_elem(ctx, token):
    if ctx.nu == 1:
        v = int(token)
        if not 0 <= v < ctx.p:
            raise ValueError("element %d out of range for GF(%d)" % (v, ctx.p))
        return v
    digits = [int(t) for t in token.split(",")]
    if len(digits) != ctx.nu or any(not 0 <= d < ctx.p for d in digits):
        raise ValueError("bad extension element %r" % token)
    return ctx.code(digits)


def write_matrix(path, M, sparse=None):
    from .mat import nnz
    ctx = M.ctx
    m, n = M.shape
    if sparse is None:
        sparse = m * n > 0 and nnz(M) * 3 < m * n
    with open(path, "w") as fh:
        fh.write("field %d %d\n" % (ctx.p, ctx.nu))
        if sparse:
            rows, cols = np.nonzero(M.a)
            fh.write("sparse %d %d %d\n" % (m, n, len(rows)))
            for r, c in zip(rows, cols):
                fh.write("%d %d %s\n" % (r, c, _fmt(ctx, M.a[r, c])))
        else:
            fh.write("dense %d %d\n" % (m, n))
            for r in range(m):
                fh.write(" ".join(_fmt(ctx, v) for v in M.a[r]) + "\n")


def read_matrix(path):
    with open(path) as fh:
        tokens = fh.read().split("\n")
    lines = [ln.strip() for ln in tokens if ln.strip()]
    head = lines[0].split()
    if head[0] != "field" or len(head) != 3:
        raise ValueError("%s: missing field header" % path)
    p, nu = int(head[1]), int(head[2])
    ctx = make_ext_field(p, nu)
    shape = lines[1].split()
    if shape[0] == "dense":
        m, n = int(shape[1]), int(shape[2])
        a = np.zeros((m, n), dtype=np.int64)
        for r in range(m):
            toks = lines[2 + r].split()
            if len(toks) != n:
                raise ValueError("%s: row %d has %d entries, expected %d"
                                 % (path, r, len(toks), n))
            for c, tok in enumerate(toks):
                a[r, c] = _parse_elem(ctx, tok)
        return Mat(ctx, a)
    if shape[0] == "sparse":
        m, n, k = int(shape[1]), int(shape[2]), int(shape[3])
        a = np.zeros((m, n), dtype=np.int64)
        for i in range(k):
            r, c, tok = lines[2 + i].split()
            a[int(r), int(c)] = _parse_elem(ctx, tok)
        return Mat(ctx, a)
    raise ValueError("%s: unknown layout %r" % (path, shape[0]))
