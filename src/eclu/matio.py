"""Matrix text format shared between the library and the CLI harness.

Header line 1: ``field <p> <nu>``
Header line 2: ``dense <m> <n>`` followed by m whitespace-separated rows, or
``sparse <m> <n> <k>`` followed by k lines ``<row> <col> <value>``
(0-indexed).  Extension-field elements are serialized as comma-joined
coefficient digits ``c0,c1,...``.

Both directions work on whole arrays: an element is its nu base-p digits,
written by one format string over the whole table and read by one
np.loadtxt over its lines.  Only the fields make_ext_field builds, GF(p)
and GF(p^nu) over GF(p), are read and written; the header cannot name an
extension built over another extension.
"""

import re

import numpy as np

from .ff import make_ext_field
from .mat import Mat, nnz


def _write_table(fh, ctx, lead, a):
    """One line per row: the ints of lead, then the elements of a's row."""
    m, n = a.shape
    elem = ",".join(["%d"] * ctx.nu)
    line = " ".join(["%d"] * lead.shape[1] + [elem] * n) + "\n"
    digits = a[..., None] // ctx.p ** np.arange(ctx.nu) % ctx.p  # low first
    table = np.concatenate((lead, digits.reshape(m, n * ctx.nu)), axis=1)
    fh.write(line * m % tuple(table.ravel().tolist()))


def _read_table(path, ctx, lines, lead, width):
    """(ints, codes) of lines that each hold lead ints and width elements."""
    nu = ctx.nu
    if nu > 1:
        elem = r"[^\s,]+" + r",[^\s,]+" * (nu - 1)
        row = re.compile(r"(?:\S+\s+){%d}%s(?:\s+%s)*" % (lead, elem, elem))
        for ln in lines:
            if not row.fullmatch(ln):
                raise ValueError("%s: bad extension element in %r"
                                 % (path, ln))
        lines = [ln.replace(",", " ") for ln in lines]
    cols = lead + width * nu
    if not lines:
        t = np.zeros((0, cols), dtype=np.int64)
    else:
        try:
            t = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    if t.shape[1] != cols:
        raise ValueError("%s: rows have %d entries, expected %d"
                         % (path, (t.shape[1] - lead) // nu, width))
    d = t[:, lead:].reshape(len(lines), width, nu)
    if d.size and (d.min() < 0 or d.max() >= ctx.p):
        raise ValueError("%s: element out of range for %r" % (path, ctx))
    return t[:, :lead], (d * ctx.p ** np.arange(nu)).sum(axis=2)


def write_matrix(path, M, sparse=None):
    ctx = M.ctx
    m, n = M.shape
    if sparse is None:
        sparse = m * n > 0 and nnz(M) * 3 < m * n
    with open(path, "w") as fh:
        fh.write("field %d %d\n" % (ctx.p, ctx.nu))
        if sparse:
            rows, cols = np.nonzero(M.a)
            fh.write("sparse %d %d %d\n" % (m, n, len(rows)))
            _write_table(fh, ctx, np.stack((rows, cols), axis=1),
                         M.a[rows, cols][:, None])
        else:
            fh.write("dense %d %d\n" % (m, n))
            _write_table(fh, ctx, np.zeros((m, 0), dtype=np.int64), M.a)


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
        if m * n == 0:  # no entries, and the rows' blank lines are dropped
            return Mat.zeros(ctx, m, n)
        body = lines[2:2 + m]
        if len(body) != m:
            raise ValueError("%s: %d rows, expected %d" % (path, len(body), m))
        return Mat(ctx, _read_table(path, ctx, body, 0, n)[1])
    if shape[0] == "sparse":
        m, n, k = int(shape[1]), int(shape[2]), int(shape[3])
        body = lines[2:2 + k]
        if len(body) != k:
            raise ValueError("%s: %d entries, expected %d"
                             % (path, len(body), k))
        at, codes = _read_table(path, ctx, body, 2, 1)
        a = np.zeros((m, n), dtype=np.int64)
        a[at[:, 0], at[:, 1]] = codes[:, 0]
        return Mat(ctx, a)
    raise ValueError("%s: unknown layout %r" % (path, shape[0]))
