"""Dense matrices: multiply, triangular solves, selections, packed LU."""

import numpy as np
import pytest

from eclu import ff, mat
from eclu.ff import make_ext_field, make_prime_field
from eclu.mat import (DimensionError, Mat, PackedLU, SingularMatrixError, Tri,
                      multiply, nnz)

F5 = make_prime_field(5)
F7 = make_prime_field(7)
FBIG = make_prime_field(65537)


def rand_mat(ctx, m, n, rng):
    return Mat(ctx, ctx.rand(rng, (m, n)))


def test_multiply_identity():
    rng = np.random.default_rng(0)
    B = rand_mat(FBIG, 9, 13, rng)
    I = Mat.identity(FBIG, 9)
    assert np.array_equal(multiply(I, B).a, B.a)


def test_multiply_hand_gf5():
    L = Mat(F5, [[1, 0], [2, 1]])
    U = Mat(F5, [[2, 1], [0, 2]])
    assert multiply(L, U).a.tolist() == [[2, 1], [4, 4]]


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        multiply(Mat(F5, [[1, 2]]), Mat(F5, [[1, 2]]))


def test_multiply_associative():
    rng = np.random.default_rng(2)
    for n in (4, 17, 64):
        for _ in range(20):
            A = rand_mat(FBIG, n, n, rng)
            B = rand_mat(FBIG, n, n, rng)
            C = rand_mat(FBIG, n, n, rng)
            assert multiply(multiply(A, B), C) == multiply(A, multiply(B, C))


def test_trsm_identity_noop():
    rng = np.random.default_rng(3)
    B = rand_mat(F7, 4, 6, rng)
    orig = B.a.copy()
    Tri(Mat.identity(F7, 4), "upper").solve_left(B)
    assert np.array_equal(B.a, orig)


def test_trsm_hand_gf7():
    U = Tri(Mat(F7, [[1, 2], [0, 3]]), "upper")
    B = Mat(F7, [[1, 0]])
    U.solve_right(B)
    assert B.a.tolist() == [[1, 4]]
    # check by multiplying back: [[1,4]] . U = [[1,0]] mod 7
    assert multiply(B, U.dense()).a.tolist() == [[1, 0]]


def test_trsm_unit_diagonal():
    rng = np.random.default_rng(5)
    La = np.tril(F7.rand(rng, (8, 8)), -1)
    L = Tri(Mat(F7, La), "lower", unit=True)
    B = rand_mat(F7, 8, 3, rng)
    orig = B.a.copy()
    L.solve_left(B)
    dense = (np.tril(La, -1) + np.eye(8, dtype=np.int64)) % 7
    assert np.array_equal(F7.matmul(dense, B.a), orig)


def test_trsm_singular_rejected():
    T = Tri(Mat(F7, [[1, 2], [0, 0]]), "upper")
    B = Mat(F7, [[1, 0]])
    with pytest.raises(SingularMatrixError):
        T.solve_right(B)


def test_nnz_cases():
    assert nnz(Mat.zeros(F7, 5, 5)) == 0
    assert nnz(Mat.identity(F7, 6)) == 6
    M = Mat.zeros(F7, 9, 9)
    rng = np.random.default_rng(7)
    pos = {(int(i), int(j)) for i, j in rng.integers(0, 9, (30, 2))}
    for (i, j) in pos:
        M.a[i, j] = 1 + int(rng.integers(0, 6))
    assert nnz(M) == len(pos)


def test_tri_cols_and_principal_masking():
    a = np.array([[1, 2, 3], [9, 4, 5], [9, 9, 6]], dtype=np.int64)
    U = Tri(Mat(F7, a), "upper")
    # stored entries below the diagonal must never leak through
    assert U.cols([0, 2]).a.tolist() == [[1, 3], [0, 5], [0, 6]]
    # rows J of cols(J) are P^T T P for increasing J
    assert U.cols([1, 2]).a[[1, 2]].tolist() == [[4, 5], [0, 6]]
    L = Tri(Mat(F7, a), "lower", unit=True)
    assert L.cols([0, 2]).a[[0, 2]].tolist() == [[1, 0], [9, 1]]


def test_packed_lu_roundtrip():
    rng = np.random.default_rng(10)
    La = np.tril(FBIG.rand(rng, (12, 12)), -1) + np.eye(12, dtype=np.int64)
    Ua = np.triu(FBIG.rand(rng, (12, 12)))
    P = PackedLU.pack(Mat(FBIG, La), Mat(FBIG, Ua))
    assert np.array_equal(P.extract_L().a, La)
    assert np.array_equal(P.extract_U().a, Ua)
    assert np.array_equal(P.rebuild().a, FBIG.matmul(La, Ua))


def test_view_aliases_parent():
    M = Mat.zeros(F7, 4, 4)
    V = M.view(1, 1, 2, 2)
    V.a[0, 0] = 5
    assert M.a[1, 1] == 5


# Tri.solve_right / solve_left against a Python-int oracle.  The sizes cross
# the blocked recursion (n > _TRSM_BASE) and its splits of odd sizes.
SOLVE_FIELDS = [make_prime_field(p) for p in (2, 7, 2 ** 16 + 1, 2 ** 29 - 3,
                                              2 ** 31 - 1, 2 ** 61 - 1)]
SOLVE_FIELDS += [make_ext_field(7, 3), make_ext_field(2, 7)]
SOLVE_SIZES = [0, 1, 2, 3, 47, 48, 49, 97, 130]


def oracle_product(ctx, A, B):
    """A.B over ctx in Python ints, without the field's kernel or tables.

    Residues multiply as Python ints.  A GF(p^nu) code becomes the integer
    sum c_i 2^(32 i) of its base-p digits, so one Python-int product
    carries every digit product; the digit sums are unpacked, reduced mod p
    and folded by the modulus.
    """
    if ctx.nu == 1:
        return ((A.astype(object) @ B.astype(object)) % ctx.p).astype(np.int64)
    p, nu, mod = ctx.p, ctx.nu, ctx.modulus

    def pack(codes):
        out = np.zeros(codes.shape, dtype=object)
        for i in range(nu):
            out += (codes // p ** i % p).astype(object) << 32 * i
        return out

    C = pack(A) @ pack(B) if A.shape[1] else np.zeros(
        (A.shape[0], B.shape[1]), dtype=object)
    c = [((C >> 32 * t) & 0xFFFFFFFF).astype(np.int64) % p
         for t in range(2 * nu - 1)]
    for d in range(2 * nu - 2, nu - 1, -1):
        for i in range(nu):
            c[d - nu + i] = (c[d - nu + i] - c[d] * mod[i]) % p
    return sum(c[i] * p ** i for i in range(nu)).astype(np.int64)


def tri_operand(ctx, n, kind, unit, rng):
    """A stored square whose kind triangle is invertible.  The other
    triangle holds random codes, and a unit triangle stores zeros on its
    diagonal: neither may be read.  Returns (stored, masked triangle)."""
    a = ctx.rand(rng, (n, n))
    idx = np.arange(n)
    a[idx, idx] = 0 if unit else ctx.rand_nonzero(rng, (n,))
    dense = np.triu(a) if kind == "upper" else np.tril(a)
    if unit:
        dense[idx, idx] = 1
    return a, dense


def rhs(ctx, rng, shape, layout):
    m, n = shape
    if layout == "transposed":
        return ctx.rand(rng, (n, m)).T
    if layout == "strided":
        return ctx.rand(rng, (2 * m + 1, 3 * n + 2))[1::2, 2::3]
    return ctx.rand(rng, (m, n))


@pytest.mark.parametrize("ctx", SOLVE_FIELDS, ids=repr)
def test_tri_solves_match_int_oracle(ctx):
    rng = np.random.default_rng(ctx.q % 1009)
    layouts = ["plain", "strided", "transposed"]
    for n in SOLVE_SIZES:
        for kind in ("upper", "lower"):
            for unit in (False, True):
                a, dense = tri_operand(ctx, n, kind, unit, rng)
                stored = a.copy()
                T = Tri(Mat(ctx, a), kind, unit=unit)
                for i, rows in enumerate((0, 1, 2, 50)):
                    layout = layouts[(i + n) % 3]
                    B = rhs(ctx, rng, (rows, n), layout)
                    want = B.copy()
                    T.solve_right(B)  # in place, through the view
                    assert np.array_equal(oracle_product(ctx, B, dense), want)
                    B = rhs(ctx, rng, (n, rows), layout)
                    want = B.copy()
                    T.solve_left(B)
                    assert np.array_equal(oracle_product(ctx, dense, B), want)
                assert np.array_equal(a, stored)


@pytest.mark.parametrize("ctx", SOLVE_FIELDS, ids=repr)
def test_tri_solve_zero_pivot_in_any_block_is_singular(ctx):
    rng = np.random.default_rng(ctx.q % 1013)
    for n in SOLVE_SIZES[1:]:
        for kind in ("upper", "lower"):
            a, _ = tri_operand(ctx, n, kind, False, rng)
            B = ctx.rand(rng, (2, n))
            orig = B.copy()
            for j in range(n):  # every diagonal position, so every block
                z = a.copy()
                z[j, j] = 0
                T = Tri(Mat(ctx, z), kind)
                with pytest.raises(SingularMatrixError):
                    T.solve_right(B)
                with pytest.raises(SingularMatrixError):
                    T.solve_left(B.T)
                assert np.array_equal(B, orig)


def test_tri_store_shared_by_sub_triangles_and_transposes_only():
    rng = np.random.default_rng(20)
    a, _ = tri_operand(FBIG, 130, "upper", False, rng)
    T = Tri(Mat(FBIG, a), "upper")
    T.solve_right(FBIG.rand(rng, (2, 130)))
    # the base blocks (0, 33), (33, 32), (65, 33) and (98, 32), each with
    # the halves it was built from, down to leaves of at most 16 rows
    keys = {("upper", o, b) for o, b in
            ((0, 33), (0, 17), (0, 9), (9, 8), (17, 16),
             (33, 32), (33, 16), (49, 16),
             (65, 33), (65, 17), (65, 9), (74, 8), (82, 16),
             (98, 32), (98, 16), (114, 16))}
    assert set(T._inv) == keys
    # a node of the split tree: its base blocks are the root's last two
    S = T.sub(65, 65)
    assert S._inv is T._inv and S.T._inv is T._inv and S.T._off == 65
    S.solve_right(FBIG.rand(rng, (2, 65)))
    assert set(T._inv) == keys
    other = Tri(Mat(FBIG, a), "upper")
    assert other._inv == {} and other._inv is not T._inv


# Tri._block_inverse on both sides of the leaf size mat._BLOCK_CHECK = 16,
# on odd and even splits, up to the largest base block _TRSM_BASE = 48
INV_FIELDS = [make_prime_field(p) for p in (2, 7, 65537, 2 ** 31 - 1,
                                            2 ** 61 - 1)]
INV_FIELDS.append(make_ext_field(7, 3))
INV_SIZES = [1, 2, 15, 16, 17, 33, 47, 48]


@pytest.mark.parametrize("ctx", INV_FIELDS, ids=repr)
def test_block_inverse_inverts_its_block(ctx):
    rng = np.random.default_rng(ctx.q % 1031)
    size = 60
    for kind in ("upper", "lower"):
        for unit in (False, True):
            a, dense = tri_operand(ctx, size, kind, unit, rng)
            for b in INV_SIZES:
                for o in (0, 5, size - b):
                    # a fresh store, so that every block is built anew
                    X = Tri(Mat(ctx, a), kind, unit=unit)._block_inverse(o, b)
                    blk = dense[o:o + b, o:o + b]
                    assert np.array_equal(oracle_product(ctx, X, blk),
                                          np.eye(b, dtype=np.int64))


@pytest.mark.parametrize("ctx", INV_FIELDS, ids=repr)
def test_block_inverse_reads_the_transposes_entry(ctx, leaf_inversions):
    # a store filled through T answers T.T, and its sub-triangles, with the
    # transpose of each entry, inverting nothing more
    rng = np.random.default_rng(ctx.q % 1033)
    size = 60
    for kind in ("upper", "lower"):
        for unit in (False, True):
            a, _ = tri_operand(ctx, size, kind, unit, rng)
            for b in INV_SIZES:
                for o in (0, 5, size - b):
                    T = Tri(Mat(ctx, a), kind, unit=unit)
                    X = T._block_inverse(o, b)
                    leaves = leaf_inversions(a)
                    assert np.array_equal(T.T._block_inverse(o, b), X.T)
                    assert np.array_equal(
                        T.T.sub(o, b)._block_inverse(0, b), X.T)
                    assert leaves == []


def test_block_inverse_from_stored_halves_takes_two_products(
        monkeypatch, leaf_inversions):
    # a field of its own, so that the counter leaves the shared one alone
    ctx = ff.PrimeField(2 ** 31 - 1)
    rng = np.random.default_rng(23)
    products = []
    matmul = ctx.matmul

    def counting_matmul(A, B):
        products.append(A.shape)
        return matmul(A, B)

    monkeypatch.setattr(ctx, "matmul", counting_matmul)
    for kind in ("upper", "lower"):
        for unit in (False, True):
            a, dense = tri_operand(ctx, 100, kind, unit, rng)
            T = Tri(Mat(ctx, a), kind, unit=unit)
            for o, b in ((3, 24), (27, 24), (51, 17), (68, 16)):
                T._block_inverse(o, b)
            for o, b in ((3, 48), (51, 33)):
                products.clear()
                leaves = leaf_inversions(a)
                X = T._block_inverse(o, b)
                assert len(products) == 2 and leaves == []
                assert np.array_equal(
                    oracle_product(ctx, X, dense[o:o + b, o:o + b]),
                    np.eye(b, dtype=np.int64))


@pytest.mark.parametrize("ctx", INV_FIELDS, ids=repr)
def test_inverse_of_a_stack_is_the_stack_of_inverses(ctx):
    rng = np.random.default_rng(ctx.q % 1039)
    for kind in ("upper", "lower"):
        for unit in (False, True):
            for b in (1, 2, 12, 16):
                for k in (1, 3):
                    leaves = [tri_operand(ctx, b, kind, unit, rng)
                              for _ in range(k)]
                    X = mat._inverse(ctx, np.stack([s for s, _ in leaves]),
                                     kind, unit)
                    assert X.shape == (k, b, b)
                    for Xi, (s, dense) in zip(X, leaves):
                        assert np.array_equal(
                            Xi, mat._inverse(ctx, s, kind, unit))
                        assert np.array_equal(oracle_product(ctx, Xi, dense),
                                              np.eye(b, dtype=np.int64))


def test_fresh_solve_builds_its_inverses_as_stacks(monkeypatch,
                                                  leaf_inversions):
    # a 384-row triangle solves against 8 base blocks of 48 rows, whose
    # inverses take 32 leaves of 12 rows, 16 merges to 24 rows and 8 to 48.
    # Built by level, the leaves cost one _inverse call of 6 products and
    # each merge level 2 products; one block at a time they cost
    # 32 * 6 + 24 * 2 = 240 products
    ctx = ff.PrimeField(2 ** 31 - 1)  # its own context, for the spy
    rng = np.random.default_rng(29)
    products = []
    matmul = ctx.matmul

    def counting_matmul(A, B):
        products.append(A.shape)
        return matmul(A, B)

    monkeypatch.setattr(ctx, "matmul", counting_matmul)
    a, dense = tri_operand(ctx, 384, "upper", False, rng)
    built = leaf_inversions(a)
    B = ctx.rand(rng, (1, 384))
    want = B.copy()
    T = Tri(Mat(ctx, a), "upper")
    T.solve_right(B)
    assert np.array_equal(oracle_product(ctx, B, dense), want)
    # the solve's own products all have the right side's one row
    assert len([s for s in products if s[-2] > 1]) <= 10
    assert sorted((o, b) for _, _, o, b, _ in built) == [
        (o, 12) for o in range(0, 384, 12)]
    assert sorted((o, b) for _, o, b in T._inv) == sorted(
        [(o, 12) for o in range(0, 384, 12)]
        + [(o, 24) for o in range(0, 384, 24)]
        + [(o, 48) for o in range(0, 384, 48)])


def test_fresh_tri_over_a_changed_diagonal_block_solves_correctly():
    rng = np.random.default_rng(22)
    a, _ = tri_operand(FBIG, 97, "lower", False, rng)
    Tri(Mat(FBIG, a), "lower").solve_right(FBIG.rand(rng, (2, 97)))
    # rewrite a block inside the second base block, then solve afresh
    new, _ = tri_operand(FBIG, 10, "lower", False, rng)
    a[60:70, 60:70] = new
    dense = np.tril(a)
    B = FBIG.rand(rng, (4, 97))
    want = B.copy()
    Tri(Mat(FBIG, a), "lower").solve_right(B)
    assert np.array_equal(oracle_product(FBIG, B, dense), want)


# Tri.mul_right against the dense product; the sizes cross the panel width
MUL_FIELDS = [make_prime_field(p) for p in (2, 7, 65537, 2 ** 31 - 1,
                                            2 ** 61 - 1)]
MUL_FIELDS.insert(2, make_ext_field(7, 3))


@pytest.mark.parametrize("ctx", MUL_FIELDS, ids=repr)
def test_tri_mul_right_matches_dense_product(ctx):
    b = mat._PANEL
    rng = np.random.default_rng(ctx.q % 1021)
    size = 3 * b + 12
    # a packed buffer with random codes everywhere, the stored diagonal
    # included: a unit triangle must not read it, neither the other half
    buf = ctx.rand(rng, (size, size))
    buf[np.arange(size), np.arange(size)] = ctx.rand_nonzero(rng, (size,))
    other = {"upper": "lower", "lower": "upper"}
    for n in (1, b - 1, b, b + 1, 3 * b + 5):
        o = size - n - 3
        for kind in ("upper", "lower"):
            for unit in (False, True):
                ts = [Tri(Mat(ctx, buf[:n, :n]), kind, unit=unit),
                      Tri(Mat(ctx, buf), kind, unit=unit).sub(o, n),
                      Tri(Mat(ctx, buf), other[kind], unit=unit).T.sub(o, n)]
                for i, rows in enumerate((0, 1, 2, 40)):
                    T = ts[(i + n) % 3]
                    assert T.kind == kind
                    Y = ctx.rand(rng, (rows, n))
                    got = T.mul_right(Y)
                    assert got.shape == (rows, n)
                    assert np.array_equal(got, ctx.matmul(Y, T.dense().a))
