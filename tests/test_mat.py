"""Dense matrices: multiply, TRSM variants, selections, packed LU layout."""

import numpy as np
import pytest

from eclu import mat
from eclu.ff import make_prime_field
from eclu.mat import (DimensionError, Mat, PackedLU, SingularMatrixError, Tri,
                      multiply, nnz, trsm)

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
    trsm("upper", "left", Tri(Mat.identity(F7, 4), "upper"), B)
    assert np.array_equal(B.a, orig)


def test_trsm_hand_gf7():
    U = Tri(Mat(F7, [[1, 2], [0, 3]]), "upper")
    B = Mat(F7, [[1, 0]])
    trsm("upper", "right", U, B)
    assert B.a.tolist() == [[1, 4]]
    # check by multiplying back: [[1,4]] . U = [[1,0]] mod 7
    assert multiply(B, U.dense()).a.tolist() == [[1, 0]]


@pytest.mark.parametrize("kind,side", [("upper", "right"), ("upper", "left"),
                                       ("lower", "right"), ("lower", "left")])
def test_trsm_multiply_back(kind, side):
    rng = np.random.default_rng(4)
    for trial in range(50):
        Ta = FBIG.rand(rng, (33, 33))
        Ta[np.arange(33), np.arange(33)] = FBIG.rand_nonzero(rng, (33,))
        T = Tri(Mat(FBIG, Ta), kind)
        if side == "right":
            B = rand_mat(FBIG, 10, 33, rng)
        else:
            B = rand_mat(FBIG, 33, 10, rng)
        orig = B.a.copy()
        trsm(kind, side, T, B)
        if side == "right":
            back = FBIG.matmul(B.a, T.dense().a)
        else:
            back = FBIG.matmul(T.dense().a, B.a)
        assert np.array_equal(back, orig)


def test_trsm_unit_diagonal():
    rng = np.random.default_rng(5)
    La = np.tril(F7.rand(rng, (8, 8)), -1)
    L = Tri(Mat(F7, La), "lower", unit=True)
    B = rand_mat(F7, 8, 3, rng)
    orig = B.a.copy()
    trsm("lower", "left", L, B)
    dense = (np.tril(La, -1) + np.eye(8, dtype=np.int64)) % 7
    assert np.array_equal(F7.matmul(dense, B.a), orig)


def test_trsm_singular_rejected():
    T = Tri(Mat(F7, [[1, 2], [0, 0]]), "upper")
    B = Mat(F7, [[1, 0]])
    with pytest.raises(SingularMatrixError):
        trsm("upper", "right", T, B)


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
    assert U.principal([1, 2]).a.tolist() == [[4, 5], [0, 6]]


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
