"""Unevaluated right-hand sides and their projections."""

import numpy as np
import pytest

from eclu.blackbox import BlackboxRHS
from eclu.ff import PrimeField, make_prime_field
from eclu.mat import DimensionError, Mat

F5 = make_prime_field(5)
F7 = make_prime_field(7)


def rand_mat(ctx, m, n, rng):
    return Mat(ctx, ctx.rand(rng, (m, n)))


def test_degenerate_no_product_term():
    rng = np.random.default_rng(0)
    C = rand_mat(F7, 4, 5, rng)
    W = rand_mat(F7, 2, 4, rng)
    H = BlackboxRHS(C=C)
    assert H.inner == 0
    assert np.array_equal(H.project_left(W).a, F7.matmul(W.a, C.a))


def test_basis_row_extracts_row_of_dense():
    rng = np.random.default_rng(1)
    C = rand_mat(F7, 4, 5, rng)
    A = rand_mat(F7, 4, 3, rng)
    B = rand_mat(F7, 3, 5, rng)
    H = BlackboxRHS(C=C, A=A, B=B)
    dense = H.dense().a
    for i in range(4):
        e = Mat.zeros(F7, 1, 4)
        e.a[0, i] = 1
        assert np.array_equal(H.project_left(e).a, dense[i:i + 1])


def test_scalar_hand_example():
    H = BlackboxRHS(C=Mat(F5, [[4]]), A=Mat(F5, [[2]]), B=Mat(F5, [[1]]))
    W = Mat(F5, [[1]])
    assert H.project_left(W).a.tolist() == [[2]]  # 4 - 2*1 = 2


def test_plus_sign_product_form():
    rng = np.random.default_rng(2)
    A = rand_mat(F7, 4, 3, rng)
    B = rand_mat(F7, 3, 5, rng)
    H = BlackboxRHS(A=A, B=B, sign=+1)
    W = rand_mat(F7, 2, 4, rng)
    expect = F7.matmul(F7.matmul(W.a, A.a), B.a)
    assert np.array_equal(H.project_left(W).a, expect)
    assert np.array_equal(H.dense().a, F7.matmul(A.a, B.a))


def test_selected_projection_cases():
    rng = np.random.default_rng(3)
    C = rand_mat(F7, 4, 6, rng)
    A = rand_mat(F7, 4, 2, rng)
    B = rand_mat(F7, 2, 6, rng)
    H = BlackboxRHS(C=C, A=A, B=B)
    V = rand_mat(F7, 3, 4, rng)
    full = H.project_left(V).a
    assert np.array_equal(H.select_cols(list(range(6))).project_left(V).a,
                          full)
    assert H.select_cols([]).project_left(V).a.shape == (3, 0)
    J = [0, 4, 5]
    assert np.array_equal(H.select_cols(J).project_left(V).a, full[:, J])


def test_projection_linearity():
    rng = np.random.default_rng(4)
    C = rand_mat(F7, 5, 4, rng)
    A = rand_mat(F7, 5, 3, rng)
    B = rand_mat(F7, 3, 4, rng)
    H = BlackboxRHS(C=C, A=A, B=B)
    for _ in range(20):
        W1 = rand_mat(F7, 2, 5, rng)
        W2 = rand_mat(F7, 2, 5, rng)
        lhs = H.project_left(Mat(F7, F7.add(W1.a, W2.a))).a
        rhs = F7.add(H.project_left(W1).a, H.project_left(W2).a)
        assert np.array_equal(lhs, rhs)


def test_dense_oracle_small_shapes():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m, n, ell = (int(x) for x in rng.integers(1, 7, 3))
        C = rand_mat(F7, m, n, rng)
        A = rand_mat(F7, m, ell, rng)
        B = rand_mat(F7, ell, n, rng)
        H = BlackboxRHS(C=C, A=A, B=B)
        dense = F7.sub(C.a, F7.matmul(A.a, B.a))
        assert np.array_equal(H.dense().a, dense)
        W = rand_mat(F7, 2, m, rng)
        assert np.array_equal(H.project_left(W).a, F7.matmul(W.a, dense))


def test_transpose_blackbox():
    rng = np.random.default_rng(6)
    C = rand_mat(F7, 4, 6, rng)
    A = rand_mat(F7, 4, 2, rng)
    B = rand_mat(F7, 2, 6, rng)
    H = BlackboxRHS(C=C, A=A, B=B)
    assert np.array_equal(H.T.dense().a, H.dense().a.T)


def test_shape_validation():
    with pytest.raises(DimensionError):
        BlackboxRHS(C=Mat(F7, [[1, 2]]), A=Mat(F7, [[1]]), B=Mat(F7, [[1]]))
    with pytest.raises(DimensionError):
        BlackboxRHS(A=Mat(F7, [[1]]))
    with pytest.raises(DimensionError):
        BlackboxRHS()


def test_parts_from_different_fields_are_rejected():
    # every part is read in C's field (A's without C), so a part over
    # another field is refused; an equal field built apart is the same
    with pytest.raises(DimensionError, match="different fields"):
        BlackboxRHS(C=Mat(F7, [[1, 2]]), A=Mat(F5, [[1]]), B=Mat(F7, [[1, 2]]))
    with pytest.raises(DimensionError, match="different fields"):
        BlackboxRHS(A=Mat(F7, [[1]]), B=Mat(F5, [[1]]))
    H = BlackboxRHS(C=Mat(F7, [[1, 2]]), A=Mat(PrimeField(7), [[3]]),
                    B=Mat(F7, [[1, 2]]))
    assert np.array_equal(H.dense().a, [[5, 3]])  # C - A.B mod 7
