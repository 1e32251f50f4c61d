"""Error-correcting triangular solves, all four variants."""

import math

import numpy as np
import pytest

from eclu import croutec, trsmec
from eclu.blackbox import BlackboxRHS
from eclu.croutec import crout_ec, make_grp_instance
from eclu.ff import make_ext_field, make_prime_field
from eclu.mat import Mat, PackedLU, Tri, multiply
from eclu.syssolve import tr_inv_ec
from eclu.trsmec import (TrsmEcParams, _projected_gap, dense_cheaper,
                         freivalds_lambda, trsm_ec_lower_left,
                         trsm_ec_lower_right, trsm_ec_upper_left,
                         trsm_ec_upper_right)

F7 = make_prime_field(7)
FBIG = make_prime_field(65537)


def rand_tri(ctx, n, kind, rng, unit=False):
    a = ctx.rand(rng, (n, n))
    a[np.arange(n), np.arange(n)] = ctx.rand_nonzero(rng, (n,))
    return Tri(Mat(ctx, a), kind, unit=unit)


def corrupt(ctx, R, k, rng):
    """Flip k distinct entries of R by nonzero deltas; returns column set."""
    m, n = R.shape
    flat = rng.choice(m * n, size=k, replace=False)
    for f in flat:
        i, j = divmod(int(f), n)
        R.a[i, j] = ctx.sadd(int(R.a[i, j]), int(ctx.rand_nonzero(rng)))
    return {int(f) % n for f in flat}


def make_right_instance(ctx, m, n, ell, rng, kind="upper"):
    """True R with R.T = H for a C - A.B blackbox; returns (R, H, T)."""
    T = rand_tri(ctx, n, kind, rng)
    R = Mat(ctx, ctx.rand(rng, (m, n)))
    A = Mat(ctx, ctx.rand(rng, (m, ell)))
    B = Mat(ctx, ctx.rand(rng, (ell, n)))
    C = Mat(ctx, ctx.add(ctx.matmul(R.a, T.dense().a),
                         ctx.matmul(A.a, B.a)))
    H = BlackboxRHS(C=C, A=A, B=B)
    return R, H, T


def test_lambda_formula():
    # (#F, n, eps) = (65537, 256, 2^-20) -> ceil(log_65537(3*256*8*2^20)) = 3
    assert freivalds_lambda(65537, 256, 2.0 ** -20) == 3


def test_params_validation():
    for bad in (0.0, 1.0, -1, 2):
        with pytest.raises(ValueError):
            TrsmEcParams(bad)


def test_already_correct_upper_right():
    rng = np.random.default_rng(0)
    R, H, U = make_right_instance(FBIG, 12, 20, 6, rng)
    orig = R.a.copy()
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(R.a, orig)
    assert rep.corrected == 0 and rep.correcting_rounds == 0
    assert rep.verified


def test_hand_example_gf7():
    # true R = [[1,4]] solves R.U = [[1,0]] with U = [[1,2],[0,3]]
    U = Tri(Mat(F7, [[1, 2], [0, 3]]), "upper")
    R = Mat(F7, [[1, 0]])  # corrupted at (0,1)
    H = BlackboxRHS(C=Mat(F7, [[1, 0]]))
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=2))
    assert R.a.tolist() == [[1, 4]]
    assert rep.corrected == 1


@pytest.mark.parametrize("k", [1, 7, 50])
def test_random_suite_upper_right(k):
    rng = np.random.default_rng(100 + k)
    for trial in range(50):
        R, H, U = make_right_instance(FBIG, 32, 64, 16, rng)
        truth = R.a.copy()
        c0 = len(corrupt(FBIG, R, k, rng))
        rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(R.a, truth)
        # iteration bound from the doubling analysis, on correcting rounds
        bound = (math.ceil(math.log2(max(c0, 1)))
                 + math.ceil(math.log2(max(k, 1))) + 1)
        assert rep.correcting_rounds <= bound


def test_lower_right_variant():
    rng = np.random.default_rng(3)
    for trial in range(10):
        R, H, L = make_right_instance(FBIG, 24, 40, 8, rng, kind="lower")
        truth = R.a.copy()
        corrupt(FBIG, R, 9, rng)
        trsm_ec_lower_right(R, H, L, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(R.a, truth)


def test_lower_left_variant():
    rng = np.random.default_rng(4)
    for trial in range(10):
        # L.R = H with R 40x24
        L = rand_tri(FBIG, 40, "lower", rng)
        R = Mat(FBIG, FBIG.rand(rng, (40, 24)))
        C = Mat(FBIG, FBIG.matmul(L.dense().a, R.a))
        truth = R.a.copy()
        corrupt(FBIG, R, 9, rng)
        trsm_ec_lower_left(R, BlackboxRHS(C=C), L, TrsmEcParams(0.05,
                                                                seed=trial))
        assert np.array_equal(R.a, truth)


def test_upper_left_variant():
    rng = np.random.default_rng(5)
    for trial in range(10):
        U = rand_tri(FBIG, 40, "upper", rng)
        R = Mat(FBIG, FBIG.rand(rng, (40, 24)))
        C = Mat(FBIG, FBIG.matmul(U.dense().a, R.a))
        truth = R.a.copy()
        corrupt(FBIG, R, 9, rng)
        trsm_ec_upper_left(R, BlackboxRHS(C=C), U, TrsmEcParams(0.05,
                                                                seed=trial))
        assert np.array_equal(R.a, truth)


def test_identity_triangle_means_r_equals_dense_h():
    rng = np.random.default_rng(6)
    C = Mat(F7, F7.rand(rng, (6, 9)))
    A = Mat(F7, F7.rand(rng, (6, 4)))
    B = Mat(F7, F7.rand(rng, (4, 9)))
    H = BlackboxRHS(C=C, A=A, B=B)
    R = Mat(F7, F7.rand(rng, (6, 9)))
    U = Tri(Mat.identity(F7, 9), "upper")
    trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=7))
    assert np.array_equal(R.a, H.dense().a)


def test_unit_diagonal_triangle():
    rng = np.random.default_rng(7)
    La = np.tril(FBIG.rand(rng, (20, 20)), -1)
    L = Tri(Mat(FBIG, La), "lower", unit=True)
    R = Mat(FBIG, FBIG.rand(rng, (8, 20)))
    C = Mat(FBIG, FBIG.matmul(R.a, L.dense().a))
    truth = R.a.copy()
    corrupt(FBIG, R, 5, rng)
    trsm_ec_lower_right(R, BlackboxRHS(C=C), L, TrsmEcParams(0.05, seed=8))
    assert np.array_equal(R.a, truth)


def test_extension_field_path_gf2():
    # m = 100 rows over GF(2) forces GF(2^7) per ceil(log2 101) = 7
    rng = np.random.default_rng(8)
    F2 = make_prime_field(2)
    R, H, U = make_right_instance(F2, 100, 30, 5, rng)
    truth = R.a.copy()
    corrupt(F2, R, 12, rng)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=9))
    assert rep.extended and rep.ext_degree == 7
    assert np.array_equal(R.a, truth)
    assert set(np.unique(R.a)) <= {0, 1}


def test_empty_dimensions():
    rng = np.random.default_rng(9)
    U = rand_tri(F7, 4, "upper", rng)
    R = Mat.zeros(F7, 0, 4)
    rep = trsm_ec_upper_right(R, BlackboxRHS(C=Mat.zeros(F7, 0, 4)), U,
                              TrsmEcParams(0.05))
    assert rep.verified and rep.corrected == 0


def test_result_satisfies_equation_densely():
    rng = np.random.default_rng(10)
    for trial in range(10):
        R, H, U = make_right_instance(F7, 10, 14, 3, rng)
        corrupt(F7, R, 20, rng)
        trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=20 + trial))
        assert np.array_equal(multiply(Mat(F7, R.a), U.dense()).a,
                              H.dense().a)


def test_projected_gap_no_int64_overflow():
    # p = 2^29 - 3 allows 32 products of residues per int64 sum; W C and a
    # positive (W A) B together sum 64, more than one int64 sum can hold
    ctx = make_prime_field(2 ** 29 - 3)
    n = 32
    rng = np.random.default_rng(0)

    def full():
        return Mat(ctx, np.full((n, n), ctx.p - 1, dtype=np.int64))

    H = BlackboxRHS(C=full(), A=full(), B=full(), sign=+1)
    U = rand_tri(ctx, n, "upper", rng)
    R = H.dense().a.copy()
    U.solve_right(R)  # exact: R U = H
    for _ in range(200):
        W = ctx.rand(rng, (1, n))
        assert not _projected_gap(ctx, W, H, R, {}, U).any()


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1])
def test_unreduced_entries_are_reduced(p):
    # candidate entries a + p and a - p come back reduced; input operands
    # out of range are read as reduced and left as they were
    ctx = make_prime_field(p)
    rng = np.random.default_rng(12)
    # a left variant solves the transpose of a right instance
    for variant, kind, left in ((trsm_ec_upper_right, "upper", False),
                                (trsm_ec_lower_right, "lower", False),
                                (trsm_ec_lower_left, "upper", True),
                                (trsm_ec_upper_left, "lower", True)):
        R, H, T = make_right_instance(ctx, 20, 20, 6, rng, kind=kind)
        if left:
            R, H, T = R.T, H.T, T.T
        truth = R.a.copy()
        corrupt(ctx, R, 3, rng)
        R.a[0, 0] += p
        R.a[5, 3] -= p
        H.C.a[1, 2] += p
        H.A.a[2, 1] -= p
        T.a[0, 0] += p
        before = [H.C.a.copy(), H.A.a.copy(), T.a.copy()]
        rep = variant(R, H, T, TrsmEcParams(0.05, seed=2))
        assert rep.verified and np.array_equal(R.a, truth)
        assert all(np.array_equal(x, y) for x, y in
                   zip(before, [H.C.a, H.A.a, T.a]))


_SHAPES = [(m, n, ell) for m in (1, 3, 8, 32, 100, 512)
           for n in (1, 2, 8, 33, 128, 1024) for ell in (0, 1, 16, 300)]


def test_dense_cheaper_without_columns_is_the_narrow_system_test():
    # the one-round comparison that selected the narrow-system branch
    for q, eps in ((2, 0.05), (7, 0.0125), (343, 0.25), (65537, 2.0 ** -20),
                   (2 ** 31 - 1, 0.05)):
        for m, n, ell in _SHAPES:
            lam = freivalds_lambda(q, n, eps)
            old = m * n * (ell + n) <= lam * (m * n + n * n + ell * (m + n))
            assert dense_cheaper(q, eps, m, n, ell) == old


def test_dense_cheaper_monotone_in_columns_and_errors_left():
    # once c reaches k_left, s no longer depends on the guess and each extra
    # bad column only adds sparse work; more errors left never favour sparse
    for q, eps in ((343, 0.0125), (65537, 0.05)):
        for m, n, ell in _SHAPES:
            for k_left in (0, 1, 8, 100):
                seq = [dense_cheaper(q, eps, m, n, ell, c, k_left)
                       for c in range(max(k_left, 1), n + 1)]
                assert seq == sorted(seq)
            for c in (1, 5, n):
                seq = [dense_cheaper(q, eps, m, n, ell, c, k_left)
                       for k_left in range(0, 4 * n * m + 1, max(1, n))]
                assert seq == sorted(seq)
            # any bad column adds recovery work to the one-round cost
            if dense_cheaper(q, eps, m, n, ell):
                assert dense_cheaper(q, eps, m, n, ell, 1, 0)


def test_dense_cheaper_never_asked_about_a_clean_round(monkeypatch):
    calls = []

    def spy(q, eps, m, n, ell, c=None, k_left=0):
        calls.append(c)
        return dense_cheaper(q, eps, m, n, ell, c, k_left)

    for mod in (trsmec, croutec):
        monkeypatch.setattr(mod, "dense_cheaper", spy)
    rng = np.random.default_rng(21)
    for k in (0, 3, 40):
        R, H, U = make_right_instance(FBIG, 40, 48, 8, rng)
        corrupt(FBIG, R, k, rng)
        trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=k))
        A, L0, U0 = make_grp_instance(F7, 48, rng)
        P = PackedLU.pack(L0.copy(), U0.copy())
        corrupt(F7, P.mat, k, rng)
        crout_ec(P, A, TrsmEcParams(0.05, seed=k))
        assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
        U = rand_tri(FBIG, 32, "upper", rng)
        Rinv = Mat.identity(FBIG, 32)
        U.solve_right(Rinv.a)
        corrupt(FBIG, Rinv, k, rng)
        tr_inv_ec(Rinv, U, TrsmEcParams(0.05, seed=k))
    assert None in calls and all(c is None or c > 0 for c in calls)
    assert any(c is not None for c in calls)


def _spoil(ctx, a, idx, rng):
    """Add a nonzero delta to every entry a[idx]; returns their positions."""
    sub = a[idx]
    a[idx] = ctx.add(sub, ctx.rand_nonzero(rng, sub.shape))
    mask = np.zeros(a.shape, dtype=bool)
    mask[idx] = True
    return set(zip(*(x.tolist() for x in np.nonzero(mask))))


@pytest.mark.parametrize("ctx", [F7, make_ext_field(2, 2), FBIG],
                         ids=["gf7", "gf4", "65537"])
@pytest.mark.parametrize("pattern", ["row", "col"])
def test_full_row_or_column_goes_dense(ctx, pattern):
    # a whole wrong row gives n bad columns, a whole wrong column one bad
    # column with m errors; either way a dense solve ends the loop (lam > 0:
    # after a projected round), and the report lists each wrong entry once,
    # also over GF(7) and GF(4), where the loop runs in a lifted field.  The
    # column case adds single errors that are committed before the solve.
    rng = np.random.default_rng(22)
    R, H, U = make_right_instance(ctx, 96, 64, 32, rng)
    truth = R.a.copy()
    if pattern == "row":
        wrong = _spoil(ctx, R.a, np.s_[40, :], rng)
    else:
        wrong = _spoil(ctx, R.a, np.s_[:, 17], rng)
        wrong |= _spoil(ctx, R.a, ([3, 50, 7], [2, 30, 60]), rng)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=3))
    assert np.array_equal(R.a, truth)
    assert rep.dense_verified and rep.lam > 0
    assert rep.extended == (ctx.q < 96)
    assert set(rep.positions) == wrong
    assert rep.corrected == len(rep.positions) == len(wrong)
