"""System-solving pipelines and triangular inverse correction."""

import numpy as np
import pytest

from eclu.blackbox import BlackboxRHS
from eclu.croutec import crout_reference, make_grp_instance
from eclu.ff import make_prime_field
from eclu.mat import Mat, PackedLU, Tri
from eclu.syssolve import (LargeRhsBundle, SmallRhsBundle, small_m_cutoff,
                           solve_large_rhs, solve_small_rhs, tr_inv_ec)
from eclu.trsmec import TrsmEcParams, trsm_ec_upper_right

F5 = make_prime_field(5)
F7 = make_prime_field(7)
FBIG = make_prime_field(65537)


def rand_upper(ctx, n, rng):
    a = np.triu(ctx.rand(rng, (n, n)))
    a[np.arange(n), np.arange(n)] = ctx.rand_nonzero(rng, (n,))
    return Tri(Mat(ctx, a), "upper")


def upper_inverse(ctx, U):
    R = Mat.identity(ctx, U.n)
    U.solve_left(R.a)
    return R


def corrupt(ctx, a, k, rng):
    m, n = a.shape
    flat = rng.choice(m * n, size=k, replace=False)
    for f in flat:
        i, j = divmod(int(f), n)
        a[i, j] = ctx.sadd(int(a[i, j]), int(ctx.rand_nonzero(rng)))


def make_solve_instance(ctx, n, m, rng):
    A, L0, U0 = make_grp_instance(ctx, n, rng)
    X = Mat(ctx, ctx.rand(rng, (m, n)))
    B = Mat(ctx, ctx.matmul(X.a, A.a))
    P = PackedLU.pack(L0, U0)
    # Y solves Y.U = B; X solves X.L = Y
    Y = Mat(ctx, B.a.copy())
    P.upper_tri().solve_right(Y.a)
    return A, B, P, Y, X


def test_tr_inv_clean():
    rng = np.random.default_rng(0)
    U = rand_upper(FBIG, 24, rng)
    R = upper_inverse(FBIG, U)
    orig = R.a.copy()
    rep = tr_inv_ec(R, U, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(R.a, orig)
    assert rep.corrected == 0 and rep.verified


def test_tr_inv_hand_gf7():
    U = Tri(Mat(F7, [[1, 2], [0, 3]]), "upper")
    R = Mat(F7, [[1, 0], [0, 5]])  # true inverse is [[1,4],[0,5]]
    rep = tr_inv_ec(R, U, TrsmEcParams(0.05, seed=2))
    assert R.a.tolist() == [[1, 4], [0, 5]]
    # a system this narrow is checked and solved densely, without projection
    assert rep.dense_verified
    assert rep.lam == 0
    assert rep.stage == "tr_inv_ec"


def test_tr_inv_rejects_lower_triangle():
    # R.L = I for a lower L is not the inverse this corrector promises
    rng = np.random.default_rng(4)
    L = rand_upper(FBIG, 24, rng).T
    R = Mat(FBIG, FBIG.rand(rng, (24, 24)))
    orig = R.a.copy()
    with pytest.raises(ValueError):
        tr_inv_ec(R, L, TrsmEcParams(0.05, seed=5))
    assert np.array_equal(R.a, orig)


@pytest.mark.parametrize("k", [1, 16, 200])
def test_tr_inv_random_and_oracle(k):
    rng = np.random.default_rng(10 + k)
    for trial in range(8):
        U = rand_upper(FBIG, 64, rng)
        truth = upper_inverse(FBIG, U)
        R = Mat(FBIG, truth.a.copy())
        corrupt(FBIG, R.a, k, rng)
        R2 = Mat(FBIG, R.a.copy())
        tr_inv_ec(R, U, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(R.a, truth.a)
        # independent corrector: R.U = I as a plain triangular correction
        H = BlackboxRHS(C=Mat.identity(FBIG, 64))
        trsm_ec_upper_right(R2, H, U, TrsmEcParams(0.05, seed=1000 + trial))
        assert np.array_equal(R2.a, R.a)


@pytest.mark.parametrize("ctx", [F7, FBIG], ids=["gf7", "65537"])
def test_tr_inv_full_row_goes_dense(ctx):
    # a whole wrong row of the inverse candidate makes a dense solve cheaper
    # than recovering n columns; over GF(7) the loop runs lifted
    rng = np.random.default_rng(14)
    U = rand_upper(ctx, 48, rng)
    truth = upper_inverse(ctx, U)
    R = Mat(ctx, truth.a.copy())
    R.a[5, 5:] = ctx.add(R.a[5, 5:], ctx.rand_nonzero(rng, (43,)))
    rep = tr_inv_ec(R, U, TrsmEcParams(0.05, seed=3))
    assert np.array_equal(R.a, truth.a)
    assert rep.dense_verified and rep.lam > 0
    assert sorted(rep.positions) == [(5, j) for j in range(5, 48)]
    assert rep.corrected == 43


def test_solve_small_hand_gf5():
    A = Mat(F5, [[2, 1], [4, 4]])
    B = Mat(F5, [[1, 0]])
    P = crout_reference(Mat(F5, A.a.copy()))
    bundle = SmallRhsBundle(A=A, B=B, lu_candidate=P,
                            Y_candidate=Mat.zeros(F5, 1, 2),
                            X_candidate=Mat.zeros(F5, 1, 2), eps=0.05)
    X, rep = solve_small_rhs(bundle, TrsmEcParams(0.05, seed=3))
    assert X.a.tolist() == [[1, 1]]
    assert np.array_equal(F5.matmul(X.a, A.a), B.a)


def test_solve_small_zero_rhs():
    rng = np.random.default_rng(1)
    A, L0, U0 = make_grp_instance(F7, 6, rng)
    P = PackedLU.pack(L0, U0)
    corrupt(F7, P.mat.a, 4, rng)
    bundle = SmallRhsBundle(A=A, B=Mat.zeros(F7, 2, 6), lu_candidate=P,
                            Y_candidate=Mat.zeros(F7, 2, 6),
                            X_candidate=Mat.zeros(F7, 2, 6), eps=0.05)
    X, _ = solve_small_rhs(bundle, TrsmEcParams(0.05, seed=4))
    assert not X.a.any()


def test_small_m_cutoff_shape():
    assert small_m_cutoff(2) >= 1
    assert small_m_cutoff(256) == 2.0  # 256^(1/8)


def test_solve_small_random_suite():
    rng = np.random.default_rng(2)
    for trial in range(10):
        A, B, P, Y, X = make_solve_instance(FBIG, 48, 8, rng)
        truth = X.a.copy()
        corrupt(FBIG, P.mat.a, 6, rng)
        corrupt(FBIG, Y.a, 4, rng)
        corrupt(FBIG, X.a, 4, rng)
        bundle = SmallRhsBundle(A=A, B=B, lu_candidate=P, Y_candidate=Y,
                                X_candidate=X, eps=0.05)
        out, rep = solve_small_rhs(bundle, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(out.a, truth)
        assert np.array_equal(FBIG.matmul(out.a, A.a), B.a)


def test_solve_small_backsolve_shortcut():
    # m = 1 <= n^(1/8): candidates are ignored, factors corrected, X solved
    rng = np.random.default_rng(3)
    A, B, P, Y, X = make_solve_instance(FBIG, 32, 1, rng)
    truth = X.a.copy()
    corrupt(FBIG, P.mat.a, 5, rng)
    junkY = Mat(FBIG, FBIG.rand(rng, (1, 32)))
    junkX = Mat(FBIG, FBIG.rand(rng, (1, 32)))
    bundle = SmallRhsBundle(A=A, B=B, lu_candidate=P, Y_candidate=junkY,
                            X_candidate=junkX, eps=0.05)
    out, _ = solve_small_rhs(bundle, TrsmEcParams(0.05, seed=5))
    assert np.array_equal(out.a, truth)


def test_solve_large_random_suite():
    rng = np.random.default_rng(4)
    for trial in range(6):
        n, m = 32, 256
        A, B, P, _, X = make_solve_instance(FBIG, n, m, rng)
        truth = X.a.copy()
        Rinv = upper_inverse(FBIG, P.upper_tri())
        corrupt(FBIG, P.mat.a, 6, rng)
        corrupt(FBIG, Rinv.a, 5, rng)
        corrupt(FBIG, X.a, 8, rng)
        bundle = LargeRhsBundle(A=A, B=B, lu_candidate=P,
                                Rinv_candidate=Rinv, X_candidate=X, eps=0.05)
        out, rep = solve_large_rhs(bundle, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(out.a, truth)
        assert np.array_equal(FBIG.matmul(out.a, A.a), B.a)


def test_solve_large_zero_rhs():
    rng = np.random.default_rng(5)
    A, L0, U0 = make_grp_instance(F7, 6, rng)
    P = PackedLU.pack(L0, U0)
    Rinv = upper_inverse(F7, P.upper_tri())
    corrupt(F7, Rinv.a, 3, rng)
    bundle = LargeRhsBundle(A=A, B=Mat.zeros(F7, 3, 6), lu_candidate=P,
                            Rinv_candidate=Rinv,
                            X_candidate=Mat.zeros(F7, 3, 6), eps=0.05)
    X, _ = solve_large_rhs(bundle, TrsmEcParams(0.05, seed=6))
    assert not X.a.any()


def test_pipeline_epsilon_split():
    rng = np.random.default_rng(6)
    A, B, P, Y, X = make_solve_instance(FBIG, 24, 8, rng)
    bundle = SmallRhsBundle(A=A, B=B, lu_candidate=P, Y_candidate=Y,
                            X_candidate=X, eps=0.3)
    _, rep = solve_small_rhs(bundle, TrsmEcParams(0.3, seed=7))
    for child in rep.children:
        assert child.epsilon <= 0.1 + 1e-12


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1])
def test_unreduced_entries_are_reduced(p):
    # candidate entries a + p and a - p come back reduced; inputs out of
    # range are read as reduced and left as they were
    ctx = make_prime_field(p)
    rng = np.random.default_rng(9)

    def shift(a):
        a[0, -1] += p
        a[-1, 0] -= p

    U = rand_upper(ctx, 24, rng)
    R = upper_inverse(ctx, U)
    truth = R.a.copy()
    shift(R.a)
    U_in = Tri(Mat(ctx, U.a.copy()), "upper")
    U_in.a[0, 3] += p
    tr_inv_ec(R, U_in, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(R.a, truth)
    assert U_in.a[0, 3] == U.a[0, 3] + p

    for m, solve, make in ((1, solve_small_rhs, SmallRhsBundle),
                           (40, solve_large_rhs, LargeRhsBundle)):
        A, B, P, Y, X = make_solve_instance(ctx, 24, m, rng)
        truth = X.a.copy()
        B_in = B.copy()
        shift(B_in.a)
        for cand in (P.mat.a, X.a):
            shift(cand)
        if make is SmallRhsBundle:
            bundle = make(A=A, B=B_in, lu_candidate=P, Y_candidate=Y,
                          X_candidate=X, eps=0.05)
        else:
            Rinv = upper_inverse(ctx, P.upper_tri())
            shift(Rinv.a)
            bundle = make(A=A, B=B_in, lu_candidate=P, Rinv_candidate=Rinv,
                          X_candidate=X, eps=0.05)
        out, _ = solve(bundle, TrsmEcParams(0.05, seed=2))
        assert np.array_equal(out.a, truth)
