"""Reference Crout LU, its corrector, and the rectangular / rank-deficient
wrappers."""

import time

import numpy as np
import pytest

from eclu.croutec import (GrpViolation, crout_ec, crout_reference,
                          make_grp_instance, rank_deficient_ec, rect_ec)
from eclu.ff import make_prime_field
from eclu.mat import Mat, PackedLU, multiply
from eclu.trsmec import TrsmEcParams

F2 = make_prime_field(2)
F5 = make_prime_field(5)
F7 = make_prime_field(7)
FBIG = make_prime_field(65537)


def corrupt_packed(ctx, packed, k, rng):
    n = packed.n
    flat = rng.choice(n * n, size=k, replace=False)
    for f in flat:
        i, j = divmod(int(f), n)
        packed.mat.a[i, j] = ctx.sadd(int(packed.mat.a[i, j]),
                                      int(ctx.rand_nonzero(rng)))


def test_reference_identity():
    P = crout_reference(Mat.identity(F7, 8))
    assert np.array_equal(P.extract_L().a, np.eye(8, dtype=np.int64))
    assert np.array_equal(P.extract_U().a, np.eye(8, dtype=np.int64))


def test_reference_hand_gf5():
    P = crout_reference(Mat(F5, [[2, 1], [4, 4]]))
    assert P.extract_L().a.tolist() == [[1, 0], [2, 1]]
    assert P.extract_U().a.tolist() == [[2, 1], [0, 2]]


def test_reference_uniqueness():
    rng = np.random.default_rng(0)
    for n in (5, 33, 128):
        A, L0, U0 = make_grp_instance(FBIG, n, rng)
        P = crout_reference(A)
        assert np.array_equal(P.extract_L().a, L0.a)
        assert np.array_equal(P.extract_U().a, U0.a)


def test_reference_rejects_non_grp():
    # leading 1x1 minor is zero
    with pytest.raises(GrpViolation):
        crout_reference(Mat(F7, [[0, 1], [1, 0]]))


def test_croutec_clean_input_unchanged():
    rng = np.random.default_rng(1)
    A, _, _ = make_grp_instance(FBIG, 48, rng)
    P = crout_reference(A)
    orig = P.mat.a.copy()
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(P.mat.a, orig)
    assert rep.verified
    assert all(leaf.correcting_rounds == 0 for leaf in rep.iter_leaves())


def test_croutec_hand_gf5():
    A = Mat(F5, [[2, 1], [4, 4]])
    # candidate: L = I (error at L21), U = true U
    P = PackedLU.pack(Mat.identity(F5, 2), Mat(F5, [[2, 1], [0, 2]]))
    crout_ec(P, A, TrsmEcParams(0.05, seed=2))
    assert P.extract_L().a.tolist() == [[1, 0], [2, 1]]
    assert P.extract_U().a.tolist() == [[2, 1], [0, 2]]


@pytest.mark.parametrize("k", [1, 8, 64, 512])
def test_croutec_random_suite(k):
    rng = np.random.default_rng(10 + k)
    for trial in range(25):
        A, L0, U0 = make_grp_instance(FBIG, 64, rng)
        P = PackedLU.pack(L0, U0)
        corrupt_packed(FBIG, P, k, rng)
        _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(P.extract_L().a, L0.a)
        assert np.array_equal(P.extract_U().a, U0.a)


def test_croutec_gf2_extension():
    rng = np.random.default_rng(3)
    for trial in range(10):
        A, L0, U0 = make_grp_instance(F2, 40, rng)
        P = PackedLU.pack(L0, U0)
        corrupt_packed(F2, P, 15, rng)
        crout_ec(P, A, TrsmEcParams(0.05, seed=trial))
        assert np.array_equal(P.extract_L().a, L0.a)
        assert np.array_equal(P.extract_U().a, U0.a)


def test_croutec_result_is_factorization():
    rng = np.random.default_rng(4)
    A, _, _ = make_grp_instance(F7, 50, rng)
    P = crout_reference(A)
    corrupt_packed(F7, P, 200, rng)
    crout_ec(P, A, TrsmEcParams(0.05, seed=5))
    assert np.array_equal(P.rebuild().a, A.a)


def test_epsilon_budget_within_bound():
    rng = np.random.default_rng(5)
    A, _, _ = make_grp_instance(FBIG, 32, rng)
    P = crout_reference(A)
    corrupt_packed(FBIG, P, 10, rng)
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=6))
    assert rep.epsilon_budget() <= 0.05 + 1e-12


def test_rect_ec_square_reduces_to_croutec():
    rng = np.random.default_rng(6)
    A, L0, U0 = make_grp_instance(FBIG, 16, rng)
    P = PackedLU.pack(L0, U0)
    corrupt_packed(FBIG, P, 5, rng)
    U2 = Mat.zeros(FBIG, 16, 0)
    rect_ec(A, P, U2, TrsmEcParams(0.05, seed=7))
    assert np.array_equal(P.extract_L().a, L0.a)


def test_rect_ec_hand_gf5():
    A = Mat(F5, [[2, 1, 3], [4, 4, 1]])
    P = crout_reference(A.view(0, 0, 2, 2))
    # true U2 solves L.U2 = A2
    L = P.extract_L()
    U2 = Mat(F5, [[3], [0]])
    U2.a[:] = A.a[:, 2:]
    from eclu.mat import Tri
    Tri(L, "lower", unit=True).solve_left(U2.a)
    truth = U2.a.copy()
    U2.a[0, 0] = F5.sadd(int(U2.a[0, 0]), 2)  # corrupt
    rect_ec(A, P, U2, TrsmEcParams(0.05, seed=8))
    assert np.array_equal(U2.a, truth)
    full_U = np.hstack([P.extract_U().a, U2.a])
    assert np.array_equal(F5.matmul(P.extract_L().a, full_U), A.a)


def test_rect_ec_random_suite():
    rng = np.random.default_rng(7)
    for trial in range(10):
        A, L0, U0 = make_grp_instance(FBIG, (32, 64), rng)
        P = PackedLU.pack(Mat(FBIG, L0.a[:, :32]), Mat(FBIG, U0.a[:, :32]))
        U2 = Mat(FBIG, U0.a[:, 32:].copy())
        corrupt_packed(FBIG, P, 6, rng)
        U2.a[3, 7] = FBIG.sadd(int(U2.a[3, 7]), 11)
        rect_ec(A, P, U2, TrsmEcParams(0.05, seed=trial))
        full_U = np.hstack([P.extract_U().a, U2.a])
        assert np.array_equal(FBIG.matmul(P.extract_L().a, full_U), A.a)


def test_rankdef_zero_matrix():
    A = Mat.zeros(F5, 3, 4)
    r, L, U, rep = rank_deficient_ec(A, Mat.zeros(F5, 3, 2),
                                     Mat.zeros(F5, 2, 4),
                                     TrsmEcParams(0.05, seed=9))
    assert r == 0
    assert L.shape == (3, 0) and U.shape == (0, 4)


def test_rankdef_hand_gf5():
    A = Mat(F5, [[1, 2], [2, 4]])
    r, L, U, rep = rank_deficient_ec(A, Mat(F5, [[1, 0], [2, 1]]),
                                     Mat(F5, [[1, 2], [0, 0]]),
                                     TrsmEcParams(0.05, seed=10))
    assert r == 1
    assert L.a.tolist() == [[1], [2]]
    assert U.a.tolist() == [[1, 2]]


@pytest.mark.parametrize("r", [1, 16, 31])
def test_rankdef_random_suite(r):
    rng = np.random.default_rng(20 + r)
    m, n = 32, 48
    for trial in range(10):
        A, L0, U0 = make_grp_instance(FBIG, (m, n), rng, rank=r)
        Lc = Mat(FBIG, L0.a.copy())
        Uc = Mat(FBIG, U0.a.copy())
        for _ in range(4):
            i = int(rng.integers(1, m))
            j = int(rng.integers(0, min(i, r)))
            Lc.a[i, j] = FBIG.sadd(int(Lc.a[i, j]), int(FBIG.rand_nonzero(rng)))
            i = int(rng.integers(0, r))
            j = int(rng.integers(i, n))
            Uc.a[i, j] = FBIG.sadd(int(Uc.a[i, j]), int(FBIG.rand_nonzero(rng)))
        rd, L, U, rep = rank_deficient_ec(A, Lc, Uc,
                                         TrsmEcParams(0.05, seed=trial))
        assert rd == r
        assert np.array_equal(multiply(L, U).a, A.a)


def shift_out_of_range(ctx, a, rng, k=4):
    """Add p to k entries of a and subtract p from k others, in place."""
    flat = rng.choice(a.size, size=2 * k, replace=False)
    a.flat[flat[:k]] += ctx.p
    a.flat[flat[k:]] -= ctx.p


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1])
def test_croutec_reduces_unreduced_entries(p):
    # entries a + p and a - p hold the right residue outside [0, p): the
    # candidate comes back reduced, and the input is read as reduced but
    # left as it was
    ctx = make_prime_field(p)
    rng = np.random.default_rng(6)
    A, L0, U0 = make_grp_instance(ctx, 40, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    shift_out_of_range(ctx, P.mat.a, rng)
    A_in = A.copy()
    shift_out_of_range(ctx, A_in.a, rng)
    before = A_in.a.copy()
    _, rep = crout_ec(P, A_in, TrsmEcParams(0.05, seed=1))
    assert rep.verified and np.array_equal(P.mat.a, truth)
    assert np.array_equal(A_in.a, before)


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1])
def test_rect_and_rankdef_reduce_unreduced_entries(p):
    ctx = make_prime_field(p)
    rng = np.random.default_rng(7)
    A, L0, U0 = make_grp_instance(ctx, (16, 24), rng)
    P = PackedLU.pack(Mat(ctx, L0.a[:, :16]), Mat(ctx, U0.a[:, :16]))
    U2 = Mat(ctx, U0.a[:, 16:].copy())
    shift_out_of_range(ctx, P.mat.a, rng)
    shift_out_of_range(ctx, U2.a, rng)
    A_in = A.copy()
    shift_out_of_range(ctx, A_in.a, rng)
    rect_ec(A_in, P, U2, TrsmEcParams(0.05, seed=2))
    assert np.array_equal(P.extract_L().a, L0.a[:, :16])
    assert np.array_equal(np.hstack([P.extract_U().a, U2.a]), U0.a)

    A, L0, U0 = make_grp_instance(ctx, (16, 24), rng, rank=10)
    Lc, Uc = L0.copy(), U0.copy()
    shift_out_of_range(ctx, Lc.a, rng)
    shift_out_of_range(ctx, Uc.a, rng)
    A_in = A.copy()
    shift_out_of_range(ctx, A_in.a, rng)
    r, L, U, _ = rank_deficient_ec(A_in, Lc, Uc, TrsmEcParams(0.05, seed=3))
    assert r == 10
    assert np.array_equal(L.a, L0.a) and np.array_equal(U.a, U0.a)


_PATTERNS = {
    "row": np.s_[70, :],
    "col": np.s_[:, 70],
    "block": np.s_[48:80, 40:72],
    "diag": (np.arange(128), np.arange(128)),
}


@pytest.mark.parametrize("ctx", [F7, FBIG], ids=["gf7", "65537"])
@pytest.mark.parametrize("pattern", sorted(_PATTERNS))
def test_croutec_structured_errors(ctx, pattern):
    # whole wrong rows, columns and blocks and a zeroed U diagonal at
    # n = 128; a wrong row or column leaves strips with many bad columns or
    # many errors in one column, which a strip corrector ends with a dense
    # solve after a projected round (lam > 0)
    rng = np.random.default_rng(13)
    A, L0, U0 = make_grp_instance(ctx, 128, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    idx = _PATTERNS[pattern]
    if pattern == "diag":
        P.mat.a[idx] = 0
    else:
        sub = P.mat.a[idx]
        P.mat.a[idx] = ctx.add(sub, ctx.rand_nonzero(rng, sub.shape))
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=4))
    assert np.array_equal(P.mat.a, truth)
    if pattern in ("row", "col"):
        assert any(leaf.stage.startswith("trsmec") and leaf.dense_verified
                   and leaf.lam > 0 for leaf in rep.iter_leaves())


def test_croutec_report_leaves_named_and_timed():
    # clean n = 64: each leaf is a dense block check or a projection check
    # of a strip, and each one reports its own time
    rng = np.random.default_rng(8)
    A, L0, U0 = make_grp_instance(FBIG, 64, rng)
    _, rep = crout_ec(PackedLU.pack(L0, U0), A, TrsmEcParams(0.05, seed=1))
    leaves = list(rep.iter_leaves())
    assert all(leaf.wall_time > 0 for leaf in leaves)
    assert {leaf.stage for leaf in leaves if leaf.dense_verified} == {
        "dense_block"}
    assert {leaf.stage for leaf in leaves if not leaf.dense_verified} == {
        "trsmec_upper_right"}
    # an error on U's diagonal takes the recursion down to narrow strips,
    # which are checked densely; the U strip and the L strip are named apart
    A, L0, U0 = make_grp_instance(FBIG, 32, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    P.mat.a[3, 3] = FBIG.sadd(int(P.mat.a[3, 3]), 1)
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    dense = [leaf for leaf in rep.iter_leaves() if leaf.dense_verified]
    assert {leaf.stage for leaf in dense} == {
        "dense_block", "dense_strip_u", "dense_strip_l"}
    assert all(leaf.wall_time > 0 for leaf in dense)


def test_croutec_root_report_times_itself_and_holds_largest_lam():
    # the root's time covers its own pivots and dense checks as well as
    # its stages, and its lam is the largest lam of the stages
    rng = np.random.default_rng(12)
    A, L0, U0 = make_grp_instance(FBIG, 64, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(FBIG, P, 4, rng)
    t0 = time.perf_counter()
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=2))
    outside = time.perf_counter() - t0
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    leaves = list(rep.iter_leaves())
    assert sum(c.wall_time for c in rep.children) < rep.wall_time <= outside
    assert max(leaf.lam for leaf in leaves) > 0
    assert rep.lam == max(leaf.lam for leaf in leaves)
