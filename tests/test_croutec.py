"""Reference Crout LU, its corrector, and the rectangular / rank-deficient
wrappers."""

import time

import numpy as np
import pytest

from eclu import croutec, ff, mat, trsmec
from eclu.croutec import (GrpViolation, crout_ec, crout_reference,
                          make_grp_instance, rank_deficient_ec, rect_ec)
from eclu.ff import FieldCtx, make_ext_field, make_prime_field
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


def _differ(a, b):
    return set(zip(*(x.tolist() for x in np.nonzero(a != b))))


def _reported_once(rep):
    """Positions of every leaf of rep, checked to be reported only once."""
    reported = [pos for leaf in rep.iter_leaves() for pos in leaf.positions]
    assert len(reported) == len(set(reported))
    return set(reported)


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


# crout_reference and its leaf against a Python-int Doolittle LU.  The
# sizes cross the leaf size croutec._BLOCK_CHECK = 16 and its odd splits.
LEAF_FIELDS = [make_prime_field(p) for p in (2, 7, 2 ** 16 + 1, 2 ** 31 - 1,
                                             2 ** 61 - 1)]
LEAF_FIELDS += [make_ext_field(7, 3)]


def oracle_ops(ctx):
    """(mul, sub, inv) on field codes in Python ints, without ctx's kernel
    or tables: residues mod p, or base-p digit lists folded by the
    modulus."""
    p, nu = ctx.p, ctx.nu
    if nu == 1:
        return (lambda a, b: a * b % p, lambda a, b: (a - b) % p,
                lambda a: pow(a, p - 2, p))

    def digits(a):
        return [a // p ** i % p for i in range(nu)]

    def code(d):
        return sum(x % p * p ** i for i, x in enumerate(d))

    def mul(a, b):
        c = [0] * (2 * nu - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                c[i + j] += x * y
        for d in range(2 * nu - 2, nu - 1, -1):
            for i in range(nu):
                c[d - nu + i] -= c[d] * ctx.modulus[i]
        return code(c[:nu])

    def inv(a):
        out, e = 1, ctx.q - 2
        while e:
            if e & 1:
                out = mul(out, a)
            a, e = mul(a, a), e >> 1
        return out

    return (mul, lambda a, b: code(x - y for x, y in zip(digits(a),
                                                           digits(b))), inv)


def oracle_lu(ctx, A):
    """Packed Doolittle LU of a GRP matrix A in Python ints: row i of U,
    then column i of L, each from dot products with the rows and columns
    before i."""
    mul, sub, inv = oracle_ops(ctx)
    a = [[int(x) for x in row] for row in A]
    n = len(a)
    for i in range(n):
        for j in range(i, n):
            for k in range(i):
                a[i][j] = sub(a[i][j], mul(a[i][k], a[k][j]))
        d = inv(a[i][i])
        for j in range(i + 1, n):
            for k in range(i):
                a[j][i] = sub(a[j][i], mul(a[j][k], a[k][i]))
            a[j][i] = mul(a[j][i], d)
    return np.array(a, dtype=np.int64).reshape(n, n)


@pytest.mark.parametrize("ctx", LEAF_FIELDS, ids=repr)
def test_reference_and_leaf_match_int_oracle(ctx):
    rng = np.random.default_rng(ctx.q % 1013)
    for n in (1, 15, 16, 17, 33):
        A, _, _ = make_grp_instance(ctx, n, rng)
        want = oracle_lu(ctx, A.a)
        assert np.array_equal(crout_reference(A).mat.a, want)
        if n > croutec._BLOCK_CHECK:
            continue
        # the leaf alone at offsets n1 > 0 of a larger buffer: it writes
        # only its block
        for n1 in (1, 16):
            M = ctx.rand(rng, (n1 + n + 3, n1 + n + 3))
            before = M.copy()
            s = slice(n1, n1 + n)
            croutec._factor_leaf(ctx, M[s, s], A.a.copy(), n1)
            assert np.array_equal(M[s, s], want)
            M[s, s] = before[s, s]
            assert np.array_equal(M, before)


@pytest.mark.parametrize("ctx", LEAF_FIELDS, ids=repr)
def test_leaf_zero_pivot_leaves_earlier_factors_final(ctx):
    # B = L0 . U0 with U0[i, i] = 0 has nonzero leading minors below i + 1,
    # so its first i columns of L and rows of U are L0's and U0's; the
    # trailing block from i on keeps what it held
    rng = np.random.default_rng(ctx.q % 1019)
    ns, n1 = croutec._BLOCK_CHECK, 5
    _, L0, U0 = make_grp_instance(ctx, ns, rng)
    for i in range(ns):
        U = U0.a.copy()
        U[i, i] = 0
        B = ctx.matmul(L0.a, U)
        M = ctx.rand(rng, (n1 + ns, n1 + ns))
        Ms, before = M[n1:, n1:], M.copy()
        with pytest.raises(GrpViolation) as err:
            croutec._factor_leaf(ctx, Ms, B, n1)
        assert err.value.index == n1 + i
        for j in range(i):
            assert np.array_equal(Ms[j + 1:, j], L0.a[j + 1:, j])
            assert np.array_equal(Ms[j, j:], U0.a[j, j:])
        assert np.array_equal(Ms[i:, i:], before[n1 + i:, n1 + i:])
        M[n1:, n1:] = before[n1:, n1:]
        assert np.array_equal(M, before)


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
    # positions index the packed wide matrix [L\U1 U2]
    rng = np.random.default_rng(7)
    for trial in range(10):
        A, L0, U0 = make_grp_instance(FBIG, (32, 64), rng)
        P = PackedLU.pack(Mat(FBIG, L0.a[:, :32]), Mat(FBIG, U0.a[:, :32]))
        U2 = Mat(FBIG, U0.a[:, 32:].copy())
        truth = np.hstack([P.mat.a, U2.a])
        corrupt_packed(FBIG, P, 6, rng)
        U2.a[3, 7] = FBIG.sadd(int(U2.a[3, 7]), 11)
        wrong = _differ(np.hstack([P.mat.a, U2.a]), truth)
        _, _, rep = rect_ec(A, P, U2, TrsmEcParams(0.05, seed=trial))
        full_U = np.hstack([P.extract_U().a, U2.a])
        assert np.array_equal(FBIG.matmul(P.extract_L().a, full_U), A.a)
        assert _reported_once(rep) == wrong and rep.corrected == len(wrong)


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
        # L and U share one m-by-n packed array, so their positions do too
        wrong = _differ(Lc.a, L0.a) | _differ(Uc.a, U0.a)
        rd, L, U, rep = rank_deficient_ec(A, Lc, Uc,
                                         TrsmEcParams(0.05, seed=trial))
        assert rd == r
        assert np.array_equal(multiply(L, U).a, A.a)
        assert _reported_once(rep) == wrong and rep.corrected == len(wrong)


def test_rankdef_overclaimed_rank_reports_only_factor_entries():
    # a candidate of rank r + 3 holds garbage past r; the zero pivot at r
    # ends elimination inside a diagonal block, and what that block held
    # past r is no entry of the r-shaped factors, so none is reported
    rng = np.random.default_rng(26)
    m, n, r = 32, 48, 10
    A, L0, U0 = make_grp_instance(FBIG, (m, n), rng, rank=r)
    Lc = np.zeros((m, r + 3), dtype=np.int64)
    Uc = np.zeros((r + 3, n), dtype=np.int64)
    Lc[:, :r], Uc[:r] = L0.a, U0.a
    Lc[r + 1:, r:] = np.tril(FBIG.rand_nonzero(rng, (m - r - 1, 3)))
    Uc[r:, r:] = np.triu(FBIG.rand_nonzero(rng, (3, n - r)))
    rd, L, U, rep = rank_deficient_ec(A, Mat(FBIG, Lc), Mat(FBIG, Uc),
                                     TrsmEcParams(0.05, seed=27))
    assert rd == r
    assert np.array_equal(multiply(L, U).a, A.a)
    assert all(i < r or j < r for i, j in _reported_once(rep))


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
    # clean n = 64: the root's node check passes, and its freivalds_lu leaf
    # is the only one
    rng = np.random.default_rng(8)
    A, L0, U0 = make_grp_instance(FBIG, 64, rng)
    _, rep = crout_ec(PackedLU.pack(L0, U0), A, TrsmEcParams(0.05, seed=1))
    [leaf] = rep.iter_leaves()
    assert leaf.stage == "freivalds_lu" and leaf.verified
    assert leaf.wall_time > 0 and leaf.lam > 0
    # one error in each root strip and one in the first diagonal block:
    # each leaf is a dense block check, a correction loop on a U strip or
    # an L strip, or a node check, and each one reports its own time.  The
    # first node's clean strips pass their projection; each root strip's
    # projection finds its one bad column, which the loop then settles by a
    # dense solve, priced below a recovery round at 32 columns
    A, L0, U0 = make_grp_instance(FBIG, 64, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    for i, j in ((3, 3), (2, 40), (40, 2)):
        P.mat.a[i, j] = FBIG.sadd(int(P.mat.a[i, j]), 1)
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    leaves = list(rep.iter_leaves())
    assert all(leaf.wall_time > 0 for leaf in leaves)
    assert {leaf.stage for leaf in leaves if leaf.dense_verified} == {
        "dense_block", "trsmec_lower_left", "trsmec_upper_right"}
    assert {leaf.stage for leaf in leaves if not leaf.dense_verified} == {
        "trsmec_lower_left", "trsmec_upper_right", "freivalds_lu"}
    assert [(leaf.stage, leaf.positions, leaf.stop,
             [step["c"] for step in leaf.trace])
            for leaf in leaves if leaf.positions] == [
                ("dense_block", [(3, 3)], "", []),
                ("trsmec_lower_left", [(2, 40)], "dense", [1]),
                ("trsmec_upper_right", [(40, 2)], "dense", [1])]
    # an error on U's diagonal is recomputed with its diagonal block, which
    # alone reports it
    A, L0, U0 = make_grp_instance(FBIG, 32, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    P.mat.a[3, 3] = FBIG.sadd(int(P.mat.a[3, 3]), 1)
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    leaves = list(rep.iter_leaves())
    assert all(leaf.wall_time > 0 for leaf in leaves)
    assert [(leaf.stage, leaf.positions) for leaf in leaves
            if leaf.positions] == [("dense_block", [(3, 3)])]
    # over GF(2) a 16-wide strip is checked by one dense solve, and the U
    # strip and the L strip are named apart
    A, L0, U0 = make_grp_instance(F2, 32, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    for i, j in ((2, 20), (20, 2)):
        P.mat.a[i, j] ^= 1
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    leaves = list(rep.iter_leaves())
    assert all(leaf.wall_time > 0 for leaf in leaves)
    strips = [leaf for leaf in leaves if leaf.stage.startswith("trsmec")]
    assert [(leaf.stage, leaf.positions) for leaf in strips] == [
        ("trsmec_lower_left", [(2, 20)]), ("trsmec_upper_right", [(20, 2)])]
    assert all(leaf.dense_verified and leaf.lam == 0 for leaf in strips)


@pytest.mark.parametrize("ctx", [F7, make_ext_field(2, 2), FBIG,
                                 make_prime_field(2 ** 31 - 1)],
                         ids=["gf7", "gf4", "65537", "p31"])
@pytest.mark.parametrize("k", [5, 60, 900])
def test_croutec_positions_are_the_wrong_entries(ctx, k):
    # every wrong entry is reported once, by the leaf that corrects it, in
    # the packed matrix's coordinates, and the root counts them all
    n = 96
    rng = np.random.default_rng(k)
    A, L0, U0 = make_grp_instance(ctx, n, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(ctx, P, k, rng)
    wrong = set(zip(*(x.tolist() for x in np.nonzero(P.mat.a != truth))))
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=k))
    assert np.array_equal(P.mat.a, truth)
    reported = [pos for leaf in rep.iter_leaves() for pos in leaf.positions]
    assert len(reported) == len(set(reported))
    assert set(reported) == wrong
    assert rep.corrected == len(wrong)


def test_croutec_range_checks_its_two_operands_once(monkeypatch):
    calls = []
    canonical = FieldCtx.canonical

    def spy(self, a, in_place=False):
        calls.append(a.shape)
        return canonical(self, a, in_place)

    monkeypatch.setattr(FieldCtx, "canonical", spy)
    rng = np.random.default_rng(14)
    for ctx in (F7, FBIG):
        A, L0, U0 = make_grp_instance(ctx, 64, rng)
        P = PackedLU.pack(L0.copy(), U0.copy())
        corrupt_packed(ctx, P, 20, rng)
        calls.clear()
        crout_ec(P, A, TrsmEcParams(0.05, seed=3))
        assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
        assert calls == [(64, 64), (64, 64)]


def test_croutec_inverts_each_diagonal_block_once(monkeypatch,
                                                 leaf_inversions):
    # the levels of one call solve against sub-triangles of two root
    # triangles, so a base block of the packed buffer, in one orientation,
    # is inverted once however many levels and rounds solve against it
    rng = np.random.default_rng(16)
    n = 256
    A, L0, U0 = make_grp_instance(FBIG, n, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(FBIG, P, 20, rng)
    buf = P.mat.a
    built, looked_up = leaf_inversions(buf), []
    block_inverse = mat.Tri._block_inverse

    def counting_lookup(self, o, b):
        if np.shares_memory(self.a, buf):
            looked_up.append((self.kind, self.unit, self._off + o, b))
        return block_inverse(self, o, b)

    monkeypatch.setattr(mat.Tri, "_block_inverse", counting_lookup)
    crout_ec(P, A, TrsmEcParams(0.05, seed=5))
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    assert built and len(built) == len(set(built))
    assert len(looked_up) > len(built)  # some block served from the store


def test_rank_deficient_ec_solves_against_crout_ecs_inverses(
        monkeypatch, leaf_inversions):
    # at full rank the strips right of and below the d-by-d block solve
    # against the roots of the call's crout_ec, so no diagonal leaf of the
    # packed block is inverted twice in one orientation
    F31 = make_prime_field(2 ** 31 - 1)
    rng = np.random.default_rng(17)
    m, n = 192, 240
    A, L0, U0 = make_grp_instance(F31, (m, n), rng)
    L, U = L0.copy(), U0.copy()
    for M, k in ((L, 20), (U, 30)):
        flat = rng.choice(M.a.size, size=k, replace=False)
        M.a.flat[flat] = F31.add(M.a.flat[flat], F31.rand_nonzero(rng, (k,)))
    watched = []
    roots = croutec._crout_ec_roots

    def packed_buffer(packed, A, params):
        if not watched:  # the first call's buffer
            watched.append(leaf_inversions(packed.mat.a))
        return roots(packed, A, params)

    monkeypatch.setattr(croutec, "_crout_ec_roots", packed_buffer)
    r, L1, U1, _ = rank_deficient_ec(A, L, U, TrsmEcParams(0.05, seed=18))
    assert (r, L1, U1) == (m, L0, U0)
    built = watched[0]
    assert built and len(built) == len(set(built))


def test_croutec_recomputes_wrong_blocks_without_solves(monkeypatch):
    # the shape of lu-correct-gf7: most 16-row diagonal blocks are wrong,
    # and each is refactored from its check's own Schur complement
    rng = np.random.default_rng(23)
    n = 128
    A, L0, U0 = make_grp_instance(F7, n, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(F7, P, n * n // 10, rng)
    inside, solves = [], []
    dense_block = croutec._dense_block

    def spy_block(*args):
        inside.append(True)
        try:
            return dense_block(*args)
        finally:
            inside.pop()

    def spy_solve(name):
        solve = getattr(mat.Tri, name)

        def spy(self, B):
            if inside:
                solves.append(name)
            return solve(self, B)
        return spy

    monkeypatch.setattr(croutec, "_dense_block", spy_block)
    for name in ("solve_right", "solve_left"):
        monkeypatch.setattr(mat.Tri, name, spy_solve(name))
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=24))
    assert np.array_equal(P.mat.a, truth)
    assert any(leaf.stage == "dense_block" and leaf.correcting_rounds
               for leaf in rep.iter_leaves())
    assert solves == []


def test_reference_inverts_at_most_two_blocks_per_leaf(monkeypatch):
    # the leaves invert nothing; the levels solve against the base blocks
    # of two root triangles, each inverted once
    n = 1024
    A, L0, U0 = make_grp_instance(FBIG, n, np.random.default_rng(25))
    built = []
    inverse = mat._inverse

    def counting_inverse(ctx, a, kind, unit):
        built.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return inverse(ctx, a, kind, unit)

    monkeypatch.setattr(mat, "_inverse", counting_inverse)
    P = crout_reference(A)
    assert np.array_equal(P.mat.a, PackedLU.pack(L0, U0).mat.a)
    assert 0 < len(built) <= 2 * n // croutec._BLOCK_CHECK


def test_croutec_non_grp_input_names_the_zero_pivot():
    # U0[20, 20] = 0 makes the leading 21-by-21 minor of A zero while the
    # smaller ones stay nonzero.  The violation carries the call's report,
    # whose leaves name the entries corrected before the pivot: here those
    # in the first leaf, in both strips of the node on 0..23, and in the
    # leaf that holds the pivot
    rng = np.random.default_rng(15)
    _, L0, U0 = make_grp_instance(FBIG, 48, rng)
    U0.a[20, 20] = 0
    A = multiply(L0, U0)
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(FBIG, P, 10, rng)
    early = {(5, 5), (3, 15), (14, 2), (17, 12)}
    for i, j in early:
        P.mat.a[i, j] = FBIG.sadd(int(P.mat.a[i, j]), 1)
    before = P.mat.a.copy()
    with pytest.raises(GrpViolation) as err:
        crout_ec(P, A, TrsmEcParams(0.05, seed=4))
    assert err.value.index == 20
    rep = err.value.report
    assert rep.stage == "croutec" and rep.seed == 4 and rep.wall_time > 0
    assert _differ(P.mat.a, before) == early
    assert _reported_once(rep) == early and rep.corrected == len(early)


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


def test_rankdef_croutec_stage_times_itself():
    # the stage's time covers the node checks that failed and the pivots,
    # which are no leaves, as well as its leaves
    rng = np.random.default_rng(21)
    A, L0, U0 = make_grp_instance(FBIG, (96, 80), rng, rank=60)
    Lc, Uc = L0.copy(), U0.copy()
    Lc.a[70, 5] = FBIG.sadd(int(Lc.a[70, 5]), 1)
    r, _, _, rep = rank_deficient_ec(A, Lc, Uc, TrsmEcParams(0.05, seed=2))
    assert r == 60
    stage = rep.children[0]
    assert stage.stage == "croutec" and stage.seed == 2
    assert sum(c.wall_time for c in stage.children) < stage.wall_time


@pytest.mark.parametrize("ctx", [F2, F7, make_ext_field(2, 2), FBIG,
                                 make_prime_field(2 ** 31 - 1)],
                         ids=["gf2", "gf7", "gf4", "65537", "p31"])
def test_croutec_clean_call_is_one_node_check(ctx, monkeypatch):
    # a correct candidate passes the root's check: nothing is corrected or
    # descended into, and the check's share keeps the budget within eps
    loops = []

    def spy(*args):
        loops.append(args[-1])
        return correction_loop(*args)

    correction_loop = croutec._correction_loop
    monkeypatch.setattr(croutec, "_correction_loop", spy)
    rng = np.random.default_rng(17)
    A, L0, U0 = make_grp_instance(ctx, 80, rng)
    P = PackedLU.pack(L0, U0)
    orig = P.mat.a.copy()
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=3))
    assert np.array_equal(P.mat.a, orig)
    assert loops == []
    assert [leaf.stage for leaf in rep.iter_leaves()] == ["freivalds_lu"]
    assert rep.verified and rep.lam > 0
    assert 0 < rep.epsilon_budget() <= 0.05


def test_croutec_descends_only_along_a_wrong_block():
    # a wrong 16-by-16 block at the bottom right: the nodes off its path
    # pass their checks, so each of the log2(256/16) nodes on it corrects
    # its two strips and no other strip is visited
    rng = np.random.default_rng(18)
    n = 256
    A, L0, U0 = make_grp_instance(FBIG, n, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    blk = P.mat.a[n - 16:, n - 16:]
    blk[...] = FBIG.add(blk, FBIG.rand_nonzero(rng, blk.shape))
    wrong = _differ(P.mat.a, truth)
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=7))
    assert np.array_equal(P.mat.a, truth)
    assert _reported_once(rep) == wrong
    strips = [leaf for leaf in rep.iter_leaves()
              if leaf.stage.startswith("trsmec")]
    assert len(strips) <= 2 * int(np.log2(n // 16))
    assert rep.epsilon_budget() <= 0.05


def test_croutec_corrects_a_deep_node_that_factors_its_own_block():
    # the trailing node on 192..255 holds the factors of A_s itself rather
    # than of A_s - L_prefix . U_prefix: a check without the prefix product
    # would pass it
    rng = np.random.default_rng(19)
    n, s = 256, np.s_[192:, 192:]
    A, L0, U0 = make_grp_instance(FBIG, n, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    P.mat.a[s] = crout_reference(Mat(FBIG, A.a[s])).mat.a
    wrong = _differ(P.mat.a, truth)
    assert wrong and min(min(pos) for pos in wrong) >= 192
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=8))
    assert np.array_equal(P.mat.a, truth)
    assert _reported_once(rep) == wrong
    assert rep.corrected == len(wrong)
    assert rep.epsilon_budget() <= 0.05


def test_croutec_exact_product_with_zero_pivot_still_raises():
    # L.U = A holds exactly, so only the check's diagonal guard sends the
    # nodes holding U[20, 20] = 0 down to the pivot that raises
    rng = np.random.default_rng(20)
    _, L0, U0 = make_grp_instance(FBIG, 64, rng)
    U0.a[20, 20] = 0
    A = multiply(L0, U0)
    P = PackedLU.pack(L0, U0)
    with pytest.raises(GrpViolation) as err:
        crout_ec(P, A, TrsmEcParams(0.05, seed=9))
    assert err.value.index == 20


def _dense_errors(ctx, n, k, rng):
    """(A, truth, candidate): a GRP instance whose packed factors have k
    wrong entries."""
    A, L0, U0 = make_grp_instance(ctx, n, rng)
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(ctx, P, k, rng)
    return A, PackedLU.pack(L0, U0).mat.a, P


def test_croutec_dense_errors_refactor_nodes_without_interpolation(
        monkeypatch):
    # a tenth of the entries wrong over GF(7): the first leaf shows the
    # density, each node then refactors its rest as one dense_node leaf,
    # and no strip interpolates.  Each wrong entry is reported once
    handed = []

    def spy(ctx, G, s, tab):
        handed.append(G.shape[1])
        return batch_interpolate(ctx, G, s, tab)

    batch_interpolate = trsmec.batch_interpolate
    monkeypatch.setattr(trsmec, "batch_interpolate", spy)
    n = 128
    for seed in range(3):
        A, truth, P = _dense_errors(F7, n, n * n // 10,
                                    np.random.default_rng(seed))
        wrong = _differ(P.mat.a, truth)
        _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=seed))
        assert np.array_equal(P.mat.a, truth) and handed == []
        assert _reported_once(rep) == wrong and rep.corrected == len(wrong)
        nodes = [leaf for leaf in rep.iter_leaves()
                 if leaf.stage == "dense_node"]
        assert nodes and all(
            leaf.stop == "dense" and leaf.correcting_rounds == 1
            and [sorted(step) for step in leaf.trace] == [sorted(
                ["found", "settled", "k", "descent", "refactor"])]
            and leaf.trace[0]["refactor"] < leaf.trace[0]["descent"]
            for leaf in nodes)


@pytest.mark.parametrize("seed", range(3))
def test_croutec_a_few_errors_in_the_first_leaf_refactor_nothing(seed):
    # 16 errors in a 256-by-256 candidate, the density of 256 at n = 1024,
    # one of them in the first 16-by-16 leaf: read as a density, that one
    # error would predict errors all over the first node.  The lower
    # confidence bound on the count predicts none, so every node descends
    rng = np.random.default_rng(seed)
    n, k = 256, 16
    A, L0, U0 = make_grp_instance(FBIG, n, rng)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    i, j = np.divmod(rng.choice(n * n, 4 * k, replace=False), n)
    keep = (i >= 16) | (j >= 16)
    i, j = np.r_[3, i[keep][:k - 1]], np.r_[5, j[keep][:k - 1]]
    P.mat.a[i, j] = FBIG.add(P.mat.a[i, j], FBIG.rand_nonzero(rng, (k,)))
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=seed))
    assert np.array_equal(P.mat.a, truth)
    leaves = list(rep.iter_leaves())
    assert leaves[0].stage == "dense_block" and leaves[0].positions == [(3, 5)]
    assert all(leaf.stage != "dense_node" for leaf in leaves)


def test_croutec_zero_pivot_inside_a_refactored_node():
    # U0[100, 100] = 0 and a tenth of the entries wrong: the pivot lies in
    # the rest of the root, which is refactored.  The violation names it,
    # the leading 100 rows and columns are final, and the report, its
    # dense_node leaf included, names every entry changed before the pivot
    rng = np.random.default_rng(30)
    n = 128
    _, L0, U0 = make_grp_instance(F7, n, rng)
    U0.a[100, 100] = 0
    A = multiply(L0, U0)
    truth = PackedLU.pack(L0, U0).mat.a
    P = PackedLU.pack(L0.copy(), U0.copy())
    corrupt_packed(F7, P, n * n // 10, rng)
    before = P.mat.a.copy()
    with pytest.raises(GrpViolation) as err:
        crout_ec(P, A, TrsmEcParams(0.05, seed=30))
    assert err.value.index == 100
    assert np.array_equal(P.mat.a[:100, :100], truth[:100, :100])
    rep = err.value.report
    assert rep.children[-1].stage == "dense_node"
    assert _reported_once(rep) == _differ(P.mat.a, before)
    assert rep.corrected == len(_differ(P.mat.a, before))


def test_rankdef_dense_errors_find_the_true_rank():
    # a tenth of the factors' entries wrong: the refactored nodes meet the
    # zero pivot at the true rank, and the strips past it are corrected
    rng = np.random.default_rng(31)
    m, n, r = 128, 160, 100
    A, L0, U0 = make_grp_instance(F7, (m, n), rng, rank=r)
    Lc, Uc = Mat(F7, L0.a.copy()), Mat(F7, U0.a.copy())
    for M, region in ((Lc, np.tril(np.ones((m, r), bool), -1)),
                      (Uc, np.triu(np.ones((r, n), bool)))):
        i, j = np.nonzero(region)
        pick = rng.choice(len(i), len(i) // 10, replace=False)
        M.a[i[pick], j[pick]] = F7.add(M.a[i[pick], j[pick]],
                                       F7.rand_nonzero(rng, (len(pick),)))
    rd, L, U, rep = rank_deficient_ec(A, Lc, Uc, TrsmEcParams(0.05, seed=31))
    assert rd == r
    assert np.array_equal(L.a, L0.a) and np.array_equal(U.a, U0.a)
    assert any(leaf.stage == "dense_node" for leaf in rep.iter_leaves())


@pytest.mark.parametrize("ctx, n", [(F7, 128), (F2, 256), (FBIG, 256)],
                         ids=["gf7", "gf2", "65537"])
def test_croutec_dense_errors_cost_near_the_reference(ctx, n):
    # the cost grows smoothly to that of recomputing: with a tenth of the
    # entries wrong, correcting takes at most 1.3 times the field ops of
    # crout_reference, counted rather than timed
    for seed in range(3):
        A, truth, P = _dense_errors(ctx, n, n * n // 10,
                                    np.random.default_rng(seed))
        ff.reset_op_count()
        crout_ec(P, A, TrsmEcParams(0.05, seed=seed))
        ops = ff.op_count()
        assert np.array_equal(P.mat.a, truth)
        ff.reset_op_count()
        crout_reference(A)
        assert ops <= 1.3 * ff.op_count()
