"""Error-correcting triangular solves, all four variants."""

import copy
import math

import numpy as np
import pytest

from eclu import ff, sparseint, trsmec
from eclu.blackbox import BlackboxRHS
from eclu.croutec import crout_ec, make_grp_instance
from eclu.ff import make_ext_field, make_prime_field
from eclu.mat import Mat, PackedLU, Tri, multiply
from eclu.report import CorrectionReport
from eclu.syssolve import tr_inv_ec
from eclu.sparseint import batch_interpolate, interpolate_column
from eclu.trsmec import (TrsmEcParams, _projected_gap, dense_cheaper,
                         dense_price, freivalds_lambda, sparse_price,
                         trsm_ec_lower_left, trsm_ec_lower_right,
                         trsm_ec_upper_left, trsm_ec_upper_right)

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


def test_extension_field_recovery_round_gf2(monkeypatch):
    # m = 256 rows over GF(2) need GF(2^9); six errors in three columns are
    # sparse enough that recovery rounds run in the extension before the
    # loop ends on a clean projection, with no dense solve
    rng = np.random.default_rng(21)
    F2 = make_prime_field(2)
    m, n = 256, 128
    R, H, U = make_right_instance(F2, m, n, 8, rng)
    truth = R.a.copy()
    for j in rng.choice(n, 3, replace=False):
        R.a[rng.choice(m, 2, replace=False), j] ^= 1
    extended = []
    extend_field = ff.extend_field

    def spy(base, size):
        extended.append((base, size))
        return extend_field(base, size)

    monkeypatch.setattr(ff, "extend_field", spy)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=22))
    assert extended == [(F2, m)]
    assert rep.correcting_rounds >= 1 and not rep.dense_verified
    assert rep.extended and rep.ext_degree == 9
    assert np.array_equal(R.a, truth)
    assert set(np.unique(R.a)) <= {0, 1}


def test_empty_dimensions():
    rng = np.random.default_rng(9)
    U = rand_tri(F7, 4, "upper", rng)
    R = Mat.zeros(F7, 0, 4)
    rep = trsm_ec_upper_right(R, BlackboxRHS(C=Mat.zeros(F7, 0, 4)), U,
                              TrsmEcParams(0.05))
    assert rep.verified and rep.corrected == 0


def test_failure_keeps_only_confirmed_corrections(monkeypatch):
    # with one round allowed, the values the first round recovers are never
    # confirmed, so giving up rolls all of them back; the failure's report
    # is timed like any other
    monkeypatch.setattr(trsmec, "iteration_cap", lambda m, n: 1)
    rng = np.random.default_rng(11)
    R, H, U = make_right_instance(FBIG, 128, 128, 4, rng)
    corrupt(FBIG, R, 8, rng)
    before = R.a.copy()
    with pytest.raises(trsmec.MonteCarloFailure) as err:
        trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=1))
    assert np.array_equal(R.a, before)
    assert err.value.report.stop == "cap" and len(err.value.report.trace) == 1
    assert err.value.report.wall_time > 0


def dense_rhs_instance(ctx, n, rng):
    """(R, H, U, truth): R = truth an n-by-n solution of R.U = C, C dense."""
    U = rand_tri(ctx, n, "upper", rng)
    truth = ctx.rand(rng, (n, n))
    C = Mat(ctx, ctx.matmul(truth, U.dense().a))
    return Mat(ctx, truth.copy()), BlackboxRHS(C=C), U, truth


@pytest.mark.parametrize("p, n", [(7, 512), (65537, 256), (2, 256)])
def test_errors_already_fixed_count_in_the_guess(p, n):
    # 14 columns with one error and a 15th with two: the first round finds
    # 15 bad columns, so k >= 15 and s = 2 recovers all of them.  A guess
    # that leaves out the errors already fixed keeps s at 1 while it
    # doubles, 6 correcting rounds here
    ctx = make_prime_field(p)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        R, H, U, truth = dense_rhs_instance(ctx, n, rng)
        for t, j in enumerate(rng.choice(n, 15, replace=False)):
            rows = rng.choice(n, 2 if t == 14 else 1, replace=False)
            R.a[rows, j] = ctx.add(R.a[rows, j],
                                   ctx.rand_nonzero(rng, (len(rows),)))
        rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=seed))
        assert np.array_equal(R.a, truth) and rep.stop == "clean"
        assert rep.correcting_rounds <= 3
        assert rep.trace[0]["c"] == 15 and rep.trace[0]["s"] >= 2


@pytest.mark.parametrize("p, n", [(65537, 256), (7, 256), (2, 128)])
def test_dense_errors_spend_at_most_one_recovery_round(p, n, monkeypatch):
    # k = n^2 / 10 wrong entries: every column is bad and holds about n / 10
    # errors.  The loop may try one recovery round before its sparse spend
    # would pass the price of the dense solve; doubling s until the columns
    # recover hands about 6 n of them to interpolation
    ctx = make_prime_field(p)
    handed = []

    def spy(ctx, G, s, tab):
        handed.append(G.shape[1])
        return batch_interpolate(ctx, G, s, tab)

    monkeypatch.setattr(trsmec, "batch_interpolate", spy)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        R, H, U, truth = dense_rhs_instance(ctx, n, rng)
        corrupt(ctx, R, n * n // 10, rng)
        handed.clear()
        rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=seed))
        assert np.array_equal(R.a, truth) and rep.stop == "dense"
        assert sum(handed) <= n and len(rep.trace) <= 2
        assert sum(step["tried"] for step in rep.trace) == sum(handed)


@pytest.mark.parametrize("p", [7, 65537, 2 ** 31 - 1])
def test_full_occupancy_raises_the_first_guess(p):
    # k = 4n errors hit all but about e^-4 of the columns, so the first pass
    # reads k off its occupancy, -n ln(1 - c/n) >= 2c: it goes dense at once
    # or recovers at s >= 4, where the guess k = c alone would ask s = 2
    ctx = make_prime_field(p)
    n = 256
    for seed in range(2):
        rng = np.random.default_rng(seed)
        R, H, U, truth = dense_rhs_instance(ctx, n, rng)
        corrupt(ctx, R, 4 * n, rng)
        rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=seed))
        assert np.array_equal(R.a, truth)
        first = rep.trace[0]
        assert first["k_guess"] >= 2 * first["c"] > n
        assert first["s"] >= 4 or (rep.stop == "dense" and rep.rounds == 1)


@pytest.mark.parametrize("share", [8, 2])
def test_half_occupancy_keeps_the_first_guess(share):
    # 3 errors in each of n/share columns: at most half the columns are
    # bad, -n ln(1 - c/n) < 2c, so the first pass keeps k = c and s = 2
    n = 512
    rng = np.random.default_rng(share)
    R, H, U, truth = dense_rhs_instance(FBIG, n, rng)
    for j in rng.choice(n, n // share, replace=False):
        rows = rng.choice(n, 3, replace=False)
        R.a[rows, j] = FBIG.add(R.a[rows, j], FBIG.rand_nonzero(rng, (3,)))
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=share))
    assert np.array_equal(R.a, truth)
    first = rep.trace[0]
    assert first["c"] == first["k_guess"] == n // share and first["s"] == 2


@pytest.mark.parametrize("ctx, k", [(FBIG, 60), (F7, 12)], ids=repr)
def test_round_trace_records_every_pass(ctx, k):
    # one record per projected pass: the last one is clean, each recovery
    # tries every bad column, theta comes from GF(7^3) over GF(7), and the
    # trace round-trips through JSON
    rng = np.random.default_rng(15)
    R, H, U = make_right_instance(ctx, 300, 256, 8, rng)
    truth = R.a.copy()
    corrupt(ctx, R, k, rng)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=3))
    assert np.array_equal(R.a, truth)
    assert rep.stop == "clean" and len(rep.trace) == rep.rounds
    assert rep.trace[-1]["c"] == 0 and rep.trace[-1]["k_done"] == k
    recovering = [step for step in rep.trace if step["tried"]]
    assert len(recovering) == rep.correcting_rounds >= 1
    for step in recovering:
        assert step["tried"] == step["c"] and step["s"] >= 2
        assert step["ext"] == (ctx is F7) and 0 <= step["failed"] < step["c"]
        assert step["k_guess"] >= step["k_done"] + step["c"]
    assert CorrectionReport.from_json(rep.to_json()) == rep


@pytest.mark.parametrize("make", [
    lambda: make_prime_field(65537), lambda: ff.PrimeField(65537),
    lambda: make_ext_field(7, 3), lambda: ff.ExtField(F7, 3)],
    ids=["65537", "65537-new", "343", "343-new"])
def test_equal_fields_share_one_power_table(make):
    # two equal but distinct field objects, each large enough to hold
    # theta: equal fields give every code the same meaning, so both
    # recoveries use one power table, built for whichever came first
    for copy_field in (lambda F: F, copy.deepcopy):
        ctx = copy_field(make())
        rng = np.random.default_rng(16)
        R, H, U = make_right_instance(ctx, 200, 128, 8, rng)
        truth = R.a.copy()
        corrupt(ctx, R, 12, rng)
        rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=4))
        assert np.array_equal(R.a, truth)
        assert rep.stop == "clean" and rep.correcting_rounds >= 1
        assert not rep.extended


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
        assert not _projected_gap(ctx, W, H, R, U).any()


# each public variant, with the kind of the right instance whose transpose
# (for a left variant) it solves
_VARIANTS = [(trsm_ec_upper_right, "upper", False),
             (trsm_ec_lower_right, "lower", False),
             (trsm_ec_lower_left, "upper", True),
             (trsm_ec_upper_left, "lower", True)]


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1])
def test_unreduced_entries_are_reduced(p):
    # candidate entries a + p and a - p come back reduced; input operands
    # out of range are read as reduced and left as they were
    ctx = make_prime_field(p)
    rng = np.random.default_rng(12)
    for variant, kind, left in _VARIANTS:
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


@pytest.mark.parametrize("variant, kind, left", _VARIANTS,
                         ids=[v.__name__ for v, _, _ in _VARIANTS])
@pytest.mark.parametrize("k", [3, 400])
def test_variant_reports_its_own_stage_name(variant, kind, left, k):
    # the left variants run on R^T but report each wrong entry once, as
    # (row, column) of R, after projected rounds (k = 3) or a dense solve
    rng = np.random.default_rng(13 + k)
    R, H, T = make_right_instance(FBIG, 160, 128, 8, rng, kind=kind)
    if left:
        R, H, T = R.T, H.T, T.T
    truth = R.a.copy()
    corrupt(FBIG, R, k, rng)
    wrong = set(zip(*(x.tolist() for x in np.nonzero(R.a != truth))))
    rep = variant(R, H, T, TrsmEcParams(0.05, seed=1))
    assert rep.stage == variant.__name__.replace("trsm_ec_", "trsmec_")
    assert rep.verified and np.array_equal(R.a, truth)
    assert bool(rep.dense_verified) == (k == 400) and rep.lam > 0
    assert sorted(rep.positions) == sorted(wrong) and rep.corrected == k


def test_bare_failure_bound_accepted():
    # every public corrector takes a bare eps in place of a TrsmEcParams
    rng = np.random.default_rng(14)
    for variant, kind, left in _VARIANTS:
        R, H, T = make_right_instance(FBIG, 20, 20, 6, rng, kind=kind)
        if left:
            R, H, T = R.T, H.T, T.T
        truth = R.a.copy()
        corrupt(FBIG, R, 3, rng)
        assert variant(R, H, T, 0.05).verified
        assert np.array_equal(R.a, truth)
    U = rand_tri(FBIG, 20, "upper", rng)
    Rinv = Mat.identity(FBIG, 20)
    U.solve_right(Rinv.a)
    truth = Rinv.a.copy()
    corrupt(FBIG, Rinv, 3, rng)
    assert tr_inv_ec(Rinv, U, 0.05).verified
    assert np.array_equal(Rinv.a, truth)


_SHAPES = [(m, n, ell) for m in (1, 3, 8, 32, 100, 512)
           for n in (1, 2, 8, 33, 128, 1024) for ell in (0, 1, 16, 300)]


def test_dense_cheaper_without_columns_is_the_narrow_system_test():
    # the loop's entry test is the in-loop test with nothing spent and no
    # bad column: the dense solve priced against one projected pass.  A
    # system dense at entry stays dense with any bad column; square systems
    # of 8 columns go dense, those of 32 are projected
    for q, eps in ((2, 0.05), (7, 0.0125), (343, 0.25), (65537, 2.0 ** -20),
                   (2 ** 31 - 1, 0.05)):
        for m, n, ell in _SHAPES:
            entry = dense_cheaper(q, eps, m, n, ell)
            assert entry == (dense_price(q, m, n, ell)
                             <= sparse_price(q, eps, m, n, ell))
            if entry:
                assert dense_cheaper(q, eps, m, n, ell, 1, 1)
        assert dense_cheaper(q, eps, 1, 1, 0)
        assert dense_cheaper(q, eps, 8, 8, 0)
        assert not dense_cheaper(q, eps, 32, 32, 0)
        assert not dense_cheaper(q, eps, 512, 1024, 300)


def test_dense_price_follows_the_kernel():
    # products at 2^31 - 1 run on 11-bit limbs, dearer than the float64
    # products at 65537 and 7, which cost the same
    for m, n, ell in _SHAPES:
        assert (dense_price(2 ** 31 - 1, m, n, ell)
                > dense_price(65537, m, n, ell) == dense_price(7, m, n, ell))


def test_python_int_kernel_prices_above_the_limbs():
    # at p >= 2^31 PrimeField.matmul multiplies Python ints, far dearer than
    # the limbs below 2^31; so two wrong entries of a 64-square system are
    # recovered in one round where a dense solve would cost more
    for m, n, ell in _SHAPES:
        assert (dense_price(2 ** 61 - 1, m, n, ell)
                > dense_price(2 ** 31 - 1, m, n, ell))
    F = make_prime_field(2 ** 61 - 1)
    rng = np.random.default_rng(61)
    R, H, U = make_right_instance(F, 64, 64, 0, rng)
    truth = R.a.copy()
    corrupt(F, R, 2, rng)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=61))
    assert rep.stop == "clean" and rep.corrected == 2
    assert np.array_equal(R.a, truth)


def test_dense_cheaper_monotone_in_columns_terms_and_spend():
    # more bad columns, more terms per column or more sparse work already
    # spent never favour the sparse path; any bad column adds recovery work
    # to the price of a pass
    for q, eps in ((343, 0.0125), (65537, 0.05)):
        for m, n, ell in _SHAPES:
            for s in (1, 2, 8, 64):
                seq = [dense_cheaper(q, eps, m, n, ell, c, s)
                       for c in range(1, n + 1)]
                assert seq == sorted(seq)
            for c in (1, 5, n):
                seq = [dense_cheaper(q, eps, m, n, ell, c, s)
                       for s in range(1, m + 1)]
                assert seq == sorted(seq)
                seq = [dense_cheaper(q, eps, m, n, ell, c, 2, spent)
                       for spent in (0, 10 ** 3, 10 ** 6, 10 ** 9)]
                assert seq == sorted(seq)
            assert (sparse_price(q, eps, m, n, ell, 1, 1)
                    > sparse_price(q, eps, m, n, ell))


def test_dense_cheaper_never_asked_about_a_clean_round(monkeypatch):
    calls = []

    def spy(q, eps, m, n, ell, c=None, s=0, spent=0):
        calls.append(c)
        return dense_cheaper(q, eps, m, n, ell, c, s, spent)

    monkeypatch.setattr(trsmec, "dense_cheaper", spy)
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


@pytest.fixture
def ext_calls(monkeypatch):
    """Counts of the ExtField.matmul and ff.extend_field calls of a test."""
    calls = {"matmul": 0, "extend": 0}
    matmul, extend = ff.ExtField.matmul, ff.extend_field

    def spy_matmul(self, A, B):
        calls["matmul"] += 1
        return matmul(self, A, B)

    def spy_extend(base, m):
        calls["extend"] += 1
        return extend(base, m)

    monkeypatch.setattr(ff.ExtField, "matmul", spy_matmul)
    monkeypatch.setattr(ff, "extend_field", spy_extend)
    return calls


@pytest.mark.parametrize("base", [make_prime_field(2), F7,
                                  make_ext_field(2, 2)], ids=repr)
def test_recovery_rounds_multiply_only_over_the_base(base, monkeypatch):
    # m > q: theta comes from the extension big built over base, and the
    # recovery rounds interpolate there, but every product of the call is
    # over base (GF(4) products are ExtField products of base itself)
    rng = np.random.default_rng(27)
    m, n = 256, 256
    R, H, U = make_right_instance(base, m, n, 8, rng)
    truth = R.a.copy()
    corrupt(base, R, 6, rng)
    fields, interpolated = [], []
    matmul = ff.ExtField.matmul

    def spy_matmul(self, A, B):
        fields.append(self)
        return matmul(self, A, B)

    def spy_interpolate(ctx, G, s, tab):
        interpolated.append(tab.ctx)
        return batch_interpolate(ctx, G, s, tab)

    monkeypatch.setattr(ff.ExtField, "matmul", spy_matmul)
    monkeypatch.setattr(trsmec, "batch_interpolate", spy_interpolate)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=27))
    big = ff.extend_field(base, m)
    assert np.array_equal(R.a, truth)
    assert rep.correcting_rounds >= 1 and not rep.dense_verified
    assert interpolated and set(interpolated) == {big} and big.base is base
    assert set(fields) <= {base} and big not in fields


def test_gf7_lu_at_a_tenth_wrong_stays_in_the_base_field(ext_calls):
    # n = 128 and k = n^2/10: once the first leaf has shown how dense the
    # errors are, the nodes refactor their rests in GF(7) itself, so no
    # strip recovers over an extension
    rng = np.random.default_rng(24)
    A, L0, U0 = make_grp_instance(F7, 128, rng)
    P = PackedLU.pack(L0, U0)
    truth = P.mat.a.copy()
    corrupt(F7, P.mat, 128 * 128 // 10, rng)
    _, rep = crout_ec(P, A, TrsmEcParams(0.05, seed=24))
    assert np.array_equal(P.mat.a, truth)
    assert any(leaf.stage == "dense_node" for leaf in rep.iter_leaves())
    assert ext_calls == {"matmul": 0, "extend": 0}


@pytest.mark.parametrize("p", [2, 7])
def test_clean_solve_verifies_in_the_base_field(p, ext_calls):
    # k = 0 with m >= q: a projected round (lam > 0) finds nothing to
    # recover, so the extension that recovery would need is never built
    ctx = make_prime_field(p)
    rng = np.random.default_rng(25)
    R, H, U = make_right_instance(ctx, 128, 128, 0, rng)
    truth = R.a.copy()
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=25))
    assert np.array_equal(R.a, truth)
    assert rep.verified and rep.lam > 0 and rep.correcting_rounds == 0
    assert rep.extended and rep.ext_degree == (8 if p == 2 else 3)
    assert ext_calls == {"matmul": 0, "extend": 0}


def test_value_outside_the_base_field_fails_its_column(monkeypatch):
    # recovery over GF(2) with m = 200 runs in GF(2^8).  One recovered value
    # v becomes x + v, outside GF(2) but equal to v mod 2, so only the
    # coercion can reject it: the column must not be committed, so a later
    # round recovers it again, and the call must still end exact.  The
    # rejected column counts as holding more than s errors, so that round
    # runs at a larger s; n = 512 keeps it cheaper than a dense solve
    rng = np.random.default_rng(26)
    F2 = make_prime_field(2)
    R, H, U = make_right_instance(F2, 200, 512, 4, rng)
    truth = R.a.copy()
    corrupt(F2, R, 6, rng)
    wrong = set(zip(*(x.tolist() for x in np.nonzero(R.a != truth))))
    calls, poisoned = [], []

    def spy(ctx, G, s, tab):
        calls.append([])  # the columns this round recovers
        return batch_interpolate(ctx, G, s, tab)

    def poison(ctx, evals, s, tab):
        col = interpolate_column(ctx, evals, s, tab)
        if col is not None and col.indices:
            calls[-1].append((col.indices, list(col.values)))
            if not poisoned:
                poisoned.append((len(calls), calls[-1][-1]))
                col.values[0] += 2
        return col

    monkeypatch.setattr(trsmec, "batch_interpolate", spy)
    monkeypatch.setattr(sparseint, "interpolate_column", poison)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=26))
    first, col = poisoned[0]
    assert any(col in later for later in calls[first:])
    assert rep.extended and rep.ext_degree == 8
    assert np.array_equal(R.a, truth)
    assert len(rep.positions) == len(set(rep.positions))
    assert set(rep.positions) == wrong and rep.corrected == len(wrong)


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
def test_full_row_or_column_goes_dense(ctx, pattern, ext_calls):
    # a whole wrong row gives n bad columns, a whole wrong column one bad
    # column with m errors; either way a dense solve ends the loop (lam > 0:
    # after a projected round), and the report lists each wrong entry once,
    # also over GF(7) and GF(4), whose recovery field is an extension.  The
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
    # the extension is built iff a recovery round ran before the dense solve
    recovered = rep.correcting_rounds > 1
    assert (ext_calls["extend"] > 0) == (rep.extended and recovered)
    assert set(rep.positions) == wrong
    assert rep.corrected == len(rep.positions) == len(wrong)
