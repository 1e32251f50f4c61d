"""System-solving pipelines and triangular inverse correction, and the
checks that every public corrector shares: operand fields and reports."""

import time

import numpy as np
import pytest

from eclu import ff, trsmec
from eclu.blackbox import BlackboxRHS
from eclu.croutec import (crout_ec, crout_reference, make_grp_instance,
                          rank_deficient_ec, rect_ec)
from eclu.ff import make_prime_field
from eclu.mat import DimensionError, Mat, PackedLU, Tri
from eclu.syssolve import (LargeRhsBundle, SmallRhsBundle, solve_large_rhs,
                           solve_small_rhs, tr_inv_ec)
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
    # m = 1: junk candidates for Y and X are replaced by dense solves against
    # the corrected factors
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


def test_roots_time_their_whole_call():
    # a root's wall_time covers its own work as well as its children's
    rng = np.random.default_rng(7)
    A, L, U = make_grp_instance(FBIG, (16, 40), rng)
    corrupt(FBIG, U.a[:, 16:], 3, rng)
    Ad, Ld, Ud = make_grp_instance(FBIG, (30, 20), rng, rank=12)
    corrupt(FBIG, Ud.a[:, 12:], 3, rng)
    As, Bs, Ps, Ys, Xs = make_solve_instance(FBIG, 24, 8, rng)
    corrupt(FBIG, Xs.a, 3, rng)
    Al, Bl, Pl, _, Xl = make_solve_instance(FBIG, 24, 40, rng)
    corrupt(FBIG, Xl.a, 3, rng)
    Rinv = upper_inverse(FBIG, Pl.upper_tri())
    calls = {
        "rect_ec": lambda params: rect_ec(
            A, PackedLU.pack(L, U.view(0, 0, 16, 16)),
            U.view(0, 16, 16, 24).copy(), params)[2],
        "rank_deficient_ec": lambda params: rank_deficient_ec(
            Ad, Ld, Ud, params)[3],
        "solve_small_rhs": lambda params: solve_small_rhs(SmallRhsBundle(
            As, Bs, Ps, Ys, Xs, 0.05), params)[1],
        "solve_large_rhs": lambda params: solve_large_rhs(LargeRhsBundle(
            Al, Bl, Pl, Rinv, Xl, 0.05), params)[1],
    }
    for stage, call in calls.items():
        params = TrsmEcParams(0.05, seed=8)
        t0 = time.perf_counter()
        rep = call(params)
        elapsed = time.perf_counter() - t0
        assert rep.stage == stage and rep.corrected == 3
        assert sum(c.wall_time for c in rep.children) < rep.wall_time
        assert rep.wall_time <= elapsed


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


F31 = make_prime_field(2 ** 31 - 1)


@pytest.mark.parametrize("pipeline", ["large", "small", "rect"])
def test_pipelines_solve_against_crout_ecs_inverses(pipeline,
                                                    leaf_inversions):
    # the stages after crout_ec solve against the triangles it corrected,
    # so no leaf of the packed buffer is inverted twice in one call
    rng = np.random.default_rng(31)
    n = 192
    if pipeline == "rect":
        A, L0, U0 = make_grp_instance(F31, (n, n + 40), rng)
        P = PackedLU.pack(Mat(F31, L0.a), Mat(F31, U0.a[:, :n]))
        U2 = Mat(F31, U0.a[:, n:].copy())
        truth = np.hstack([P.mat.a, U2.a])
        corrupt(F31, P.mat.a, 24, rng)
        corrupt(F31, U2.a, 8, rng)
        built = leaf_inversions(P.mat.a)
        rect_ec(A, P, U2, TrsmEcParams(0.05, seed=32))
        assert np.array_equal(np.hstack([P.mat.a, U2.a]), truth)
    else:
        m = n if pipeline == "large" else 8
        A, B, P, Y, X = make_solve_instance(F31, n, m, rng)
        truth = X.a.copy()
        if pipeline == "large":
            Y = upper_inverse(F31, P.upper_tri())
        for cand, k in ((P.mat.a, 24), (Y.a, 8), (X.a, 8)):
            corrupt(F31, cand, k, rng)
        built = leaf_inversions(P.mat.a)
        if pipeline == "large":
            solve_large_rhs(LargeRhsBundle(A, B, P, Y, X, 0.05),
                            TrsmEcParams(0.05, seed=32))
        else:
            solve_small_rhs(SmallRhsBundle(A, B, P, Y, X, 0.05),
                            TrsmEcParams(0.05, seed=32))
        assert np.array_equal(X.a, truth)
    # in either orientation
    built = [(unit, o, b) for _, unit, o, b, _ in built]
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("entry", ["trsm_ec_upper_right", "tr_inv_ec"])
def test_public_entries_build_their_own_inverses(entry):
    # a caller's Tri whose store holds the inverse of a block that the
    # caller then overwrote: the public entries never read that store
    rng = np.random.default_rng(33)
    n = 96
    U = rand_upper(F31, n, rng)
    U.solve_right(F31.rand(rng, (2, n)))
    assert U._inv
    U.a[40:56, 40:56] = rand_upper(F31, 16, rng).a
    fresh = Tri(Mat(F31, U.a.copy()), "upper")
    if entry == "tr_inv_ec":
        truth = upper_inverse(F31, fresh)
        R = Mat(F31, truth.a.copy())
        corrupt(F31, R.a, 12, rng)
        tr_inv_ec(R, U, TrsmEcParams(0.05, seed=34))
    else:
        truth = Mat(F31, F31.rand(rng, (40, n)))
        C = Mat(F31, fresh.mul_right(truth.a))
        R = Mat(F31, truth.a.copy())
        corrupt(F31, R.a, 12, rng)
        trsm_ec_upper_right(R, BlackboxRHS(C=C), U,
                            TrsmEcParams(0.05, seed=34))
    assert np.array_equal(R.a, truth.a)


def corrector_case(name, k, rng, n=96):
    """(run, ops, exact) for the public corrector name over GF(65537):
    run(ops) calls it on the operands ops, its candidates carrying k errors
    in all, and returns its report; exact() says whether the candidates
    came out right."""
    params = TrsmEcParams(0.05, seed=k + 1)
    if name.startswith("trsm_ec_"):
        kind, side = name.split("_")[2:]
        a = FBIG.rand(rng, (n, n))
        a[np.arange(n), np.arange(n)] = FBIG.rand_nonzero(rng, (n,))
        T = Tri(Mat(FBIG, a), kind)
        truth = FBIG.rand(rng, (n, n))
        C = (FBIG.matmul(T.dense().a, truth) if side == "left"
             else T.mul_right(truth))
        ops = dict(R=Mat(FBIG, truth.copy()), C=Mat(FBIG, C), T=T)
        corrupt(FBIG, ops["R"].a, k, rng)
        return (lambda o: getattr(trsmec, name)(
                    o["R"], BlackboxRHS(C=o["C"]), o["T"], params),
                ops, lambda: np.array_equal(ops["R"].a, truth))
    if name == "tr_inv_ec":
        U = rand_upper(FBIG, n, rng)
        truth = upper_inverse(FBIG, U).a
        ops = dict(R=Mat(FBIG, truth.copy()), U=U)
        corrupt(FBIG, ops["R"].a, k, rng)
        return (lambda o: tr_inv_ec(o["R"], o["U"], params), ops,
                lambda: np.array_equal(ops["R"].a, truth))
    if name in ("crout_ec", "rect_ec"):
        extra = 32 if name == "rect_ec" else 0
        A, L0, U0 = make_grp_instance(FBIG, (n, n + extra), rng)
        ops = dict(A=A, P=PackedLU.pack(L0, Mat(FBIG, U0.a[:, :n])),
                   U2=Mat(FBIG, U0.a[:, n:].copy()))
        truth = np.hstack([ops["P"].mat.a, ops["U2"].a])
        corrupt(FBIG, ops["P"].mat.a, k - k * extra // (n + extra), rng)
        corrupt(FBIG, ops["U2"].a, k * extra // (n + extra), rng)
        if name == "crout_ec":
            run = lambda o: crout_ec(o["P"], o["A"], params)[1]
        else:
            run = lambda o: rect_ec(o["A"], o["P"], o["U2"], params)[2]
        return run, ops, lambda: np.array_equal(
            np.hstack([ops["P"].mat.a, ops["U2"].a]), truth)
    if name == "rank_deficient_ec":
        A, L0, U0 = make_grp_instance(FBIG, (n, n + 24), rng, rank=n - 16)
        ops, out = dict(A=A, L=L0.copy(), U=U0.copy()), []
        corrupt(FBIG, ops["L"].a, k // 3, rng)
        corrupt(FBIG, ops["U"].a, k - k // 3, rng)

        def run(o):
            out[:] = rank_deficient_ec(o["A"], o["L"], o["U"], params)
            return out[3]
        return run, ops, lambda: (out[0] == n - 16 and out[1] == L0
                                  and out[2] == U0)
    # the pipelines; solve_large_rhs corrects a candidate U^-1 as Y
    A, B, P, Y, X = make_solve_instance(FBIG, n, 4 if "small" in name else n,
                                        rng)
    if "large" in name:
        Y = upper_inverse(FBIG, P.upper_tri())
    truth = X.a.copy()
    ops = dict(A=A, B=B, P=P, Y=Y, X=X)
    for cand in (P.mat.a, Y.a, X.a):
        corrupt(FBIG, cand, min(k // 3, cand.size // 4), rng)
    solve, bundle = ((solve_small_rhs, SmallRhsBundle) if "small" in name
                     else (solve_large_rhs, LargeRhsBundle))
    return (lambda o: solve(bundle(o["A"], o["B"], o["P"], o["Y"], o["X"],
                                   0.05), params)[1],
            ops, lambda: np.array_equal(X.a, truth))


def over(G, x):
    """The operand x, a Mat, Tri or PackedLU, on the same buffer over G."""
    if isinstance(x, PackedLU):
        return PackedLU(over(G, x.mat))
    M = Mat(G, x.a)
    return Tri(M, x.kind, x.unit) if isinstance(x, Tri) else M


@pytest.mark.parametrize("name, odd", [
    ("trsm_ec_upper_right", "T"), ("trsm_ec_upper_right", "C"),
    ("trsm_ec_lower_right", "T"), ("trsm_ec_lower_left", "T"),
    ("trsm_ec_upper_left", "T"), ("tr_inv_ec", "U"), ("crout_ec", "P"),
    ("rect_ec", "U2"), ("rank_deficient_ec", "L"), ("solve_small_rhs", "B"),
    ("solve_large_rhs", "B")])
def test_operands_from_different_fields_are_rejected(name, odd):
    # an operand over GF(7) among operands over GF(65537) is refused before
    # anything is read as a code of the wrong field; an equal field built
    # apart is the same field
    run, ops, exact = corrector_case(name, 6, np.random.default_rng(41))
    with pytest.raises(DimensionError, match="different fields"):
        run(dict(ops, **{odd: over(F7, ops[odd])}))
    run(dict(ops, **{odd: over(ff.PrimeField(65537), ops[odd])}))
    assert exact()


@pytest.mark.parametrize("name", [
    "crout_ec", "trsm_ec_upper_right", "trsm_ec_lower_right",
    "trsm_ec_lower_left", "trsm_ec_upper_left", "tr_inv_ec", "rect_ec",
    "rank_deficient_ec", "solve_small_rhs", "solve_large_rhs"])
def test_every_report_counts_its_positions(name):
    # a few errors stop the correction loops clean, a quarter of the
    # entries wrong stops them dense; either way every leaf counts its
    # distinct positions in corrected, and every parent sums its children's
    stops = set()
    for n, k in ((256, 12), (96, 96 * 96 // 4)):
        run, ops, exact = corrector_case(name, k, np.random.default_rng(k), n)
        rep = run(ops)
        assert exact()
        for leaf in rep.iter_leaves():
            assert leaf.corrected == len(set(leaf.positions))
            assert len(leaf.positions) == len(set(leaf.positions))
            if leaf.corrected:
                stops.add(leaf.stop)
        parents = [rep]
        while parents:
            node = parents.pop()
            if node.children:
                assert node.corrected == sum(c.corrected
                                             for c in node.children)
                parents += node.children
    assert {"clean", "dense"} <= stops
