"""End-to-end acceptance checks.

Each test prints one summary line (CRITERION n: PASS/FAIL) so a plain
pytest -s run doubles as the acceptance protocol.  Criteria follow the
project requirements: exactness suites, oracle equivalences, cost trends,
and the Monte Carlo failure bound.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from eclu import ff
from eclu.blackbox import BlackboxRHS
from eclu.croutec import (crout_ec, crout_reference, make_grp_instance,
                          rank_deficient_ec, rect_ec)
from eclu.ff import element_of_order_at_least, extend_field, make_prime_field
from eclu.harness import _full, _strict_lower, _upper_incl, inject_errors
from eclu.mat import Mat, PackedLU, Tri, multiply
from eclu.sparseint import interpolate_column
from eclu.syssolve import (LargeRhsBundle, SmallRhsBundle, solve_large_rhs,
                           solve_small_rhs, tr_inv_ec)
from eclu.trsmec import (MonteCarloFailure, TrsmEcParams, trsm_ec_lower_left,
                         trsm_ec_lower_right, trsm_ec_upper_left,
                         trsm_ec_upper_right)

F2 = make_prime_field(2)
F7 = make_prime_field(7)
FBIG = make_prime_field(65537)


def _report(num, ok, detail):
    line = "CRITERION %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    return ok


def k_grid(n):
    legal = n * n  # strict lower + upper incl diagonal of the packed square
    ks = [0, 1, math.ceil(math.sqrt(n)), n, min(math.ceil(n * n / 10), legal)]
    return sorted(set(ks))


def corrupt_packed(ctx, packed, k, rng):
    n = packed.n
    if k == 0:
        return
    inject_errors(rng, ctx, [(packed.mat.a, _strict_lower(n, n)),
                             (packed.mat.a, _upper_incl(n, n))], k)


def test_criterion_1_reference_correctness():
    t0 = time.perf_counter()
    bad = 0
    for ctx, trials in ((FBIG, 100), (F2, 50)):
        rng = np.random.default_rng(1)
        for n in (4, 17, 64, 128):
            for _ in range(trials):
                A, L0, U0 = make_grp_instance(ctx, n, rng)
                P = crout_reference(A)
                if not (np.array_equal(P.extract_L().a, L0.a)
                        and np.array_equal(P.extract_U().a, U0.a)
                        and np.array_equal(P.rebuild().a, A.a)):
                    bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 30
    assert _report(1, ok, "600 factorizations, %d wrong, %.1fs" % (bad, dt))


def test_criterion_2_croutec_exactness():
    t0 = time.perf_counter()
    cells = bad_cells = 0
    for ctx in (F2, F7, FBIG):
        for n in (8, 32, 64, 128):
            for k in k_grid(n):
                rng = np.random.default_rng(1000 * n + k)
                good = 0
                trials = 25
                for trial in range(trials):
                    A, L0, U0 = make_grp_instance(ctx, n, rng)
                    truth = PackedLU.pack(L0, U0).mat.a
                    P = PackedLU.pack(L0.copy(), U0.copy())
                    corrupt_packed(ctx, P, k, rng)
                    try:
                        crout_ec(P, A, TrsmEcParams(0.05, seed=trial))
                    except MonteCarloFailure:
                        continue
                    if np.array_equal(P.mat.a, truth):
                        good += 1
                cells += 1
                if good < 0.95 * trials:
                    bad_cells += 1
    dt = time.perf_counter() - t0
    ok = bad_cells == 0 and dt < 300
    assert _report(2, ok, "%d cells, %d below 95%%, %.1fs"
                   % (cells, bad_cells, dt))


def _right_instance(ctx, m, n, ell, kind, rng):
    a = ctx.rand(rng, (n, n))
    a[np.arange(n), np.arange(n)] = ctx.rand_nonzero(rng, (n,))
    T = Tri(Mat(ctx, a), kind)
    R = Mat(ctx, ctx.rand(rng, (m, n)))
    A = Mat(ctx, ctx.rand(rng, (m, ell)))
    B = Mat(ctx, ctx.rand(rng, (ell, n)))
    C = Mat(ctx, ctx.add(ctx.matmul(R.a, T.dense().a),
                         ctx.matmul(A.a, B.a)))
    return R, BlackboxRHS(C=C, A=A, B=B), T


def _left_instance(ctx, m, n, kind, rng):
    a = ctx.rand(rng, (m, m))
    a[np.arange(m), np.arange(m)] = ctx.rand_nonzero(rng, (m,))
    T = Tri(Mat(ctx, a), kind)
    R = Mat(ctx, ctx.rand(rng, (m, n)))
    C = Mat(ctx, ctx.matmul(T.dense().a, R.a))
    return R, BlackboxRHS(C=C), T


def test_criterion_3_trsmec_variants():
    runs = wrong = bound_violations = 0
    for k in (0, 1, 11, 96):
        for variant in ("ur", "lr", "ll", "ul"):
            rng = np.random.default_rng(97 * k + ord(variant[0]))
            for trial in range(25):
                if variant in ("ur", "lr"):
                    kind = "upper" if variant == "ur" else "lower"
                    R, H, T = _right_instance(FBIG, 96, 128, 64, kind, rng)
                else:
                    kind = "lower" if variant == "ll" else "upper"
                    R, H, T = _left_instance(FBIG, 128, 96, kind, rng)
                truth = R.a.copy()
                cols = set()
                if k:
                    m_, n_ = R.shape
                    flat = rng.choice(m_ * n_, size=k, replace=False)
                    for f in flat:
                        i, j = divmod(int(f), n_)
                        R.a[i, j] = FBIG.sadd(int(R.a[i, j]),
                                              int(FBIG.rand_nonzero(rng)))
                        cols.add(j if variant in ("ur", "lr") else i)
                fn = {"ur": trsm_ec_upper_right, "lr": trsm_ec_lower_right,
                      "ll": trsm_ec_lower_left, "ul": trsm_ec_upper_left}
                rep = fn[variant](R, H, T, TrsmEcParams(0.05, seed=trial))
                runs += 1
                if not np.array_equal(R.a, truth):
                    wrong += 1
                    continue
                bound = (math.ceil(math.log2(max(len(cols), 1)))
                         + math.ceil(math.log2(max(k, 1))) + 1)
                if rep.correcting_rounds > bound:
                    bound_violations += 1
    ok = wrong == 0 and bound_violations == 0
    assert _report(3, ok, "%d runs, %d wrong, %d iteration-bound violations"
                   % (runs, wrong, bound_violations))


def test_criterion_4_sparse_interpolation():
    t0 = time.perf_counter()
    F13 = make_prime_field(13)
    tab = element_of_order_at_least(F13, 6)
    bad = total = 0

    def evals(ctx, table, rows, entries):
        out = [0] * rows
        for j, v in entries:
            for i in range(rows):
                out[i] = ctx.sadd(out[i],
                                  ctx.smul(v, pow(int(table.theta), i * j,
                                                  ctx.p)))
        return np.array(out, dtype=np.int64)

    for support in itertools.chain([()],
                                   itertools.combinations(range(6), 1),
                                   itertools.combinations(range(6), 2)):
        for values in itertools.product(range(1, 13), repeat=len(support)):
            entries = list(zip(support, values))
            col = interpolate_column(F13, evals(F13, tab, 4, entries), 2, tab)
            total += 1
            if col is None or list(zip(col.indices, col.values)) != entries:
                bad += 1
    for (m, s) in ((8, 1), (16, 3), (64, 8)):
        tb = element_of_order_at_least(FBIG, m)
        rng = np.random.default_rng(m)
        pw = np.array([[pow(int(tb.theta), i * j, FBIG.p) for j in range(m)]
                       for i in range(2 * s)], dtype=np.int64)
        for _ in range(1000):
            sp = int(rng.integers(0, s + 1))
            support = sorted(rng.choice(m, size=sp, replace=False).tolist())
            e = np.zeros(m, dtype=np.int64)
            for j in support:
                e[j] = int(FBIG.rand_nonzero(rng))
            col = interpolate_column(FBIG, FBIG.matmul(pw, e.reshape(-1, 1))[:, 0],
                                     s, tb)
            total += 1
            want = [(j, int(e[j])) for j in support]
            if col is None or list(zip(col.indices, col.values)) != want:
                bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 10
    assert _report(4, ok, "%d cases, %d wrong, %.1fs" % (total, bad, dt))


def test_criterion_5_rankdef_and_rect():
    m, n = 64, 96
    cells = bad_cells = 0
    for r in (1, m // 2, m - 1):
        rng = np.random.default_rng(r)
        good = 0
        for trial in range(25):
            A, L0, U0 = make_grp_instance(FBIG, (m, n), rng, rank=r)
            Lc, Uc = L0.copy(), U0.copy()
            inject_errors(rng, FBIG, [(Lc.a, _strict_lower(m, r)),
                                      (Uc.a, np.triu_indices(r, 0, n))],
                          min(8, r))
            try:
                rd, L, U, _ = rank_deficient_ec(A, Lc, Uc,
                                                TrsmEcParams(0.05, seed=trial))
            except MonteCarloFailure:
                continue
            if rd == r and np.array_equal(multiply(L, U).a, A.a):
                good += 1
        cells += 1
        if good < 0.95 * 25:
            bad_cells += 1
    # rectangular wrapper, corrupt both the packed square part and U2
    rng = np.random.default_rng(77)
    good = 0
    for trial in range(25):
        A, L0, U0 = make_grp_instance(FBIG, (32, 64), rng)
        P = PackedLU.pack(Mat(FBIG, L0.a[:, :32].copy()),
                          Mat(FBIG, U0.a[:, :32].copy()))
        U2 = Mat(FBIG, U0.a[:, 32:].copy())
        inject_errors(rng, FBIG, [(P.mat.a, _full(32, 32)),
                                  (U2.a, _full(32, 32))], 10)
        try:
            rect_ec(A, P, U2, TrsmEcParams(0.05, seed=trial))
        except MonteCarloFailure:
            continue
        full_U = np.hstack([P.extract_U().a, U2.a])
        if np.array_equal(FBIG.matmul(P.extract_L().a, full_U), A.a):
            good += 1
    cells += 1
    if good < 0.95 * 25:
        bad_cells += 1
    ok = bad_cells == 0
    assert _report(5, ok, "%d cells, %d below 95%%" % (cells, bad_cells))


def test_criterion_6_system_solving():
    cells = bad_cells = 0
    for n in (16, 64):
        for m in (2, 8, 256):
            for pipeline in ("small", "large"):
                rng = np.random.default_rng(13 * n + m)
                good = 0
                for trial in range(25):
                    A, L0, U0 = make_grp_instance(FBIG, n, rng)
                    X = Mat(FBIG, FBIG.rand(rng, (m, n)))
                    B = Mat(FBIG, FBIG.matmul(X.a, A.a))
                    P = PackedLU.pack(L0.copy(), U0.copy())
                    truth = X.a.copy()
                    try:
                        if pipeline == "small":
                            Y = Mat(FBIG, B.a.copy())
                            P.upper_tri().solve_right(Y.a)
                            Xc = X.copy()
                            corrupt_packed(FBIG, P, 5, rng)
                            inject_errors(rng, FBIG, [(Y.a, _full(m, n))], 3)
                            inject_errors(rng, FBIG, [(Xc.a, _full(m, n))], 3)
                            bundle = SmallRhsBundle(A, B, P, Y, Xc, 0.05)
                            out, _ = solve_small_rhs(
                                bundle, TrsmEcParams(0.05, seed=trial))
                        else:
                            R = Mat.identity(FBIG, n)
                            P.upper_tri().solve_right(R.a)
                            Xc = X.copy()
                            corrupt_packed(FBIG, P, 5, rng)
                            inject_errors(rng, FBIG, [(R.a, _full(n, n))], 3)
                            inject_errors(rng, FBIG, [(Xc.a, _full(m, n))], 3)
                            bundle = LargeRhsBundle(A, B, P, R, Xc, 0.05)
                            out, _ = solve_large_rhs(
                                bundle, TrsmEcParams(0.05, seed=trial))
                    except MonteCarloFailure:
                        continue
                    if np.array_equal(out.a, truth):
                        good += 1
                cells += 1
                if good < 0.95 * 25:
                    bad_cells += 1
    # oracle equivalence: tr_inv_ec vs plain triangular correction with an
    # identity right-hand side, bit for bit
    rng = np.random.default_rng(999)
    mismatches = 0
    for trial in range(25):
        a = np.triu(FBIG.rand(rng, (32, 32)))
        a[np.arange(32), np.arange(32)] = FBIG.rand_nonzero(rng, (32,))
        U = Tri(Mat(FBIG, a), "upper")
        R = Mat.identity(FBIG, 32)
        U.solve_right(R.a)
        inject_errors(rng, FBIG, [(R.a, _upper_incl(32, 32))], 6)
        R2 = Mat(FBIG, R.a.copy())
        tr_inv_ec(R, U, TrsmEcParams(0.05, seed=trial))
        trsm_ec_upper_right(R2, BlackboxRHS(C=Mat.identity(FBIG, 32)), U,
                            TrsmEcParams(0.05, seed=5000 + trial))
        if not np.array_equal(R.a, R2.a):
            mismatches += 1
    ok = bad_cells == 0 and mismatches == 0
    assert _report(6, ok, "%d cells, %d below 95%%, %d oracle mismatches"
                   % (cells, bad_cells, mismatches))


def test_criterion_7_cost_trend():
    t0 = time.perf_counter()
    n = 512
    rng = np.random.default_rng(7)
    A, L0, U0 = make_grp_instance(FBIG, n, rng)

    ref_times = []
    for _ in range(5):
        s = time.perf_counter()
        crout_reference(A)
        ref_times.append(time.perf_counter() - s)
    ref = statistics.median(ref_times)

    def run_k(k, reps=5):
        times = []
        ops = []
        for i in range(reps):
            P = PackedLU.pack(L0.copy(), U0.copy())
            corrupt_packed(FBIG, P, k, rng)
            ff.reset_op_count()
            s = time.perf_counter()
            crout_ec(P, A, TrsmEcParams(0.05, seed=i))
            times.append(time.perf_counter() - s)
            ops.append(ff.op_count())
        return statistics.median(times), statistics.median(ops)

    t_k0, _ = run_k(0)
    part_a = t_k0 <= 0.25 * ref

    ks = [1, 4, 16, 64, 256, 1024]
    medians = {}
    ops = {}
    for k in ks:
        medians[k], ops[k] = run_k(k)
    inversions = sum(1 for a, b in zip(ks, ks[1:])
                     if medians[b] < medians[a])
    part_b = inversions <= 1
    part_c = ops[16] <= 8 * ops[1]

    dt = time.perf_counter() - t0
    ok = part_a and part_b and part_c and dt < 600
    assert _report(
        7, ok,
        "k=0 at %.0f%% of reference (bound 25%%); %d inversion(s) in "
        "k-scaling; ops(16)/ops(1)=%.2f (bound 8); %.1fs"
        % (100 * t_k0 / ref, inversions, ops[16] / ops[1], dt))


def test_criterion_8_monte_carlo_bound():
    n, eps, trials = 32, 0.25, 2000
    rng = np.random.default_rng(8)
    failures = uncaught = 0
    for trial in range(trials):
        A, L0, U0 = make_grp_instance(FBIG, n, rng)
        truth = PackedLU.pack(L0, U0).mat.a
        P = PackedLU.pack(L0.copy(), U0.copy())
        corrupt_packed(FBIG, P, 300, rng)  # dense corruption
        try:
            crout_ec(P, A, TrsmEcParams(eps, seed=trial))
        except MonteCarloFailure:
            failures += 1
            continue
        if not np.array_equal(P.mat.a, truth):
            failures += 1
            # the deterministic gate must still flag the wrong output
            if np.array_equal(P.rebuild().a, A.a):
                uncaught += 1
    bound = eps + 3 * math.sqrt(eps * (1 - eps) / trials)
    ok = failures / trials <= bound and uncaught == 0
    assert _report(8, ok, "failure rate %.4f (bound %.4f), %d uncaught"
                   % (failures / trials, bound, uncaught))


def test_criterion_9_extension_field_path():
    big = extend_field(F2, 100)
    part_a = big.nu == 7 and big.q == 128
    # a correction over GF(2) with 100 rows must extend and coerce back
    rng = np.random.default_rng(9)
    R, H, U = _right_instance(F2, 100, 40, 8, "upper", rng)
    truth = R.a.copy()
    inject_errors(rng, F2, [(R.a, _full(100, 40))], 15)
    rep = trsm_ec_upper_right(R, H, U, TrsmEcParams(0.05, seed=1))
    part_b = (rep.extended and rep.ext_degree == 7
              and np.array_equal(R.a, truth)
              and set(np.unique(R.a)) <= {0, 1})
    ok = part_a and part_b
    assert _report(9, ok, "nu=%d, extended=%s, coerced back=%s"
                   % (big.nu, rep.extended, bool(part_b)))
