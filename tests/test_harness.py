"""Scenario generation, file round trips, CLI behavior, reports."""

import os

import numpy as np
import pytest

from eclu.cli import main
from eclu.ff import make_ext_field, make_prime_field
from eclu.harness import (Scenario, WORKLOADS, bench_lu, correct, gen,
                          inject_errors, verify)
from eclu.mat import Mat, multiply
from eclu.matio import read_matrix, write_matrix
from eclu.report import CorrectionReport, parse_report

F7 = make_prime_field(7)
FBIG = make_prime_field(65537)


def test_matrix_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for ctx in (F7, FBIG, make_ext_field(3, 2)):
        M = Mat(ctx, ctx.rand(rng, (5, 8)))
        path = str(tmp_path / "m.mat")
        write_matrix(path, M)
        back = read_matrix(path)
        assert back.ctx == ctx
        assert np.array_equal(back.a, M.a)


def test_matrix_file_sparse_roundtrip(tmp_path):
    M = Mat.zeros(F7, 6, 9)
    M.a[2, 5] = 3
    M.a[0, 0] = 1
    path = str(tmp_path / "s.mat")
    write_matrix(path, M, sparse=True)
    assert np.array_equal(read_matrix(path).a, M.a)


def test_gen_deterministic(tmp_path):
    sc = Scenario(p=65537, n=12, errors=3, seed=9, workload="lu")
    gen(sc, str(tmp_path / "a"))
    gen(sc, str(tmp_path / "b"))
    for name in ("A", "L_true", "U_true", "L_approx", "U_approx"):
        a = read_matrix(str(tmp_path / "a" / (name + ".mat")))
        b = read_matrix(str(tmp_path / "b" / (name + ".mat")))
        assert np.array_equal(a.a, b.a)


def test_gen_zero_errors_bit_identical(tmp_path):
    sc = Scenario(p=7, n=10, errors=0, seed=1, workload="lu")
    gen(sc, str(tmp_path / "z"))
    L = read_matrix(str(tmp_path / "z" / "L_true.mat"))
    La = read_matrix(str(tmp_path / "z" / "L_approx.mat"))
    assert np.array_equal(L.a, La.a)


def test_gen_single_error_reproducible(tmp_path):
    sc = Scenario(p=7, n=2, errors=1, seed=5, workload="lu")
    gen(sc, str(tmp_path / "one"))
    L = read_matrix(str(tmp_path / "one" / "L_true.mat")).a
    La = read_matrix(str(tmp_path / "one" / "L_approx.mat")).a
    U = read_matrix(str(tmp_path / "one" / "U_true.mat")).a
    Ua = read_matrix(str(tmp_path / "one" / "U_approx.mat")).a
    assert int((L != La).sum()) + int((U != Ua).sum()) == 1


def test_generated_instances_have_grp():
    # brute-force determinant check of every leading minor, small sizes
    def det_mod(a, p):
        a = [[int(x) for x in row] for row in a]
        n = len(a)
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] % p), None)
            if piv is None:
                return 0
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det = det * a[col][col] % p
            inv = pow(a[col][col], p - 2, p)
            for r in range(col + 1, n):
                f = a[r][col] * inv % p
                for c in range(col, n):
                    a[r][c] = (a[r][c] - f * a[col][c]) % p
        return det % p

    from eclu.croutec import make_grp_instance
    rng = np.random.default_rng(2)
    for n in (3, 8, 12):
        A, _, _ = make_grp_instance(F7, n, rng)
        for t in range(1, n + 1):
            assert det_mod(A.a[:t, :t], 7) != 0


def test_inject_errors_counts_and_regions():
    rng = np.random.default_rng(3)
    a = np.zeros((6, 6), dtype=np.int64)
    b = np.zeros((6, 6), dtype=np.int64)
    lower = np.tril_indices(6, -1)
    upper = np.triu_indices(6, 0)
    touched = inject_errors(rng, F7, [(a, lower), (b, upper)], 10)
    assert len(touched) == 10
    assert int((a != 0).sum()) + int((b != 0).sum()) == 10
    assert not np.triu(a).any()          # strictly lower region respected
    assert not np.tril(b, -1).any()      # upper-inclusive region respected


def test_inject_errors_infeasible():
    rng = np.random.default_rng(4)
    a = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        inject_errors(rng, F7, [(a, np.tril_indices(3, -1))], 10)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_roundtrip_all_workloads(tmp_path, workload):
    sc = Scenario(p=65537, n=20, m=6, rank=5, errors=4, eps=0.05, seed=11,
                  workload=workload)
    d = str(tmp_path / workload)
    gen(sc, d)
    if workload not in ("solve-small", "solve-large"):
        # solve workloads can pass pre-correction when all injected errors
        # landed in the auxiliary candidates rather than in X
        assert verify(d) is False
    rep, verified = correct(d)
    assert verified is True
    assert verify(d) is True
    assert os.path.exists(os.path.join(d, "report.txt"))


def test_correct_recovers_ground_truth(tmp_path):
    sc = Scenario(p=65537, n=24, errors=6, seed=12, workload="lu")
    d = str(tmp_path / "gt")
    gen(sc, d)
    correct(d)
    for name in ("L", "U"):
        got = read_matrix(os.path.join(d, name + "_corrected.mat"))
        want = read_matrix(os.path.join(d, name + "_true.mat"))
        assert np.array_equal(got.a, want.a)


def test_report_roundtrip():
    rep = CorrectionReport(stage="croutec", epsilon=0.05, seed=3)
    child = CorrectionReport(stage="trsmec_upper_right", corrected=2,
                             rounds=3, correcting_rounds=2, lam=2,
                             epsilon=0.0125, verified=True,
                             positions=[(0, 1), (4, 2)])
    rep.add_child(child)
    rep.verified = True
    back = parse_report(rep.serialize())
    assert back.stage == "croutec"
    assert back.corrected == 2 and back.verified
    assert back.children[0].stage == "trsmec_upper_right"
    assert back.children[0].positions == [(0, 1), (4, 2)]
    assert abs(back.children[0].epsilon - 0.0125) < 1e-15


def test_cli_exit_codes(tmp_path):
    d = str(tmp_path / "cli")
    assert main(["gen", "--field", "7", "--n", "10", "--errors", "2",
                 "--seed", "1", "--workload", "lu", "--out", d]) == 0
    # corrupted inputs: verify subcommand fails with exit 3
    assert main(["verify", "--out", d]) == 3
    assert main(["correct", "--out", d, "--verify"]) == 0
    assert main(["verify", "--out", d]) == 0


def test_cli_bench_writes_csv(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--field", "65537", "--n", "32",
                 "--errors", "0,2", "--reps", "2", "--out", out]) == 0
    with open(out) as f:
        lines = f.read().strip().splitlines()
    assert lines[0].startswith("workload,n,k")
    assert len(lines) == 4  # header + reference + two k rows


def test_verify_gate_never_blesses_wrong_output(tmp_path):
    # huge epsilon makes the Monte Carlo loop sloppy; the deterministic gate
    # must still catch every wrong result
    for seed in range(10):
        sc = Scenario(p=7, n=16, errors=30, eps=0.9, seed=seed,
                      workload="lu")
        d = str(tmp_path / ("g%d" % seed))
        gen(sc, d)
        rep, verified = correct(d, eps=0.9)
        truth_ok = all(
            np.array_equal(
                read_matrix(os.path.join(d, name + "_corrected.mat")).a,
                read_matrix(os.path.join(d, name + "_true.mat")).a)
            for name in ("L", "U"))
        assert verified == truth_ok


def test_bench_rows_shape():
    rows = bench_lu(FBIG, 32, [0, 3], reps=2, seed=1)
    assert len(rows) == 4
    ref = rows[1].split(",")
    assert ref[0] == "reference"
    k3 = rows[3].split(",")
    assert k3[0] == "croutec" and k3[2] == "3"
