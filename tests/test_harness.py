"""Scenario generation, file round trips, CLI behavior, reports."""

import hashlib
import json
import os

import numpy as np
import pytest

from eclu.cli import main
from eclu.ff import make_ext_field, make_prime_field
from eclu.harness import (Scenario, WORKLOADS, bench_lu, correct, gen,
                          inject_errors, verify)
from eclu.mat import Mat, multiply
from eclu.matio import read_matrix, write_matrix
from eclu.report import CorrectionReport

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


@pytest.mark.parametrize("ctx", [FBIG, make_ext_field(7, 2)], ids=repr)
def test_matrix_file_roundtrip_rewrites_the_same_bytes(tmp_path, ctx):
    rng = np.random.default_rng(3)
    a = ctx.rand(rng, (40, 33))
    a[0] = 0
    a[:, -1] = ctx.q - 1
    for sparse in (False, True):
        path, again = str(tmp_path / "m.mat"), str(tmp_path / "again.mat")
        write_matrix(path, Mat(ctx, a), sparse=sparse)
        back = read_matrix(path)
        assert back.ctx == ctx and np.array_equal(back.a, a)
        write_matrix(again, back, sparse=sparse)
        with open(path, "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()


def test_matrix_file_text_unchanged(tmp_path):
    # the exact text the one-element-at-a-time writer produced
    cases = [
        (make_ext_field(7, 2), [[0, 48, 8], [13, 0, 0]],
         "field 7 2\ndense 2 3\n0,0 6,6 1,1\n6,1 0,0 0,0\n",
         "field 7 2\nsparse 2 3 3\n0 1 6,6\n0 2 1,1\n1 0 6,1\n"),
        (FBIG, [[0, 65536, 2], [3, 0, 0]],
         "field 65537 1\ndense 2 3\n0 65536 2\n3 0 0\n",
         "field 65537 1\nsparse 2 3 3\n0 1 65536\n0 2 2\n1 0 3\n"),
    ]
    path = tmp_path / "m.mat"
    for ctx, a, dense, sparse in cases:
        for text, layout in ((dense, False), (sparse, True)):
            write_matrix(str(path), Mat(ctx, np.array(a)), sparse=layout)
            assert path.read_text() == text
            assert read_matrix(str(path)).a.tolist() == a


@pytest.mark.parametrize("body", [
    "field 7 1\ndense 2 3\n1 2 3\n4 5\n",        # a short row
    "field 7 1\ndense 2 2\n1 2 3\n4 5 6\n",     # rows too long
    "field 7 1\ndense 2 2\n1 2\n",               # a missing row
    "field 7 1\ndense 1 2\n1 7\n",               # out of range
    "field 7 1\ndense 1 2\n-1 2\n",
    "field 7 1\ndense 1 2\n1 99999999999999999999\n",
    "field 7 2\ndense 1 2\n1,2 3\n",             # an element short
    "field 7 2\ndense 1 2\n1,2,3 4\n",
    "field 7 2\ndense 1 2\n1,2 3,7\n",
    "field 7 1\nsparse 2 2 1\n0 1\n",
    "field 7 1\nsparse 2 2 1\n0 1 9\n",
])
def test_read_matrix_rejects_malformed_entries(tmp_path, body):
    path = tmp_path / "bad.mat"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_matrix(str(path))


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


# content hash of the .mat files gen writes for one fixed scenario per
# workload: generated instances must not move when gen is restructured
_GEN_HASHES = {
    "lu": "b0363c920c36e95b",
    "rect": "ae9a78fa03070f06",
    "rankdef": "0175259427c8a6d9",
    "solve-small": "f41a924594b388a4",
    "solve-large": "8c88d1395395cd83",
    "trinv": "281d2828baf872d5",
    "trsm": "1dcee144aab8ddd1",
}


def shape_fields(workload, m, rank):
    """The scenario fields besides n that the workload uses."""
    if workload in ("lu", "trinv"):
        return {}
    return {"m": m, "rank": rank} if workload == "rankdef" else {"m": m}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gen_files_unchanged(tmp_path, workload):
    d = str(tmp_path / workload)
    gen(Scenario(p=65537, n=10, errors=3, seed=21, workload=workload,
                 **shape_fields(workload, 4, 3)), d)
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(d) if f.endswith(".mat")):
        h.update(name.encode())
        with open(os.path.join(d, name), "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest()[:16] == _GEN_HASHES[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_roundtrip_all_workloads(tmp_path, workload):
    for p, nu in ((65537, 1), (2, 2)):
        sc = Scenario(p=p, nu=nu, n=20, errors=4, eps=0.05, seed=11,
                      workload=workload, **shape_fields(workload, 6, 5))
        d = str(tmp_path / ("%s-%d-%d" % (workload, p, nu)))
        gen(sc, d)
        assert Scenario.from_file(os.path.join(d, "scenario.json")) == sc
        if workload not in ("solve-small", "solve-large"):
            # solve workloads can pass pre-correction when all injected
            # errors landed in the auxiliary candidates rather than in X
            assert verify(d) is False
        rep, verified = correct(d)
        assert verified is True
        assert verify(d) is True
        with open(os.path.join(d, "report.json")) as fh:
            assert CorrectionReport.from_json(fh.read()) == rep


def test_scenario_rejects_unknown_key(tmp_path):
    path = str(tmp_path / "scenario.json")
    with open(path, "w") as fh:
        json.dump({"p": 7, "n": 4, "workload": "lu", "size": 4}, fh)
    with pytest.raises(TypeError):
        Scenario.from_file(path)
    with pytest.raises(ValueError):
        Scenario(p=7, workload="qr")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_scenario_rejects_fields_its_workload_ignores(workload):
    used = shape_fields(workload, 4, 3)
    Scenario(p=7, n=10, workload=workload, **used)
    for key, value in (("m", 4), ("rank", 3)):
        if key not in used:
            with pytest.raises(ValueError):
                Scenario(p=7, n=10, workload=workload,
                         **dict(used, **{key: value}))


def test_cli_gen_rejects_fields_its_workload_ignores(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--workload", "lu", "--m", "4",
              "--out", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--field", "abc"], ["gen", "--field", "8"],
    ["gen", "--field", "7,x"], ["bench", "--field", "9"],
    ["gen", "--n", "4", "--errors", "100"],
    ["bench", "--n", "8", "--errors", "100"],
    ["gen", "--epsilon", "2"], ["gen", "--epsilon", "0"],
    ["gen", "--epsilon", "x"], ["correct", "--out", "x", "--epsilon", "1"],
    ["bench", "--epsilon", "-0.5"], ["bench", "--errors", "1,abc"]],
    ids="_".join)
def test_cli_malformed_input_is_a_usage_error(argv, tmp_path):
    out = tmp_path / "x"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("eps", [0, 1, 2, -0.5])
def test_scenario_failure_bound_lies_in_the_unit_interval(eps, tmp_path):
    with pytest.raises(ValueError, match="failure bound"):
        Scenario(p=65537, n=4, eps=eps)
    # a hand-written scenario.json fails as it loads, before any corrector
    d = tmp_path / "sc"
    gen(Scenario(p=65537, n=4), str(d))
    path = d / "scenario.json"
    fields = json.loads(path.read_text())
    path.write_text(json.dumps(dict(fields, eps=eps)))
    with pytest.raises(ValueError, match="failure bound"):
        Scenario.from_file(str(path))


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
    rep.wall_time = 0.25
    back = CorrectionReport.from_json(rep.to_json())
    assert back == rep
    assert back.stage == "croutec"
    assert back.corrected == 2 and back.verified
    assert back.children[0].stage == "trsmec_upper_right"
    assert back.children[0].positions == [(0, 1), (4, 2)]
    assert back.children[0].epsilon == 0.0125


def test_report_rejects_unknown_key():
    text = json.dumps({"stage": "croutec", "lambda": 2})
    with pytest.raises(TypeError):
        CorrectionReport.from_json(text)


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
