"""The benchmark's own checks against Python-int arithmetic.

    python3 -m pytest perfbench
"""

import os
import sys

import numpy as np
import pytest

from instances import inject, modmul, pack, random_lu, upper_inverse
from tracing import Tracer

PRIMES = (7, 65537, 2**31 - 1)


def _int_product(A, B, p):
    A, B = A.tolist(), B.tolist()
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
            for row in A]


@pytest.mark.parametrize("p", PRIMES)
def test_modmul_matches_python_ints(p):
    rng = np.random.default_rng(p)
    for m, ell, n in ((1, 1, 1), (3, 5, 2), (7, 1, 9), (300, 17, 4)):
        A = rng.integers(0, p, size=(m, ell), dtype=np.int64)
        B = rng.integers(0, p, size=(ell, n), dtype=np.int64)
        assert modmul(A, B, p).tolist() == _int_product(A, B, p)


@pytest.mark.parametrize("p", PRIMES)
def test_modmul_extreme_residues(p):
    # all entries p - 1: the largest partial sums the split has to hold
    A = np.full((5, 64), p - 1, dtype=np.int64)
    B = np.full((64, 3), p - 1, dtype=np.int64)
    assert modmul(A, B, p).tolist() == _int_product(A, B, p)


def test_modmul_rejects_non_residues():
    with pytest.raises(ValueError):
        modmul(np.array([[7]]), np.array([[1]]), 7)
    with pytest.raises(ValueError):
        modmul(np.array([[1]]), np.array([[1]]), 2**31)


@pytest.mark.parametrize("p", PRIMES)
def test_upper_inverse(p):
    rng = np.random.default_rng(1)
    _, U, _ = random_lu(rng, 13, p)
    Ui = upper_inverse(U, p)
    assert np.array_equal(Ui, np.triu(Ui))
    assert _int_product(Ui, U, p) == np.eye(13, dtype=np.int64).tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_random_lu_is_a_factorization(p):
    L, U, A = random_lu(np.random.default_rng(2), 9, p)
    assert np.all(np.diagonal(L) == 1) and np.all(np.diagonal(U) != 0)
    assert A.tolist() == _int_product(L, U, p)
    assert np.array_equal(pack(L, U) - np.tril(L, -1), np.triu(U))


def test_inject_shifts_k_distinct_entries():
    rng = np.random.default_rng(3)
    p = 7
    mats = [rng.integers(0, p, size=(4, 5), dtype=np.int64),
            rng.integers(0, p, size=(3, 3), dtype=np.int64)]
    before = [M.copy() for M in mats]
    out = inject(rng, mats, 11, p)
    assert all(np.array_equal(M, b) for M, b in zip(mats, before))
    changed = sum(int(np.count_nonzero(o != M)) for o, M in zip(out, mats))
    assert changed == 11
    assert all(o.min() >= 0 and o.max() < p for o in out)


def test_tracer_restores_entry_points_and_splits_time():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    try:
        import eclu
        from eclu import croutec, ff
    finally:
        sys.path.remove(src)
    p = 65537
    rng = np.random.default_rng(4)
    L, U, A = random_lu(rng, 96, p)
    (cand,) = inject(rng, [pack(L, U)], 20, p)
    F = eclu.make_prime_field(p)
    before = (croutec.trsm_ec_upper_right, ff.PrimeField.matmul,
              eclu.crout_ec)
    tracer = Tracer()
    with tracer.active():
        assert croutec.trsm_ec_upper_right is not before[0]
        packed = eclu.PackedLU(eclu.Mat(F, cand))
        eclu.crout_ec(packed, eclu.Mat(F, A), eclu.TrsmEcParams(0.05, seed=1))
    assert (croutec.trsm_ec_upper_right, ff.PrimeField.matmul,
            eclu.crout_ec) == before
    assert np.array_equal(packed.mat.a, pack(L, U))
    times, counts = tracer.snapshot()
    assert counts["trsmec.calls"] > 0 and counts["sparseint.columns"] > 0
    assert counts["trsmec.correcting_rounds"] > 0
    assert all(t >= 0 for t in times.values())
    assert times["croutec.self_s"] > 0 and times["trsmec.self_s"] > 0
