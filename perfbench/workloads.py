"""The four workloads: fixed instances, the timed calls, and their checks.

Each workload draws its instances and corrector seeds from its own fixed
seed, so every run certifies the same inputs with the same randomness and
the round counts of the correction loop repeat exactly; only the machine
varies between runs.  Several instances per workload keep the figures from
resting on one error pattern.
"""

import time
from dataclasses import dataclass

import numpy as np

from instances import inject, modmul, pack, random_lu, upper_inverse

EPS = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "lu": crout_ec; "solve": solve_large_rhs
    p: int
    n: int
    k: int          # injected errors per instance
    instances: int
    seed: int
    # calls per instance in one pass; the cheaper call of a workload is
    # repeated so that both medians rest on enough samples
    certify_reps: int = 1
    recompute_reps: int = 1


WORKLOADS = {w.name: w for w in (
    # verification claim: k = 0, projection and dense block/strip checks
    Workload("lu-verify-65537", "lu", 65537, 1024, 0, 4, 101,
             certify_reps=5),
    # correction against recomputation at the size ROADMAP records
    Workload("lu-correct-65537", "lu", 65537, 1024, 256, 3, 102),
    # GF(7), k = n^2/10: correctors lift to GF(7^3), the only ExtField work
    Workload("lu-correct-gf7", "lu", 7, 128, 1639, 3, 103,
             recompute_reps=20),
    # p = 2^31 - 1 misses the int64 fast paths; tr_inv_ec and B.U^-1
    Workload("solve-large-p31", "solve", 2**31 - 1, 384, 48, 4, 104),
)}


def make_instance(w, i):
    """Instance i of workload w: true results, candidates, corrector seed."""
    rng = np.random.default_rng([w.seed, i])
    L, U, A = random_lu(rng, w.n, w.p)
    inst = {"A": A, "LU": pack(L, U)}
    if w.kind == "lu":
        (inst["LU_cand"],) = inject(rng, [inst["LU"]], w.k, w.p)
    else:
        X = rng.integers(0, w.p, size=(w.n, w.n), dtype=np.int64)
        Uinv = upper_inverse(U, w.p)
        inst.update(U=U, X=X, B=modmul(X, A, w.p), Uinv=Uinv)
        inst["LU_cand"], inst["Uinv_cand"], inst["X_cand"] = inject(
            rng, [inst["LU"], Uinv, X], w.k, w.p)
    inst["corrector_seed"] = int(rng.integers(1 << 31))
    return inst


def certify(eclu, w, inst):
    """One certify-or-repair call on fresh copies; (seconds, outputs)."""
    F = eclu.make_prime_field(w.p)
    A = eclu.Mat(F, inst["A"].copy())
    packed = eclu.PackedLU(eclu.Mat(F, inst["LU_cand"].copy()))
    params = eclu.TrsmEcParams(EPS, seed=inst["corrector_seed"])
    if w.kind == "lu":
        t0 = time.perf_counter()
        eclu.crout_ec(packed, A, params)
        dt = time.perf_counter() - t0
        return dt, {"LU": packed.mat.a}
    bundle = eclu.LargeRhsBundle(
        A, eclu.Mat(F, inst["B"].copy()), packed,
        eclu.Mat(F, inst["Uinv_cand"].copy()),
        eclu.Mat(F, inst["X_cand"].copy()), EPS)
    t0 = time.perf_counter()
    X, _ = eclu.solve_large_rhs(bundle, params)
    dt = time.perf_counter() - t0
    return dt, {"LU": packed.mat.a, "X": X.a, "Uinv": bundle.Rinv_candidate.a}


def recompute(eclu, w, inst):
    """The same result from eclu's reference path; (seconds, outputs)."""
    F = eclu.make_prime_field(w.p)
    A = eclu.Mat(F, inst["A"].copy())
    if w.kind == "lu":
        t0 = time.perf_counter()
        P = eclu.crout_reference(A)
        dt = time.perf_counter() - t0
        return dt, {"LU": P.mat.a}
    X = eclu.Mat(F, inst["B"].copy())
    t0 = time.perf_counter()
    P = eclu.crout_reference(A)
    P.upper_tri().solve_right(X)   # X.U = B
    P.lower_tri().solve_right(X)   # then X.L = that
    dt = time.perf_counter() - t0
    return dt, {"LU": P.mat.a, "X": X.a}


def check(w, inst, out):
    """True when every output is exact, judged without eclu.

    The factors of a generic-rank-profile matrix with unit-diagonal L are
    unique, so corrected and recomputed factors must equal the generated
    ones; a solution must satisfy X.A = B and an inverse Uinv.U = I.
    """
    for arr in out.values():
        if arr.dtype != np.int64 or arr.min() < 0 or arr.max() >= w.p:
            return False
    if not np.array_equal(out["LU"], inst["LU"]):
        return False
    if "X" in out and not np.array_equal(modmul(out["X"], inst["A"], w.p),
                                         inst["B"]):
        return False
    if "Uinv" in out and not np.array_equal(
            modmul(out["Uinv"], inst["U"], w.p),
            np.eye(w.n, dtype=np.int64)):
        return False
    return True
