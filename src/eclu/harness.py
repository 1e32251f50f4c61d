"""Scenario generation, error injection, correction dispatch, verification
and benchmarking for the CLI.

All randomness flows from a single seed per scenario, so generated and
corrupted instances are bit-reproducible.
"""

import json
import os
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import ff
from .blackbox import BlackboxRHS
from .croutec import (crout_ec, crout_reference, make_grp_instance,
                      rank_deficient_ec, rect_ec)
from .mat import Mat, PackedLU, Tri, multiply
from .matio import read_matrix, write_matrix
from .syssolve import (LargeRhsBundle, SmallRhsBundle, solve_large_rhs,
                       solve_small_rhs, tr_inv_ec)
from .trsmec import TrsmEcParams, trsm_ec_upper_right


# The identity of each workload family, over the matrices it names.
def _lu_identity(A, L, U):
    return multiply(L, U) == A


def _solve_identity(A, B, X):
    return multiply(X, A) == B


def _inverse_identity(U, R):
    return multiply(R, U) == Mat.identity(U.ctx, U.rows)


def _trsm_identity(U, C, R):
    return multiply(R, U) == C


_IDENTITIES = {
    "lu": (_lu_identity, ("A", "L", "U")),
    "rect": (_lu_identity, ("A", "L", "U")),
    "rankdef": (_lu_identity, ("A", "L", "U")),
    "solve-small": (_solve_identity, ("A", "B", "X")),
    "solve-large": (_solve_identity, ("A", "B", "X")),
    "trinv": (_inverse_identity, ("U", "R")),
    "trsm": (_trsm_identity, ("U", "C", "R")),
}
WORKLOADS = tuple(_IDENTITIES)


@dataclass
class Scenario:
    p: int
    nu: int = 1
    n: int = 8
    m: int = None
    rank: int = None
    errors: int = 1
    eps: float = 0.05
    seed: int = 0
    workload: str = "lu"

    def __post_init__(self):
        if self.workload not in _IDENTITIES:
            raise ValueError("unknown workload %r" % self.workload)
        TrsmEcParams(self.eps)  # a failure bound outside (0, 1) raises
        # a field the workload ignores would record a shape it does not have
        if self.m is not None and self.workload in ("lu", "trinv"):
            raise ValueError("workload %r takes no m" % self.workload)
        if self.rank is not None and self.workload != "rankdef":
            raise ValueError("workload %r takes no rank" % self.workload)

    def field(self):
        return ff.make_ext_field(self.p, self.nu)

    @classmethod
    def from_file(cls, path):
        """The scenario gen wrote as JSON; an unknown key raises TypeError."""
        with open(path) as fh:
            return cls(**json.load(fh))


def inject_errors(rng, ctx, mats_regions, k):
    """Corrupt matrices in place: k distinct positions over the union of the
    given legal regions, each shifted by a uniform nonzero delta.

    mats_regions: list of (ndarray, (rows, cols)) index-array pairs.
    Returns the list of (mat_index, row, col) actually corrupted.
    """
    lens = [len(r[1][0]) for r in mats_regions]
    total = sum(lens)
    if k > total:
        raise ValueError("cannot place %d errors in %d legal positions"
                         % (k, total))
    chosen = rng.choice(total, size=k, replace=False)
    out = []
    offsets = np.cumsum([0] + lens)
    for pos in sorted(int(c) for c in chosen):
        mi = int(np.searchsorted(offsets, pos, side="right")) - 1
        a, (rows, cols) = mats_regions[mi]
        r, c = int(rows[pos - offsets[mi]]), int(cols[pos - offsets[mi]])
        delta = int(ctx.rand_nonzero(rng))
        a[r, c] = ctx.sadd(int(a[r, c]), delta)
        out.append((mi, r, c))
    return out


def _strict_lower(m, n):
    return np.tril_indices(m, -1, n)


def _upper_incl(m, n):
    return np.triu_indices(m, 0, n)


def _full(m, n):
    idx = np.indices((m, n))
    return idx[0].ravel(), idx[1].ravel()


def _random_upper(ctx, n, rng):
    U = Mat(ctx, np.triu(ctx.rand(rng, (n, n))))
    U.a[np.arange(n), np.arange(n)] = ctx.rand_nonzero(rng, (n,))
    return U


def gen(scenario, outdir):
    """Write ground-truth and corrupted inputs for a scenario, and the
    scenario itself as scenario.json.  A scenario its instance cannot
    hold raises ValueError before outdir is made."""
    ctx = scenario.field()
    rng = np.random.default_rng(scenario.seed)
    n = scenario.n
    m = scenario.m if scenario.m is not None else n
    w = scenario.workload

    if w in ("lu", "rect", "rankdef"):
        if w == "rect" and m >= n:
            raise ValueError("rect workload needs m < n")
        shape = (n, n) if w == "lu" else (m, n)
        rank = None
        if w == "rankdef":
            rank = scenario.rank if scenario.rank is not None \
                else max(1, min(m, n) // 2)
        A, L, U = make_grp_instance(ctx, shape, rng, rank=rank)
        La, Ua = L.copy(), U.copy()
        # L is m-by-rank, U rank-by-n; errors land anywhere in either triangle
        inject_errors(rng, ctx,
                      [(La.a, _strict_lower(L.rows, L.cols)),
                       (Ua.a, _upper_incl(U.rows, U.cols))],
                      scenario.errors)
        mats = {"A": A, "L_true": L, "U_true": U,
                "L_approx": La, "U_approx": Ua}
    elif w in ("solve-small", "solve-large"):
        A, L, U = make_grp_instance(ctx, n, rng)
        B = Mat.random(ctx, m, n, rng)
        Y = B.copy()
        Tri(U, "upper").solve_right(Y)
        X = Y.copy()
        Tri(L, "lower", unit=True).solve_right(X)
        La, Ua, Xa = L.copy(), U.copy(), X.copy()
        regions = [(La.a, _strict_lower(n, n)), (Ua.a, _upper_incl(n, n)),
                   (Xa.a, _full(m, n))]
        mats = {"A": A, "B": B, "L_true": L, "U_true": U, "X_true": X,
                "L_approx": La, "U_approx": Ua, "X_approx": Xa}
        if w == "solve-small":
            Ya = Y.copy()
            regions.append((Ya.a, _full(m, n)))
            mats["Y_true"], mats["Y_approx"] = Y, Ya
        else:
            R = Mat.identity(ctx, n)
            Tri(U, "upper").solve_right(R)  # R = U^{-1}
            Ra = R.copy()
            regions.append((Ra.a, _full(n, n)))
            mats["R_true"], mats["R_approx"] = R, Ra
        inject_errors(rng, ctx, regions, scenario.errors)
    elif w == "trinv":
        U = _random_upper(ctx, n, rng)
        R = Mat.identity(ctx, n)
        Tri(U, "upper").solve_left(R)  # R = U^{-1}
        Ra = R.copy()
        inject_errors(rng, ctx, [(Ra.a, _upper_incl(n, n))], scenario.errors)
        mats = {"U": U, "R_true": R, "R_approx": Ra}
    else:  # trsm
        U = _random_upper(ctx, n, rng)
        R = Mat.random(ctx, m, n, rng)
        Ra = R.copy()
        inject_errors(rng, ctx, [(Ra.a, _full(m, n))], scenario.errors)
        mats = {"U": U, "C": multiply(R, U), "R_true": R, "R_approx": Ra}

    os.makedirs(outdir, exist_ok=True)
    files = {}
    for name, M in mats.items():
        files[name] = os.path.join(outdir, name + ".mat")
        write_matrix(files[name], M)
    with open(os.path.join(outdir, "scenario.json"), "w") as fh:
        json.dump(asdict(scenario), fh)
    return files


def correct(workdir, eps=None, seed=None, verify_after=True):
    """Run the correction for a generated scenario directory.

    Writes ``*_corrected.mat`` files plus ``report.json``; returns
    (report, verified) where verified is the deterministic post-check
    (None when verify_after is off).
    """
    sc = Scenario.from_file(os.path.join(workdir, "scenario.json"))
    eps = sc.eps if eps is None else eps
    seed = sc.seed + 1 if seed is None else seed
    params = TrsmEcParams(eps, seed=seed)
    mats = {}  # every matrix read, then the corrected ones by plain name

    def rd(name):
        mats[name] = read_matrix(os.path.join(workdir, name + ".mat"))
        return mats[name]

    w = sc.workload
    if w == "lu":
        packed = PackedLU.pack(rd("L_approx"), rd("U_approx"))
        _, rep = crout_ec(packed, rd("A"), params)
        out = {"L": packed.extract_L(), "U": packed.extract_U()}
    elif w == "rect":
        A = rd("A")
        La, Ua = rd("L_approx"), rd("U_approx")
        mm = La.rows
        packed = PackedLU.pack(La, Ua.view(0, 0, mm, mm))
        U2 = Ua.view(0, mm, mm, A.cols - mm).copy()
        _, _, rep = rect_ec(A, packed, U2, params)
        out = {"L": packed.extract_L(),
               "U": Mat(A.ctx, np.hstack([packed.extract_U().a, U2.a]))}
    elif w == "rankdef":
        _, L, U, rep = rank_deficient_ec(rd("A"), rd("L_approx"),
                                         rd("U_approx"), params)
        out = {"L": L, "U": U}
    elif w == "solve-small":
        bundle = SmallRhsBundle(rd("A"), rd("B"),
                                PackedLU.pack(rd("L_approx"), rd("U_approx")),
                                rd("Y_approx"), rd("X_approx"), eps)
        X, rep = solve_small_rhs(bundle, params)
        out = {"X": X}
    elif w == "solve-large":
        bundle = LargeRhsBundle(rd("A"), rd("B"),
                                PackedLU.pack(rd("L_approx"), rd("U_approx")),
                                rd("R_approx"), rd("X_approx"), eps)
        X, rep = solve_large_rhs(bundle, params)
        out = {"X": X}
    elif w == "trinv":
        R = rd("R_approx")
        rep = tr_inv_ec(R, Tri(rd("U"), "upper"), params)
        out = {"R": R}
    else:  # trsm
        R = rd("R_approx")
        rep = trsm_ec_upper_right(R, BlackboxRHS(C=rd("C")),
                                  Tri(rd("U"), "upper"), params)
        out = {"R": R}

    for name, M in out.items():
        write_matrix(os.path.join(workdir, name + "_corrected.mat"), M)
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        fh.write(rep.to_json())
    if not verify_after:
        return rep, None
    mats.update(out)
    identity, names = _IDENTITIES[w]
    return rep, identity(*(mats[name] for name in names))


def verify(workdir):
    """Deterministic exact check of the workload identity. Pure, no RNG.

    Each matrix the identity names is read from its corrected file when
    there is one, else from its candidate, else from the input.
    """
    sc = Scenario.from_file(os.path.join(workdir, "scenario.json"))

    def rd(name):
        for suffix in ("_corrected", "_approx"):
            path = os.path.join(workdir, name + suffix + ".mat")
            if os.path.exists(path):
                return read_matrix(path)
        return read_matrix(os.path.join(workdir, name + ".mat"))

    identity, names = _IDENTITIES[sc.workload]
    return identity(*(rd(name) for name in names))


def bench_lu(ctx, n, ks, eps=0.05, reps=5, seed=0):
    """Median correction times and field-op counts over an error-count grid.

    Returns a list of CSV rows (header first): one row per k plus one row
    for the plain reference factorization.
    """
    rows = ["workload,n,k,median_time,median_field_ops,median_rounds"]
    rng = np.random.default_rng(seed)
    A, L, U = make_grp_instance(ctx, n, rng)

    times = []
    ops = []
    for _ in range(reps):
        ff.reset_op_count()
        t0 = time.perf_counter()
        crout_reference(A)
        times.append(time.perf_counter() - t0)
        ops.append(ff.op_count())
    rows.append("reference,%d,,%.6f,%d," % (n, statistics.median(times),
                                            int(statistics.median(ops))))

    for k in ks:
        times = []
        ops = []
        rounds = []
        for rep_i in range(reps):
            La, Ua = L.copy(), U.copy()
            if k:
                inject_errors(rng, ctx, [(La.a, _strict_lower(n, n)),
                                         (Ua.a, _upper_incl(n, n))], k)
            packed = PackedLU.pack(La, Ua)
            params = TrsmEcParams(eps, rng=rng)
            ff.reset_op_count()
            t0 = time.perf_counter()
            _, rep = crout_ec(packed, A, params)
            times.append(time.perf_counter() - t0)
            ops.append(ff.op_count())
            rounds.append(rep.max_rounds())
        rows.append("croutec,%d,%d,%.6f,%d,%d"
                    % (n, k, statistics.median(times),
                       int(statistics.median(ops)),
                       int(statistics.median(rounds))))
    return rows
