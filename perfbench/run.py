"""Certify-versus-recompute benchmark for eclu.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports eclu from its `src/`.
With --trace 0 it times certify calls (crout_ec or solve_large_rhs on a
candidate) and recompute calls (crout_reference, plus the two triangular
solves for a solve workload) over the workload's fixed instances, in whole
passes, until S seconds have gone; it prints the end-to-end metrics.  With
--trace 1 it times each certify call once plainly and once with eclu's
entry points wrapped, and prints the per-layer metrics.  Every output is
checked against numpy-only arithmetic.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The load is a closed loop: one process, one call at a time.  The seed only
rotates the order in which a pass visits the instances; the instances and
the corrector seeds are the workload's own (see workloads.py).
"""

import os
import sys

# one BLAS thread for the checker's float64 products; eclu's int64 kernels
# do not use BLAS at all
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from tracing import COUNTS, TIMES, Tracer  # noqa: E402
from workloads import (WORKLOADS, certify, check, make_instance,  # noqa: E402
                       recompute)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3   # this process plus two fresh ones
PROBE_TIMEOUT_S = 150


def import_eclu():
    """eclu from this checkout's src/, never from an installed copy."""
    init = os.path.join(SRC, "eclu", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("perfbench: no eclu source at %s" % init)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    eclu = importlib.import_module("eclu")
    if os.path.realpath(eclu.__file__) != os.path.realpath(init):
        sys.exit("perfbench: imported eclu from %s, expected %s"
                 % (eclu.__file__, init))
    return eclu


def set_up(w, inst):
    """Import eclu, construct the field and make one untimed warm-up call.

    Returns (eclu module, seconds).  The import counts only in a process
    that has not imported eclu yet.
    """
    t0 = time.perf_counter()
    eclu = import_eclu()
    eclu.make_prime_field(w.p)
    certify(eclu, w, inst)
    return eclu, time.perf_counter() - t0


def probe_setup(w):
    """Set-up time of a fresh process, which waits for the child to end."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", w.name],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def call(fn, eclu, w, inst, tally):
    """One attempted call; its time, or None when it failed."""
    tally["attempted"] += 1
    try:
        dt, out = fn(eclu, w, inst)
    except eclu.MonteCarloFailure:
        tally["failed"] += 1
        return None
    if not check(w, inst, out):
        tally["failed"] += 1
        tally["wrong"] += 1
        return None
    return dt


def per_call(samples, what):
    """Mean over the instances of each instance's median call time.

    Instances differ in cost (their error patterns take different numbers
    of rounds), so a median over all calls would rest on the few calls of
    the middle instance; this figure uses every call and keeps the fixed
    instance mix.
    """
    meds = [statistics.median(xs) for xs in samples.values() if xs]
    if not meds:
        sys.exit("perfbench: every %s call failed" % what)
    return statistics.fmean(meds)


def run_plain(eclu, w, insts, order, seconds, tally):
    """Whole passes of certify + recompute per instance; end-to-end times."""
    samples = {"certify": {i: [] for i in order},
               "recompute": {i: [] for i in order}}
    t_start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for i in order:
            for name, fn, reps in (("certify", certify, w.certify_reps),
                                   ("recompute", recompute,
                                    w.recompute_reps)):
                for _ in range(reps):
                    dt = call(fn, eclu, w, insts[i], tally)
                    if dt is not None:
                        samples[name][i].append(dt)
        passes += 1
    return samples, passes


def run_traced(eclu, w, insts, order, seconds, tally):
    """Whole passes of plain and traced certify calls per instance.

    Per-layer figures are per certify call: a pass's total over the
    instances divided by their number, the median over passes for times.
    """
    tracer = Tracer()
    plain = {i: [] for i in order}
    traced = {i: [] for i in order}
    pass_times, pass_counts = [], []
    t_start = time.perf_counter()
    while not pass_times or time.perf_counter() - t_start < seconds:
        tracer.reset()
        for i in order:
            dt = call(certify, eclu, w, insts[i], tally)
            if dt is not None:
                plain[i].append(dt)
            with tracer.active():
                dt = call(certify, eclu, w, insts[i], tally)
            if dt is not None:
                traced[i].append(dt)
        times, counts = tracer.snapshot()
        pass_times.append(times)
        pass_counts.append(counts)
    n = len(insts)
    metrics = {k: statistics.median(t[k] for t in pass_times) / n
               for k in TIMES}
    metrics.update({k: pass_counts[0][k] / n for k in COUNTS})
    metrics["trace.overhead_s"] = (per_call(traced, "traced certify")
                                   - per_call(plain, "certify"))
    info = {"passes": len(pass_times),
            "counts_repeat": all(c == pass_counts[0] for c in pass_counts),
            "plain_certify_s": plain, "traced_certify_s": traced}
    return metrics, info


def unit(name):
    if name.endswith("_s"):
        return "s"
    return "Mop" if name.endswith("_mops") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    if args.setup_probe:
        _, setup_s = set_up(w, make_instance(w, 0))
        print(json.dumps({"setup_s": setup_s}))
        return

    insts = [make_instance(w, i) for i in range(w.instances)]
    order = [(args.seed + j) % w.instances for j in range(w.instances)]
    eclu, first = set_up(w, insts[0])

    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        values, info = run_traced(eclu, w, insts, order, args.seconds, tally)
        names = TIMES + COUNTS + ("trace.overhead_s",)
        metrics = {k: {"value": values[k], "unit": unit(k)} for k in names}
        dump = os.path.join(OUT, "%s.trace.json" % w.name)
    else:
        setups = [first] + [probe_setup(w) for _ in range(SETUP_SAMPLES - 1)]
        samples, passes = run_plain(eclu, w, insts, order, args.seconds,
                                    tally)
        metrics = {
            "certify_s": {"value": per_call(samples["certify"], "certify"),
                          "unit": "s"},
            "recompute_s": {"value": per_call(samples["recompute"],
                                              "recompute"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        info = {"passes": passes, "setup_s": setups, **samples}
        dump = os.path.join(OUT, "%s.json" % w.name)
    result = {"correct": tally["wrong"] == 0,
              "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": metrics}
    with open(dump, "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed,
                   "instances": w.instances, **info, **result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
