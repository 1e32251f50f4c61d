"""Command line entry point.

Subcommands:
    gen      write a random instance with injected errors
    correct  run the correction on a generated directory
    verify   deterministic exact check of the result
    bench    timing/field-op grid over error counts

Exit codes for `correct`: 0 on verified success, 2 when the Monte Carlo
loop gave up, 3 when the deterministic post-check failed.
"""

import argparse
import sys

from .ff import make_ext_field
from .harness import WORKLOADS, Scenario, bench_lu, correct, gen, verify
from .trsmec import MonteCarloFailure


def _field(spec):
    parts = spec.split(",")
    p = int(parts[0])
    nu = int(parts[1]) if len(parts) > 1 else 1
    return p, nu


def build_parser():
    ap = argparse.ArgumentParser(
        prog="eclu",
        description="error correction for outsourced LU factorizations, "
                    "triangular solves and linear systems over finite fields")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance with seeded errors")
    g.add_argument("--field", default="65537", metavar="P[,NU]",
                   help="prime p or p,nu for GF(p^nu) (default 65537)")
    g.add_argument("--n", type=int, default=32)
    g.add_argument("--m", type=int, default=None,
                   help="row count for rectangular/system workloads")
    g.add_argument("--rank", type=int, default=None,
                   help="target rank for the rankdef workload")
    g.add_argument("--errors", type=int, default=1, metavar="K")
    g.add_argument("--epsilon", type=float, default=0.05, metavar="E")
    g.add_argument("--seed", type=int, default=0, metavar="S")
    g.add_argument("--workload", choices=WORKLOADS, default="lu")
    g.add_argument("--out", required=True, metavar="DIR")

    c = sub.add_parser("correct", help="correct a generated instance")
    c.add_argument("--out", required=True, metavar="DIR",
                   help="directory written by gen")
    c.add_argument("--epsilon", type=float, default=None,
                   help="override the generated failure bound")
    c.add_argument("--seed", type=int, default=None,
                   help="override the correction seed")
    c.add_argument("--verify", action="store_true",
                   help="run the deterministic post-check and gate the "
                        "exit code on it")

    v = sub.add_parser("verify", help="check the identity for a directory")
    v.add_argument("--out", required=True, metavar="DIR")

    b = sub.add_parser("bench", help="timing grid over error counts")
    b.add_argument("--field", default="65537", metavar="P[,NU]")
    b.add_argument("--n", type=int, default=256)
    b.add_argument("--errors", default="1,4,16,64", metavar="K1,K2,...")
    b.add_argument("--epsilon", type=float, default=0.05)
    b.add_argument("--reps", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None, metavar="CSV",
                   help="write the table here instead of stdout")
    return ap


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.cmd == "gen":
        p, nu = _field(args.field)
        try:
            sc = Scenario(p=p, nu=nu, n=args.n, m=args.m, rank=args.rank,
                          errors=args.errors, eps=args.epsilon,
                          seed=args.seed, workload=args.workload)
        except ValueError as exc:
            parser.error(str(exc))
        files = gen(sc, args.out)
        print("wrote %d matrices to %s" % (len(files), args.out))
        return 0

    if args.cmd == "correct":
        try:
            rep, verified = correct(args.out, eps=args.epsilon,
                                    seed=args.seed,
                                    verify_after=args.verify)
        except MonteCarloFailure as exc:
            print("correction aborted: %s" % exc, file=sys.stderr)
            return 2
        print("corrected %d entries in %d rounds (%.3fs)"
              % (rep.corrected, rep.max_rounds(), rep.wall_time))
        if args.verify:
            if not verified:
                print("verification FAILED", file=sys.stderr)
                return 3
            print("verified")
        return 0

    if args.cmd == "verify":
        ok = verify(args.out)
        print("verified" if ok else "verification FAILED")
        return 0 if ok else 3

    if args.cmd == "bench":
        ctx = make_ext_field(*_field(args.field))
        ks = [int(k) for k in args.errors.split(",") if k]
        rows = bench_lu(ctx, args.n, ks, eps=args.epsilon, reps=args.reps,
                        seed=args.seed)
        text = "\n".join(rows) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
