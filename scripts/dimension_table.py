#!/usr/bin/env python3
"""Tabulate truncated dimensions and root multiplicities as height grows.

For each requested matrix this prints, per height: the total dimension of the
truncation, the number of distinct positive roots, and the largest single
multiplicity — a quick way to watch the exponential growth kick in between
the affine and hyperbolic regimes.

    python3 scripts/dimension_table.py --height 10
    python3 scripts/dimension_table.py --matrix '[[2,-3],[-3,2]]' --height 12 --per-degree

A usage error (bad JSON, a matrix that is not a list, a height below 1)
exits 2.  A matrix that stops on a library error (not a GCM, an algebra over
--cap) prints {"matrix": ..., "error": {...}} in place of the rest of its
table, and the script exits 1 once the other matrices are done.
"""

import argparse
import json
import sys
import time

from kmjm import build_truncated, validate_gcm
from kmjm.errors import KmjmError, resolve_cap

NAMED = {
    "a2": [[2, -1], [-1, 2]],
    "a1-affine": [[2, -2], [-2, 2]],
    "h3": [[2, -3], [-3, 2]],
    "h51": [[2, -1], [-5, 2]],
    "h32": [[2, -2], [-3, 2]],
    "a2-affine": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
}


def table_for(name, matrix, height, cap, per_degree):
    g = validate_gcm(matrix)
    print(f"== {name}: {matrix}")
    print(f"{'height':>6} {'dim':>8} {'roots':>7} {'max mult':>9} {'seconds':>8}")
    for h in range(1, height + 1):
        t0 = time.perf_counter()
        alg = build_truncated(g, h, cap=cap)
        dt = time.perf_counter() - t0
        mults = [alg.table.multiplicity(v) for v in alg.table.roots()]
        print(f"{h:>6} {alg.dim:>8} {len(mults):>7} {max(mults, default=0):>9} {dt:>8.3f}")
    if per_degree:
        print("-- multiplicities by degree")
        for v in alg.table.roots():
            print(f"   {list(v.coeffs)}  mult {alg.table.multiplicity(v)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--matrix", action="append", metavar="JSON|NAME",
                    help=f"inline JSON matrix or one of {', '.join(NAMED)} "
                         "(repeatable; default: the named set)")
    ap.add_argument("--height", type=int, default=8)
    ap.add_argument("--cap", type=int, default=None)
    ap.add_argument("--per-degree", action="store_true",
                    help="also list every root with its multiplicity")
    args = ap.parse_args(argv)
    if args.height < 1:
        ap.error(f"--height must be >= 1, got {args.height}")
    try:
        cap = resolve_cap(args.cap)
    except ValueError as err:
        ap.error(str(err))

    jobs = []
    for spec in args.matrix or NAMED:
        if spec in NAMED:
            jobs.append((spec, NAMED[spec]))
            continue
        try:
            matrix = json.loads(spec)
        except ValueError as err:
            ap.error(f"--matrix {spec!r} is neither a name nor valid JSON: {err}")
        if not isinstance(matrix, list):
            ap.error(f"--matrix {spec!r} is not a JSON list of rows")
        jobs.append((spec, matrix))

    bad = 0
    for name, matrix in jobs:
        try:
            table_for(name, matrix, args.height, cap, args.per_degree)
        except KmjmError as err:
            print(json.dumps({"matrix": name, "error": err.as_dict()}))
            bad = 1
            continue
        print()
    return bad


if __name__ == "__main__":
    sys.exit(main())
