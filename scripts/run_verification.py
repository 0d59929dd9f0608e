#!/usr/bin/env python3
"""Run every verification suite and print one JSON report line per suite.

Exit status is the number of failing suites (0 when all green), so the script
doubles as a CI gate:

    python3 scripts/run_verification.py
    python3 scripts/run_verification.py --suite symprop --suite regdomthm
    python3 scripts/run_verification.py --seed 7 --instances 100

A suite that stops on a library error (say, an algebra over --cap) prints
{"suite": ..., "error": {...}} in place of its report and counts as failing.
"""

import argparse
import json
import sys
import time

from kmjm.errors import KmjmError, resolve_cap
from kmjm.sweeps import SUITES, SweepConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", action="append", choices=tuple(SUITES),
                    help="run only this suite (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=20260819)
    ap.add_argument("--instances", type=int, default=500,
                    help="random instance count for the seeded suites")
    ap.add_argument("--cap", type=int, default=None,
                    help="dimension cap handed to every truncation build")
    ap.add_argument("--max-failures", type=int, default=5,
                    help="how many failure records to include per suite")
    args = ap.parse_args(argv)
    if args.instances < 1:
        ap.error(f"--instances must be >= 1, got {args.instances}")
    if args.max_failures < 0:
        ap.error(f"--max-failures must be >= 0, got {args.max_failures}")
    try:
        cap = resolve_cap(args.cap)
    except ValueError as err:
        ap.error(str(err))

    config = SweepConfig(seed=args.seed, instances=args.instances, cap=cap)
    names = args.suite or list(SUITES)
    bad = 0
    for name in names:
        t0 = time.perf_counter()
        try:
            report = SUITES[name](config)
        except KmjmError as err:
            print(json.dumps({"suite": name, "error": err.as_dict()}))
            bad += 1
            continue
        elapsed = time.perf_counter() - t0
        line = report.as_dict()
        line["seconds"] = round(elapsed, 3)
        if len(line["failures"]) > args.max_failures:
            line["failures_truncated"] = len(line["failures"]) - args.max_failures
            line["failures"] = line["failures"][: args.max_failures]
        print(json.dumps(line))
        if not report.ok:
            bad += 1
    return bad


if __name__ == "__main__":
    sys.exit(main())
