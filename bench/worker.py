"""One repetition of one workload, in the fresh interpreter it was started in.

    python3 bench/worker.py WORKLOAD SEED LAUNCH [--setup-only] [--trace DIR]

LAUNCH is ``time.monotonic()`` in the parent just before it started this
process; set-up time runs from then to the first call into kmjm.  Prints one
JSON object on its last line of standard output.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, install
from workloads import WORKLOADS, Rep

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("launch", type=float)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="DIR")
    args = p.parse_args()

    t0 = time.perf_counter()
    import kmjm

    import_s = time.perf_counter() - t0
    if not Path(kmjm.__file__).resolve().is_relative_to(SRC):
        print(f"kmjm was imported from {kmjm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    setup, run = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.import_s = import_s
        tracer.span_dir = Path(args.trace)
        install(tracer)
    inputs = setup(args.seed)
    setup_s = time.monotonic() - args.launch
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rep = Rep(tracer)
    t1 = time.perf_counter()
    run(inputs, rep)
    wall_s = time.perf_counter() - t1
    # the cli session's commands are this process's children
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_s": rep.ops,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "problems": rep.problems,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        "digest": hashlib.sha256(
            json.dumps(rep.outputs, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }
    if tracer is not None:
        tracer.write(tracer.span_dir / "spans.json")
        result["layers"] = tracer.aggregate()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
