"""Seeded benchmark for kmjm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kmjm is imported from ``src/``.
Every repetition runs in a fresh interpreter (bench/worker.py), so no
module-level cache carries over.  A run makes S // REP_SECONDS[NAME]
repetitions (at least one), so both sides of a comparison do the same work.
Repetition k draws its inputs from rep_seed(N, k), so the same N gives the
same inputs, and runs under PYTHONHASHSEED=k+1: kmjm's speed depends on the
hash layout (about 20% on regdomthm), so every run averages the same fixed
set of layouts instead of a random one.  Set-up is also probed on its own
several times.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics (medians over repetitions; operation latencies pooled over them).
With ``--trace 1`` untraced and traced repetitions alternate in pairs that
share inputs, and the last line reports per-layer totals over the traced
ones, taken from spans recorded around kmjm's public functions
(bench/tracer.py); a pair whose outputs differ counts as failed.  Span
files and a log of every result, with machine info and seed, go to
``.bench_out/``.

Every output is checked (bench/workloads.py).  The line before the result
holds machine info, seed, sample counts and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("regdomthm", "reg-grade", "realize-tower", "cli-session")
# seconds of one repetition on a 2-vCPU x86-64 VM under Python 3.11, so that a
# run measures for about --seconds; reg-grade's short repetitions give a run
# many instance draws, which its cost depends on (bench/README.md, Noise)
REP_SECONDS = {"regdomthm": 12, "reg-grade": 1.9, "realize-tower": 12, "cli-session": 16}
SETUP_PROBES = 5
HARD_LIMIT_S = 170  # the whole run, set-up probes included

PER_LAYER = (
    ("roots.peterson.calls", "count"),
    ("roots.peterson.height_sum", "count"),
    ("roots.peterson.self_s", "s"),
    ("weyl.inversion_set.calls", "count"),
    ("weyl.inversion_set.self_s", "s"),
    ("weyl.is_reduced.self_s", "s"),
    ("gcm.classify.calls", "count"),
    ("gcm.classify.self_s", "s"),
    ("grading.phi_w_d.self_s", "s"),
    ("sweeps.instances.self_s", "s"),
    ("pisystem.make.calls", "count"),
    ("pisystem.make.self_s", "s"),
    ("sl2.build_triple.self_s", "s"),
    ("sl2.realize_triple.self_s", "s"),
    ("sl2.verify.self_s", "s"),
    ("realize.build.calls", "count"),
    ("realize.build.dim_sum", "count"),
    ("realize.build.self_s", "s"),
    ("realize.bracket.calls", "count"),
    ("realize.bracket.self_s", "s"),
    ("realize.exp_ad.calls", "count"),
    ("realize.transport.calls", "count"),
    ("realize.transport.self_s", "s"),
    ("realize.transport.fallbacks", "count"),
    ("realize.transport.ok_ratio", "ratio"),
    ("rank2.classify.self_s", "s"),
    ("rank2.exceptional.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    pass


def _spawn(workload, seed, rep, flags, hard_deadline):
    """Run one worker to completion and return its result."""
    env = dict(os.environ)
    env.pop("KMJM_CAP", None)
    env["PYTHONHASHSEED"] = str(rep + 1)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launch = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(launch), *flags]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, hard_deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition ran past the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _machine() -> dict:
    sha = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "kmjm").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def _layer_metrics(results) -> dict:
    """Per-layer totals over the traced repetitions of one run."""
    calls = {}
    self_s = {}
    extra = dict.fromkeys(("height_sum", "dim_sum", "fallbacks", "import_s"), 0)
    for r in results:
        agg = r["layers"]
        for layer, n in agg["calls"].items():
            calls[layer] = calls.get(layer, 0) + n
        for layer, t in agg["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + t
        for key in extra:
            extra[key] += agg[key]
    out = {}
    for name, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls[layer]
        elif what == "self_s":
            out[name] = self_s[layer]
    n = calls["realize.transport"]
    out["roots.peterson.height_sum"] = extra["height_sum"]
    out["realize.build.dim_sum"] = extra["dim_sum"]
    out["realize.transport.fallbacks"] = extra["fallbacks"]
    out["realize.transport.ok_ratio"] = (n - extra["fallbacks"]) / n if n else 1.0
    out["cli.import_s"] = extra["import_s"]
    return out


def rep_seed(seed: int, k: int) -> int:
    """Input seed of repetition k: each repetition draws its own inputs, so a
    run's median does not hang on one draw."""
    return seed * 1000 + k


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    reps = max(1, int(seconds // REP_SECONDS[workload]))
    setups = []
    if not trace:
        for k in range(SETUP_PROBES):
            res = _spawn(workload, rep_seed(seed, k), k, ["--setup-only"], hard_deadline)
            setups.append(res["setup_s"])
    else:
        # an untraced and a traced repetition per pair, same inputs and hash seed
        reps = max(1, reps // 2)
    plain, traced, took = [], [], []
    for k in range(reps):
        t0 = time.monotonic()
        plain.append(_spawn(workload, rep_seed(seed, k), k, [], hard_deadline))
        if trace:
            span_dir = OUT / f"{workload}-seed{seed}-rep{k}"
            span_dir.mkdir(parents=True, exist_ok=True)
            traced.append(_spawn(workload, rep_seed(seed, k), k, ["--trace", str(span_dir)],
                                 hard_deadline))
        took.append(time.monotonic() - t0)
        if time.monotonic() + max(took) > hard_deadline:
            break

    problems = [p for r in plain + traced for p in r["problems"]]
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"]:
            failed += b["attempted"]
            problems.append("tracing changed the outputs")
    ops = [op * 1e3 for r in plain for op in r["ops_s"]]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": _machine(),
        "repetitions": len(plain),
        "setup_samples": len(setups) + len(plain),
        "op_samples": len(ops),
        "rep_wall_s": [r["wall_s"] for r in plain],
        "rep_digests": [r["digest"] for r in plain],
    }
    if not trace:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": (statistics.median(setups + [r["setup_s"] for r in plain]), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
            "op_p50_ms": (statistics.median(ops), "ms"),
            "op_p90_ms": (_p90(ops), "ms"),
        }
    else:
        layers = _layer_metrics(traced)
        layers["trace.overhead_s"] = (sum(r["wall_s"] for r in traced)
                                      - sum(r["wall_s"] for r in plain))
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
        info["traced_wall_s"] = [r["wall_s"] for r in traced]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info["fail_ratio"] = failed / attempted
    info["problems"] = problems[:20]
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=20260819)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "kmjm" / "__init__.py").is_file():
        print(f"bench: no kmjm source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # on SIGTERM, unwind so that the running worker's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
