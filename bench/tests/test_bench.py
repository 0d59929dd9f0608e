"""Tests for the benchmark itself.

    python3 -m pytest bench/tests -q

The end-to-end tests run bench/run.py with one repetition (a few seconds to
about a minute per workload); ``-k reg-grade`` picks the quickest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import PER_LAYER, WORKLOADS  # noqa: E402

COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


def _run(workload, trace, seed=11, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_counts_repeat(workload):
    info0, res0 = _parse(_run(workload, 0))
    info1, res1 = _parse(_run(workload, 1))
    info2, res2 = _parse(_run(workload, 1))
    assert set(res0) == {"correct", "attempted", "failed", "metrics"}
    assert res0["correct"] and res1["correct"] and res2["correct"]
    assert info0["fail_ratio"] == info1["fail_ratio"] == 0
    # same seed, same outputs, with or without the wrappers
    assert info0["rep_digests"] == info1["rep_digests"] == info2["rep_digests"]
    assert set(res1["metrics"]) == {name for name, _ in PER_LAYER}
    for name in COUNTS:
        assert res1["metrics"][name]["value"] == res2["metrics"][name]["value"], name
    for name in ("wall_s", "setup_s", "peak_rss_mib", "op_p50_ms", "op_p90_ms"):
        assert res0["metrics"][name]["value"] > 0
    if workload in ("realize-tower", "cli-session"):
        # p90 needs at least ten samples beyond it
        assert info0["op_samples"] >= 100


def test_without_source_tree_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("reg-grade", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _proc(code, out="", err=""):
    return SimpleNamespace(returncode=code, stdout=out.encode(), stderr=err.encode())


def test_generated_command_gate():
    ok = workloads._check_generated
    assert ok(_proc(0, '{"a": 1}', "# kmjm header\n"))[0]
    assert ok(_proc(1, "", '# kmjm header\n{"error": "singular_b"}\n'))[0]
    assert not ok(_proc(2, "", "kmjm: error: usage\n"))[0]
    assert not ok(_proc(1, "", "Traceback (most recent call last):\n"))[0]
    with pytest.raises(ValueError):
        ok(_proc(0, "not json"))


def test_golden_gate_is_byte_exact():
    case = json.loads(workloads.GOLDEN.read_text())[0]
    check = workloads._check_golden
    assert check(case, _proc(case["exit"], case["stdout"]))[0]
    assert not check(case, _proc(case["exit"], case["stdout"] + " "))[0]
    assert not check(case, _proc(1, case["stdout"]))[0]


def test_jacobi_degrees_fit_the_window():
    degrees = [(h,) for h in range(-4, 5)]
    triples = workloads._jacobi_degrees(degrees, 4, 200, "A")
    assert len(triples) == 200
    for tri in triples:
        heights = [d[0] for d in tri]
        assert sum(h for h in heights if h > 0) <= 4
        assert sum(-h for h in heights if h < 0) <= 4
    assert workloads._jacobi_degrees(degrees, 4, 200, "A") == triples
