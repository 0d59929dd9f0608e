"""The command-line scripts under scripts/, run in-process through main."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
_spec = importlib.util.spec_from_file_location("run_verification", _SCRIPT)
run_verification = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_verification)


@pytest.mark.parametrize("count", [-3, 0])
def test_instance_count_below_one_is_a_usage_error(count, capsys):
    # a count that checks nothing must not read as a passing suite
    with pytest.raises(SystemExit) as info:
        run_verification.main(["--suite", "reg-grade", "--instances", str(count)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--instances must be >= 1, got {count}" in captured.err


def test_instance_count_sets_the_cases(capsys):
    assert run_verification.main(["--suite", "reg-grade", "--instances", "5"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["suite"] == "reg-grade" and line["cases"] == 5 and line["failures"] == []


def test_negative_failure_count_is_a_usage_error(capsys):
    # a negative count would slice the failure list from the wrong end
    with pytest.raises(SystemExit) as info:
        run_verification.main(["--suite", "affine-heisenberg", "--max-failures", "-1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-failures must be >= 0, got -1" in captured.err


def test_zero_failure_count_is_valid(capsys):
    assert run_verification.main(["--suite", "affine-heisenberg", "--max-failures", "0"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["failures"] == [] and "failures_truncated" not in line


def test_library_error_is_one_failing_line(capsys):
    # an algebra over the cap stops the suite: a structured line, no traceback
    assert run_verification.main(["--suite", "rank2-theorem", "--suite", "affine-heisenberg",
                                  "--cap", "50"]) == 1
    first, second = map(json.loads, capsys.readouterr().out.splitlines())
    assert first == {
        "suite": "rank2-theorem",
        "error": {
            "error": "resource_cap",
            "message": "estimated dimension 222 exceeds the cap 50",
            "context": {"estimated": 222, "cap": 50},
        },
    }
    assert second["suite"] == "affine-heisenberg" and second["failures"] == []
