"""The command-line scripts under scripts/, run in-process through main."""

import importlib.util
import json
from pathlib import Path

import pytest


def _load(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_verification = _load("run_verification")
dimension_table = _load("dimension_table")


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


@pytest.mark.parametrize("argv, message", [
    (["--matrix", "[[2,-1"], "--matrix '[[2,-1' is neither a name nor valid JSON"),
    (["--matrix", "5"], "--matrix '5' is not a JSON list of rows"),
    (["--height", "0"], "--height must be >= 1, got 0"),
    (["--cap", "0"], "the cap must be >= 1, got 0"),
], ids=["bad-json", "not-a-list", "height-0", "cap-0"])
def test_dimension_table_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        dimension_table.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_dimension_table_library_error_is_one_line(capsys):
    # a matrix that is not a GCM prints one structured line in place of its
    # table, and the next matrix still gets its table
    assert dimension_table.main(["--matrix", "[[2,1],[1,2]]", "--matrix", "a2",
                                 "--height", "2"]) == 1
    first, *rest = capsys.readouterr().out.splitlines()
    assert json.loads(first) == {"matrix": "[[2,1],[1,2]]", "error": {
        "error": "not_gcm",
        "message": "off-diagonal entry A_12 = 1 > 0",
        "context": {"i": 1, "j": 2},
    }}
    assert rest[0] == "== a2: [[2, -1], [-1, 2]]" and len(rest) == 2 + 2 + 1


def test_dimension_table_cap_is_one_failing_line(capsys):
    assert dimension_table.main(["--matrix", "h3", "--height", "6", "--cap", "5"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last) == {"matrix": "h3", "error": {
        "error": "resource_cap",
        "message": "estimated dimension 6 exceeds the cap 5",
        "context": {"estimated": 6, "cap": 5},
    }}
