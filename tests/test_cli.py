import json

import pytest

from kmjm.cli import main

H3_INLINE = "[[2,-3],[-3,2]]"
H51_INLINE = "[[2,-1],[-5,2]]"
A2_INLINE = "[[2,-1],[-1,2]]"
AFFINE_INLINE = "[[2,-2],[-2,2]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(text):
    return json.loads(text)


def test_header_line(capsys):
    code, out, err = run(capsys, "weyl", "--gcm-inline", H3_INLINE, "--word", "1,2,1")
    assert code == 0
    assert err.splitlines()[0] == "# kmjm weyl seed=20260819 cap=20000 format=json"


def test_weyl_inversions(capsys):
    code, out, _ = run(capsys, "weyl", "--gcm-inline", H3_INLINE, "--word", "1,2,1")
    assert code == 0
    assert out_json(out) == {"reduced": True, "inversions": [[1, 0], [3, 1], [8, 3]]}
    code, out, _ = run(capsys, "weyl", "--gcm-inline", H3_INLINE, "--word", "1,1")
    assert code == 0
    assert out_json(out) == {"reduced": False, "inversions": None}


def test_roots_listing(capsys, tmp_path):
    gcm_file = tmp_path / "m.json"
    gcm_file.write_text(H3_INLINE)
    code, out, _ = run(capsys, "roots", "--gcm", str(gcm_file), "--height", "4")
    assert code == 0
    rows = out_json(out)
    assert {"coeffs": [1, 1], "mult": 1, "norm": "-2", "real": False} in rows
    assert {"coeffs": [2, 2], "mult": 1, "norm": "-8", "real": False} in rows
    code, out, _ = run(
        capsys, "roots", "--gcm", str(gcm_file), "--height", "4", "--real-only"
    )
    rows = out_json(out)
    assert all(r["real"] for r in rows)
    assert sorted(r["coeffs"] for r in rows) == [[0, 1], [1, 0], [1, 3], [3, 1]]


def test_grade(capsys):
    code, out, _ = run(
        capsys, "grade", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "5",
    )
    assert code == 0
    assert out_json(out) == {"phi_w_d": [[1, 4]], "finite_grading": True}


def test_pisys_positive_and_negative(capsys):
    code, out, _ = run(
        capsys, "pisys", "--gcm-inline", A2_INLINE, "--roots", "[[1,0],[0,1]]"
    )
    assert code == 0
    data = out_json(out)
    assert data["pi_system"] is True
    assert data["B"] == [[2, -1], [-1, 2]]
    assert data["type"] == "finite"
    assert data["independent"] is True
    # a failed check is a negative answer, not an error
    code, out, _ = run(
        capsys, "pisys", "--gcm-inline", A2_INLINE, "--roots", "[[1,0],[1,1]]"
    )
    assert code == 0
    data = out_json(out)
    assert data["pi_system"] is False and data["B"] is None
    assert data["reason"]


def test_sl2_from_slice(capsys):
    code, out, _ = run(
        capsys, "sl2", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "5",
    )
    assert code == 0
    data = out_json(out)
    assert data["h"]["coroots"] == {"1": "5", "2": "4"}
    assert data["symbolic"] == "pass"
    assert data["realized"] == "pass"


def test_sl2_empty_slice_is_structured_error(capsys):
    code, out, err = run(
        capsys, "sl2", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "2",
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "empty_slice"


def test_sl2_singular_b(capsys):
    code, _, err = run(
        capsys, "sl2", "--gcm-inline", AFFINE_INLINE, "--roots", "[[1,0],[0,1]]"
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "singular_b"


def test_sl2_skips_realization_above_the_window(capsys):
    code, out, _ = run(
        capsys, "sl2", "--gcm-inline", H51_INLINE,
        "--roots", "[[1,4]]", "--height", "4",
    )
    assert code == 0
    assert out_json(out)["realized"] == "skipped(height)"


def test_realize_dims(capsys):
    code, out, _ = run(
        capsys, "realize", "--gcm-inline", A2_INLINE, "--height", "4", "--dims"
    )
    assert code == 0
    dims = out_json(out)["dims"]
    assert dims["[0, 0]"] == 2
    assert dims["[1, 1]"] == 1
    assert dims["[-1, -1]"] == 1
    assert len(dims) == 7


def test_realize_resource_cap(capsys):
    code, _, err = run(
        capsys, "realize", "--gcm-inline", H3_INLINE, "--height", "6",
        "--dims", "--cap", "10",
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "resource_cap"


def test_rank2_sequences(capsys):
    code, out, _ = run(
        capsys, "rank2", "--a", "3", "--b", "3", "sequences", "--count", "6"
    )
    assert code == 0
    data = out_json(out)
    assert data["b_seq"] == ["0", "1", "3", "8", "21", "55"]
    assert data["eta"] == ["1", "8", "55", "377", "2584", "17711"]
    # asymmetric matrices do not carry the single sequence
    code, out, _ = run(capsys, "rank2", "--a", "3", "--b", "2", "sequences")
    assert code == 0
    assert "b_seq" not in out_json(out)


def test_rank2_families(capsys):
    code, out, _ = run(
        capsys, "rank2", "--a", "5", "--b", "1", "families", "--count", "2"
    )
    assert code == 0
    data = out_json(out)
    assert data["LL"] == [[1, 0], [4, 5]]
    assert data["SU"] == [[0, 1], [1, 4]]


def test_rank2_classify_and_triple(capsys):
    code, out, _ = run(
        capsys, "rank2", "--a", "5", "--b", "1", "classify",
        "--word", "2,1,2", "--tau", "1,0", "-d", "1",
    )
    assert code == 0
    assert out_json(out) == {
        "kind": "ExceptionalII",
        "roots": [[1, 4], [1, 5]],
        "swapped": False,
    }
    code, out, _ = run(
        capsys, "rank2", "--a", "5", "--b", "1", "triple",
        "--word", "2,1,2", "--tau", "1,0", "-d", "1", "--coeffs", "2,3",
    )
    assert code == 0
    data = out_json(out)
    assert data["kind"] == "ExceptionalII"
    assert data["relations"] == "pass"
    assert data["e"]["terms"]
    code, _, err = run(
        capsys, "rank2", "--a", "5", "--b", "1", "triple",
        "--word", "2,1,2", "--tau", "1,1", "-d", "2",
    )
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "empty_slice"


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "affine-heisenberg")
    assert code == 0
    assert out_json(out) == {
        "suite": "affine-heisenberg",
        "cases": 1,
        "failures": [],
    }


def test_usage_errors(capsys):
    code, _, err = run(capsys, "weyl", "--word", "1,2")
    assert code == 2 and "kmjm: error:" in err
    code, _, err = run(
        capsys, "weyl", "--gcm-inline", A2_INLINE,
        "--gcm", "also.json", "--word", "1",
    )
    assert code == 2
    code, _, err = run(
        capsys, "weyl", "--gcm-inline", A2_INLINE, "--word", "one,two"
    )
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_negative_heights_are_usage_errors(capsys):
    code, out, err = run(capsys, "roots", "--gcm-inline", H3_INLINE, "--height", "-2")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "kmjm: error: --height must be >= 0, got -2"
    code, out, err = run(
        capsys, "pisys", "--gcm-inline", H3_INLINE, "--roots", "[[1,0]]",
        "--oracle-height", "-1",
    )
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "kmjm: error: --oracle-height must be >= 0, got -1"


def test_height_zero_is_unchanged(capsys):
    # an empty table: no roots, and an oracle too short for any member
    code, out, _ = run(capsys, "roots", "--gcm-inline", H3_INLINE, "--height", "0")
    assert code == 0 and out_json(out) == []
    code, out, err = run(
        capsys, "pisys", "--gcm-inline", H3_INLINE, "--roots", "[[1,0]]",
        "--oracle-height", "0",
    )
    assert code == 1 and out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "oracle_too_short"
    assert payload["context"] == {"table_height": 0, "needed": 2}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_tsv_format(capsys):
    code, out, _ = run(
        capsys, "grade", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "5", "--format", "tsv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "phi_w_d\t[[1, 4]]"
    assert lines[1] == "finite_grading\ttrue"
    code, out, _ = run(
        capsys, "roots", "--gcm-inline", A2_INLINE, "--height", "2",
        "--format", "tsv",
    )
    lines = out.splitlines()
    assert lines[0] == "coeffs\tmult\tnorm\treal"
    assert len(lines) == 4


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "height": 4, "format": "json"}))
    code, out, err = run(
        capsys, "roots", "--gcm-inline", A2_INLINE, "--config", str(cfg)
    )
    assert code == 0
    assert "seed=7" in err.splitlines()[0]
    assert len(out_json(out)) == 3  # height came from the config
    # flags beat the config
    code, _, err = run(
        capsys, "roots", "--gcm-inline", A2_INLINE, "--config", str(cfg),
        "--seed", "9", "--height", "2",
    )
    assert code == 0
    assert "seed=9" in err.splitlines()[0]


def test_config_values_must_be_integers(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for bad in (
        {"cap": "abc"}, {"cap": 2.5}, {"cap": True}, {"height": "4"},
        {"seed": [1]}, {"seed": 2.7}, {"seed": "7"},
    ):
        cfg.write_text(json.dumps(bad))
        code, out, err = run(
            capsys, "realize", "--gcm-inline", A2_INLINE, "--height", "3",
            "--dims", "--config", str(cfg),
        )
        assert code == 2 and out == ""
        (key,) = bad
        assert err.splitlines()[-1].startswith(
            f"kmjm: error: config {key} must be an integer"
        )
        assert "Traceback" not in err


def test_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("KMJM_CAP", "10")
    code, _, err = run(
        capsys, "realize", "--gcm-inline", H3_INLINE, "--height", "6", "--dims"
    )
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "resource_cap"
    monkeypatch.setenv("KMJM_CAP", "not-a-number")
    code, _, err = run(
        capsys, "realize", "--gcm-inline", H3_INLINE, "--height", "6", "--dims"
    )
    assert code == 2


def test_deterministic_output(capsys):
    args = (
        "sl2", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "5",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_domain_error_payload_shape(capsys):
    code, _, err = run(
        capsys, "roots", "--gcm-inline", "[[2,1],[1,2]]", "--height", "3"
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert set(payload) == {"error", "message", "context"}
    assert payload["error"] == "not_gcm"
