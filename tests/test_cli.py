import hashlib
import json
import sys

import pytest

from kmjm.cli import UsageError, _roots_json, main

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


def test_pisys_makes_no_table(capsys, peterson_calls):
    # members are decided by descent, and the command takes no oracle
    argv = ("pisys", "--gcm-inline", H3_INLINE, "--roots", "[[1,0],[0,1]]")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out_json(out)["pi_system"] is True
    assert peterson_calls == []
    code, out, err = run(capsys, *argv, "--oracle-height", "5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --oracle-height 5" in err


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
    assert err.splitlines()[-1] == (
        '{"error": "empty_slice", "message": "the requested slice is empty; nothing to '
        'extend", "context": {"word": "2,1,2", "tau": "1,1", "d": 2}}'
    )


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


@pytest.mark.parametrize("a, b", [(2, 2), (1, 4)])
def test_rank2_below_the_hyperbolic_range_is_a_domain_error(capsys, a, b):
    # ab = 4: every action refuses the pair the same way
    slice_ = ("--word", "1,2", "--tau", "1,1", "-d", "1")
    for action, extra in (("sequences", ()), ("families", ()),
                          ("classify", slice_), ("triple", slice_)):
        code, out, err = run(capsys, "rank2", "--a", str(a), "--b", str(b), action, *extra)
        assert code == 1 and out == "", action
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"] == "not_hyperbolic", action
        assert payload["context"] == {"product": 4}, action


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int-to-string conversion before Python 3.11")
@pytest.mark.parametrize("action", ["sequences", "families"])
def test_rank2_term_past_the_digit_limit_is_a_resource_cap(capsys, action):
    # at a = b = 3 the smallest limit Python allows, 640 digits, is passed
    # between terms 750 and 800, as the default 4300 is past term ~5150
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "rank2", "--a", "3", "--b", "3", action, "--count", "1000")
        assert run(capsys, "rank2", "--a", "3", "--b", "3", action, "--count", "750")[0] == 0
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1 and out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "resource_cap"
    assert payload["context"] == {"count": 1000, "digits_limit": 640}


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


def test_non_integer_matrices_are_not_gcms(capsys):
    # no matrix is read as a different algebra, and a matrix that is not a
    # list of rows is a domain error with a payload, not a Python message
    for inline, named in (
        ("[[2,-1.5],[-1,2]]", "entry A_12 = -1.5"),
        ("[[2.9,-1],[-1,2]]", "entry A_11 = 2.9"),
        ('[["2","-1"],["-1","2"]]', "entry A_11 = '2'"),
        ('"x"', "'x'"),
        ("[]", "[]"),
    ):
        code, out, err = run(capsys, "roots", "--gcm-inline", inline, "--height", "2")
        assert code == 1 and out == ""
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"] == "not_gcm"
        assert named in payload["message"]


def test_cap_must_be_positive(capsys, monkeypatch):
    for cap in ("0", "-1"):
        code, out, err = run(
            capsys, "roots", "--gcm-inline", A2_INLINE, "--height", "2", "--cap", cap
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"kmjm: error: the cap must be >= 1, got {cap}"
    monkeypatch.setenv("KMJM_CAP", "0")
    code, out, err = run(capsys, "roots", "--gcm-inline", A2_INLINE, "--height", "2")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "kmjm: error: KMJM_CAP must be >= 1, got '0'"
    monkeypatch.setenv("KMJM_CAP", "1")
    assert run(capsys, "roots", "--gcm-inline", A2_INLINE, "--height", "2")[0] == 0


def test_negative_heights_are_usage_errors(capsys):
    code, out, err = run(capsys, "roots", "--gcm-inline", H3_INLINE, "--height", "-2")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "kmjm: error: --height must be >= 0, got -2"


def test_sl2_negative_height_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "sl2", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "5", "--height", "-1",
    )
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "kmjm: error: --height must be >= 0, got -1"


def test_sl2_height_zero_skips_realization(capsys):
    code, out, _ = run(
        capsys, "sl2", "--gcm-inline", H51_INLINE,
        "--word", "2,1,2", "--tau", "1,1", "-d", "5", "--height", "0",
    )
    assert code == 0
    assert out_json(out) == {
        "h": {"coroots": {"1": "5", "2": "4"}},
        "f": {"coeffs": ["1"]},
        "symbolic": "pass",
        "realized": "skipped(height)",
    }


def test_height_zero_is_unchanged(capsys):
    # an empty table: no roots
    code, out, _ = run(capsys, "roots", "--gcm-inline", H3_INLINE, "--height", "0")
    assert code == 0 and out_json(out) == []


def test_config_height_zero_is_a_height(capsys, tmp_path):
    # {"height": 0} in --config acts exactly like --height 0
    cfg = tmp_path / "h0.json"
    cfg.write_text(json.dumps({"height": 0}))
    for height in (["--height", "0"], ["--config", str(cfg)]):
        code, out, _ = run(
            capsys, "sl2", "--gcm-inline", H51_INLINE,
            "--word", "2,1,2", "--tau", "1,1", "-d", "5", *height,
        )
        assert code == 0
        assert out_json(out)["realized"] == "skipped(height)", height
        code, out, err = run(
            capsys, "rank2", "--a", "5", "--b", "1", "triple",
            "--word", "2,1,2", "--tau", "1,1", "-d", "5", *height,
        )
        assert code == 2 and out == "", height
        assert err.splitlines()[-1] == "kmjm: error: height bound must be >= 1, got 0"


def test_pisys_boolean_coefficients_are_usage_errors(capsys):
    # JSON true is an integer to the parser, but not a root coefficient
    code, out, err = run(capsys, "pisys", "--gcm-inline", A2_INLINE, "--roots", "[[true,0]]")
    assert code == 2 and out == ""
    assert "each root needs 2 integer coefficients, got [True, 0]" in err
    with pytest.raises(UsageError):
        _roots_json("[[1,false]]", 2)
    (root,) = _roots_json("[[1,0]]", 2)
    assert root.coeffs == (1, 0)


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


# SHA-256 of `kmjm [SUBCOMMAND] --help` at COLUMNS=80, recorded under Python
# 3.10-3.12.  Python 3.13 changed argparse's layout (it wraps the usage line
# without splitting an option from its value and writes `-d, --degree
# DEGREE`), so it has its own table.
_HELP_DIGESTS = {
    "": "1cab916ba599f91bf768a2166cbad4bfe6dbb2c683ec9237fcfbaa5fb9ae8292",
    "roots": "a47039d9757a0df8509aabd4d24bcd32b9913c48393fd86e4bdf7edaf3bdb63b",
    "weyl": "7b448b3c148498213c0fde054f19d4194427a85209e7fb76a1c7ae3edd687ae0",
    "grade": "24c54e078d1f91513d33f9ca956ef1f7bf3172b7363afb1c6020499c008cb1c3",
    "pisys": "20731ffbe2e646f465d3a1f14662de95df740958ae6c0b36f9d255bf2eb6ea77",
    "sl2": "f3b953379fb4afe62b348df7936347b6ac5207d143defb03ed108a9a462d0f1e",
    "realize": "ff7a551fb2a79e3571806e6bf62bb6aad05fb43c3f2715382e38a7603d612444",
    "rank2": "d2664e1535d24b49e6b0b113f7e468d6dfba2b16a78dd6c8f696b131e6980ae1",
    "verify": "c55ce68e2d498177ab5b1cc02813b2778995f40fec9e8c7cfd6b6b2b303bac29",
}
_HELP_DIGESTS_313 = {
    **_HELP_DIGESTS,
    "weyl": "1751ce6d056e221ff1e87f268556d5355ff185c8ede48d0a7b12315532a1ceb1",
    "grade": "934036ba0fc2b25d366ab5d96a7d69dad280dab4c9a30a1b725e561933adb5da",
    "sl2": "2915cc6265159244d1df81a630f1db02c0a931a22da2ac76457afb07aa4a0f7d",
    "rank2": "515f70d59224fbcd6b424670a6c8983ff6a9c45f3ceb153d0fc3cc08a4146f01",
}


def test_suite_names_match_the_suites():
    # the verify parser spells the names out so that parsing loads no sweeps
    from kmjm import sweeps
    from kmjm.cli import _SUITE_NAMES

    assert _SUITE_NAMES == tuple(sweeps.SUITES)


def test_help_output_is_pinned(capsys, monkeypatch):
    table = _HELP_DIGESTS_313 if sys.version_info >= (3, 13) else _HELP_DIGESTS
    monkeypatch.setenv("COLUMNS", "80")
    for sub, want in table.items():
        code, out, err = run(capsys, *([sub] if sub else []), "--help")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == want, sub
