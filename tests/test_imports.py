"""The package's import boundary: the realization layer loads on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmjm

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("kmjm.realize", "kmjm.sl2", "kmjm.rank2", "kmjm.sweeps")

# the public names of `kmjm`: those it had before its realization layer became
# lazy, less OracleTooShort (nothing raises it), and the error EmptySlice
PUBLIC = {
    "AlgElement", "Coweight", "DegenerateDenominator", "EmptySlice", "GCM",
    "HeightOutOfRange", "InternalInconsistency", "IntersectionVerdict", "KmjmError", "MultTable",
    "NotDominant", "NotGCM", "NotHyperbolic", "NotPiSystem", "NotRealRoot",
    "NotReduced", "NotSymmetrizable", "PiSystem", "Rank2Label",
    "RealizedTriple", "ResourceCap", "RootVec", "SL2Triple", "SUITES", "SingularB",
    "SuiteReport", "SweepConfig", "TruncatedAlgebra",
    "TypeTag", "WeylWord", "ZeroElement", "apply_word", "b_seq", "bilinear_form",
    "build_exceptional_triple", "build_triple", "build_truncated",
    "check_finite_grading", "check_interleavings", "check_locally_nilpotent",
    "classify", "classify_intersection", "classify_pi_type", "companion_vector",
    "coroot_pairing", "defining_word", "exp_ad", "family_root", "gamma_eta",
    "grade_of", "inversion_set", "is_reduced", "is_root", "make_pi_system", "norm",
    "peterson_multiplicities", "phi_w_d", "pi_image", "real_root_vector",
    "realize_triple", "reduce_word", "reflect", "rootvec", "simple_reflection",
    "simple_root", "solve_mu", "validate_gcm", "verify_realized", "verify_symbolic",
    "verify_triple_elements",
}


ROOT_DATA_COMMANDS = (
    "from kmjm.cli import main\n"
    "A = '[[2,-1],[-5,2]]'\n"
    "for argv in (\n"
    "    ['weyl', '--gcm-inline', A, '--word', '1,2,1'],\n"
    "    ['roots', '--gcm-inline', A, '--height', '4'],\n"
    "    ['grade', '--gcm-inline', A, '--word', '2,1,2', '--tau', '1,1', '-d', '5'],\n"
    "    ['pisys', '--gcm-inline', A, '--roots', '[[1,0],[0,1]]'],\n"
    "):\n"
    "    assert main(argv) == 0, argv\n"
)


def _modules_after(code: str) -> set:
    # run code in a fresh interpreter and return every module it has loaded
    probe = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _loaded_after(code: str) -> set:
    # the kmjm modules that code loads in a fresh interpreter
    return {m for m in _modules_after(code) if m.startswith("kmjm")}


def test_root_data_commands_leave_the_realization_layer_unloaded():
    loaded = _loaded_after(ROOT_DATA_COMMANDS)
    assert not loaded & set(HEAVY)
    assert loaded == {
        "kmjm", "kmjm.cli", "kmjm.errors", "kmjm.gcm", "kmjm.grading",
        "kmjm.lattice", "kmjm._linalg", "kmjm.pisystem", "kmjm.roots", "kmjm.weyl",
    }


def test_rank2_closed_forms_leave_realize_unloaded():
    loaded = _loaded_after(
        "from kmjm.cli import main\n"
        "for argv in (\n"
        "    ['rank2', '--a', '3', '--b', '3', 'sequences', '--count', '6'],\n"
        "    ['rank2', '--a', '5', '--b', '1', 'families', '--count', '4'],\n"
        "    ['rank2', '--a', '5', '--b', '1', 'classify', '--word', '2,1,2',\n"
        "     '--tau', '1,0', '-d', '1'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
    )
    assert "kmjm.rank2" in loaded
    assert not loaded & {"kmjm.realize", "kmjm.sl2", "kmjm.sweeps"}


def test_suites_load_without_realize():
    loaded = _loaded_after("from kmjm import SUITES")
    assert "kmjm.sweeps" in loaded
    assert not loaded & {"kmjm.realize", "kmjm.sl2", "kmjm.rank2"}


def test_pi_system_suite_script_leaves_realize_unloaded():
    # reg-grade checks pi-systems only, so its script run builds no algebra
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    loaded = _loaded_after(
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('run_verification', {str(script)!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "assert module.main(['--suite', 'reg-grade']) == 0\n"
    )
    assert "kmjm.sweeps" in loaded
    assert not loaded & {"kmjm.realize", "kmjm.sl2", "kmjm.rank2"}


def test_no_dataclasses_or_inspect():
    # both cost a fresh interpreter milliseconds; kmjm's value types need neither
    bare = _modules_after("pass")
    for code in (
        ROOT_DATA_COMMANDS,
        "from kmjm.cli import main\n"
        "assert main(['sl2', '--gcm-inline', '[[2,-1],[-5,2]]', '--word', '2,1,2',\n"
        "             '--tau', '1,1', '-d', '5']) == 0\n",
        "from kmjm import SUITES\nassert SUITES['symprop']().ok\n",
    ):
        assert not (_modules_after(code) - bare) & {"dataclasses", "inspect"}, code


def test_all_is_the_public_api():
    assert set(kmjm.__all__) == PUBLIC
    assert len(kmjm.__all__) == len(PUBLIC)
    assert set(dir(kmjm)) >= PUBLIC | {"realize", "sl2", "rank2", "sweeps"}


def test_star_import():
    ns = {}
    exec("from kmjm import *", ns)
    assert set(ns) - {"__builtins__"} == PUBLIC


def test_lazy_names_are_their_modules_objects():
    for name, home in kmjm._LAZY.items():
        module = importlib.import_module(f"kmjm.{home}")
        assert module.__name__ in HEAVY
        assert getattr(kmjm, name) is getattr(module, name), name
    for module in HEAVY:
        assert getattr(kmjm, module.split(".")[1]) is sys.modules[module]


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kmjm.no_such_name
    assert not hasattr(kmjm, "no_such_name")
