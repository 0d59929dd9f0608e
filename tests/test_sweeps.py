import hashlib
from collections import Counter

from kmjm.sweeps import (
    SUITES,
    SuiteReport,
    SweepConfig,
    criterion_instances,
    run_affine_heisenberg,
)


def test_suite_registry():
    assert set(SUITES) == {
        "symprop",
        "permissable",
        "reg-grade",
        "regdomthm",
        "rank2-theorem",
        "affine-heisenberg",
    }


def test_instances_are_deterministic():
    a = criterion_instances(SweepConfig())
    b = criterion_instances(SweepConfig(seed=20260819))
    assert a == b
    assert len(a) == 500
    # frozen census of the default instance set
    ranks = Counter(len(inst.matrix) for inst in a)
    assert dict(ranks) == {1: 18, 2: 305, 3: 177}
    assert all(inst.word for inst in a)
    assert all(inst.slice_roots() for inst in a[:25])
    # pinned words, slices and degrees of every instance
    out = hashlib.sha256()
    for inst in a:
        roots = [r.coeffs for r in inst.slice_roots()]
        out.update(repr((inst.describe(), roots)).encode())
    assert out.hexdigest() == (
        "506d834f7bc0e5f9d5f4b91d315c8d5dcc19e86fd0f60c89b15ca9aa9899bad1"
    )


def test_other_seed_changes_instances():
    assert criterion_instances(SweepConfig()) != criterion_instances(
        SweepConfig(seed=99)
    )


def test_instance_describe_is_json_ready():
    inst = criterion_instances(SweepConfig())[0]
    desc = inst.describe()
    assert set(desc) == {"instance", "matrix", "word", "tau", "d"}
    assert desc["instance"] == 0


def test_report_shape():
    rep = run_affine_heisenberg(SweepConfig())
    assert rep.ok and rep.cases == 1
    assert rep.as_dict() == {
        "suite": "affine-heisenberg",
        "cases": 1,
        "failures": [],
    }


def test_failed_report_carries_context():
    rep = SuiteReport("x", 1, 2, ({"instance": 0, "reason": "nope"},))
    assert not rep.ok
    assert rep.as_dict()["failures"] == [{"instance": 0, "reason": "nope"}]
