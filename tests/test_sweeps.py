import hashlib
import random
from collections import Counter
from functools import lru_cache

import pytest

from kmjm import NotReduced, WeylWord, simple_root
from kmjm import sweeps
from kmjm.sweeps import (
    _POOL,
    SUITES,
    SuiteReport,
    SweepConfig,
    _gcm,
    _random_reduced_word,
    criterion_instances,
    run_affine_heisenberg,
)
from kmjm.weyl import apply_word, inversion_set


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


def test_sweep_bounds_are_module_constants():
    # a config sets only seed, instances and cap; the other bounds are fixed
    bounds = (sweeps.MAX_WORD, sweeps.MAX_TAU, sweeps.MAX_D, sweeps.MAX_ROOT_HEIGHT,
              sweeps.REALIZE_HEIGHT_CUTOFF, sweeps.SYMBOLIC_HEIGHT_CUTOFF)
    assert bounds == (10, 3, 20, 12, 8, 24)
    with pytest.raises(TypeError):
        SweepConfig(max_word=4)


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


def _reduced_prefix(g, rng, length):
    # grown through full inversion sets, independently of the sweeps' shortcut
    letters = []
    for _ in range(length):
        i = rng.randint(1, g.n)
        try:
            inversion_set(g, WeylWord.of(letters + [i]))
        except NotReduced:
            continue
        letters.append(i)
    return letters


def test_one_letter_extension_matches_inversion_set():
    # for a reduced w, w s_i is reduced exactly when w(alpha_i) > 0, and that
    # root is the one inversion w s_i adds to those of w
    rng = random.Random(1009)
    for matrix in _POOL:
        g = _gcm(matrix)
        for _ in range(12):
            letters = _reduced_prefix(g, rng, rng.randint(0, 10))
            w = WeylWord.of(letters)
            for i in range(1, g.n + 1):
                root = apply_word(g, w, simple_root(g.n, i))
                try:
                    inv = inversion_set(g, WeylWord.of(letters + [i]))
                except NotReduced:
                    assert not root.is_positive
                    continue
                assert root.is_positive
                assert inv == inversion_set(g, w) + [root]


def _reference_reduced_word(g, rng, max_len, max_height):
    # the word growth rebuilding every trial word's inversion set
    letters = []
    target = rng.randint(1, max_len)
    while len(letters) < target:
        cands = list(range(1, g.n + 1))
        rng.shuffle(cands)
        for i in cands:
            try:
                inv = inversion_set(g, WeylWord.of(letters + [i]))
            except NotReduced:
                continue
            if max(bb.height for bb in inv) > max_height:
                continue
            letters.append(i)
            break
        else:
            break
    return tuple(letters)


def test_word_growth_matches_full_inversion_sets():
    # the same word as the reference, and the inversions it accepted are the
    # word's inversion set, in order
    for seed in range(6):
        for max_height in (3, 12):
            ours, ref = random.Random(seed), random.Random(seed)
            for matrix in _POOL:
                g = _gcm(matrix)
                word, inversions = _random_reduced_word(g, ours, 10, max_height)
                assert word == _reference_reduced_word(g, ref, 10, max_height)
                assert inversions == inversion_set(g, WeylWord.of(word))


def test_algebra_keeps_one_table_per_matrix_and_height():
    # each algebra carries its own Peterson table, cut at its own height
    m = ((2, -3), (-3, 2))
    alg = sweeps._algebra(m, 6)
    assert sweeps._algebra(m, 6) is alg
    assert alg.table.gcm == sweeps._gcm(m) and alg.table.height == 6
    assert not hasattr(sweeps, "_oracle")


def test_reg_grade_makes_no_table(peterson_calls):
    assert SUITES["reg-grade"](SweepConfig()).ok
    assert peterson_calls == []


def test_regdomthm_builds_one_table_per_matrix(monkeypatch, peterson_calls):
    # the pi-systems need no table; each algebra makes one, for its matrix
    # at the realization height, once
    monkeypatch.setattr(sweeps, "_algebra", lru_cache(maxsize=None)(sweeps._algebra.__wrapped__))
    config = SweepConfig()
    assert SUITES["regdomthm"](config).ok
    realized = {
        inst.matrix for inst in criterion_instances(config)
        if max(b.height for b in inst.slice_roots()) <= sweeps.REALIZE_HEIGHT_CUTOFF
    }
    assert len(peterson_calls) == len(set(peterson_calls)) == len(realized)
    assert {entries for entries, _ in peterson_calls} == realized
    assert {height for _, height in peterson_calls} == {sweeps.REALIZE_HEIGHT_CUTOFF}


def test_triple_check_names_the_failing_step():
    m = ((2, -1), (-1, 2))
    a1, a2 = simple_root(2, 1), simple_root(2, 2)
    assert sweeps._check_triple(m, [a1], None, 2, None) is None
    assert sweeps._check_triple(m, [a1, a2], (2, -3), 2, None) is None
    # alpha_1 + alpha_2 minus alpha_1 is a root: no pi-system
    problem = sweeps._check_triple(m, [a1, a1 + a2], None, 2, None)
    assert problem.startswith("triple construction failed: ")
