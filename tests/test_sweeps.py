import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from kmjm import Coweight, KmjmError, NotPiSystem, NotReduced, RootVec, WeylWord, simple_root
from kmjm import rank2, realize, sl2, sweeps
from kmjm._linalg import _span_of
from kmjm.gcm import FINITE, TypeTag
from kmjm.pisystem import classify_pi_type
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
              sweeps.REALIZE_HEIGHT_CUTOFF)
    assert bounds == (10, 3, 20, 12, 8)
    with pytest.raises(TypeError):
        SweepConfig(max_word=4)


def test_a_config_refuses_an_empty_draw():
    # a report of 0 cases and no failure would pass having checked nothing
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"instances must be >= 1, got {n}"):
            SweepConfig(instances=n)
    assert SweepConfig(instances=1).instances == 1


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


def _spy_builds(monkeypatch):
    """Weak references to the algebras truncated_on_demand builds from here
    on, and the (matrix, table matrix, table height) of each; each build
    asserts that every earlier one is gone."""
    built, tables, real = [], [], realize.truncated_on_demand

    def spy(g, height, **kw):
        assert all(ref() is None for ref in built)
        alg = real(g, height, **kw)
        built.append(weakref.ref(alg))
        tables.append((alg.gcm, alg.table.gcm, alg.table.height))
        return alg

    monkeypatch.setattr(realize, "truncated_on_demand", spy)
    return built, tables


def test_rank2_theorem_holds_one_algebra_at_a_time(monkeypatch):
    # one algebra per (a, b) pair, gone before the next pair's is built; each
    # carries its own Peterson table, cut at its own height
    built, tables = _spy_builds(monkeypatch)
    assert SUITES["rank2-theorem"](SweepConfig()).ok
    assert len(built) == 6 and all(ref() is None for ref in built)
    pairs = [_gcm(sweeps._rank2_matrix(a, b)) for a, b in sweeps._PERMISSABLE_AB]
    assert tables == [(g, g, sweeps.MAX_ROOT_HEIGHT) for g in pairs]
    assert not hasattr(sweeps, "_oracle") and not hasattr(sweeps, "_algebra")


def test_no_algebra_outlives_the_suites():
    # other tests may hold algebras of their own: only new ones count
    kept = [o for o in gc.get_objects() if isinstance(o, realize.TruncatedAlgebra)]
    for run in SUITES.values():
        assert run(SweepConfig()).ok
    gc.collect()
    ids = {id(o) for o in kept}
    assert [o for o in gc.get_objects()
            if isinstance(o, realize.TruncatedAlgebra) and id(o) not in ids] == []


def test_reg_grade_makes_no_table(peterson_calls):
    assert SUITES["reg-grade"](SweepConfig()).ok
    assert peterson_calls == []


def test_regdomthm_builds_one_table_per_matrix(peterson_calls):
    # the pi-systems need no table; each algebra makes one, for its matrix
    # at the realization height, once
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
    alg = realize.truncated_on_demand(_gcm(m), 2)
    for roots, coeffs in (([a1], None), ([a1, a2], (2, -3))):
        triple = sweeps._symbolic_triple(m, roots, coeffs)
        assert isinstance(triple, sl2.SL2Triple)
        assert sweeps._realized_problem(alg, triple) is None
    # alpha_1 + alpha_2 minus alpha_1 is a root: no pi-system
    problem = sweeps._symbolic_triple(m, [a1, a1 + a2], None)
    assert problem.startswith("triple construction failed: ")
    # a grading element that is not the triple's: the brackets fail
    bad = sl2.SL2Triple(triple.sigma, triple.coeffs, triple.mu, (0, 0))
    assert not sl2.verify_symbolic(bad)
    assert sweeps._realized_problem(alg, bad) == "realized relations failed"


def test_instance_slices_match_the_instances():
    # one pass of the rng draws gives the cached instances and their slices
    for config in (SweepConfig(), SweepConfig(seed=7, instances=200)):
        pairs = list(sweeps._instance_slices(config))
        assert tuple(inst for inst, _ in pairs) == criterion_instances(config)
        assert all(roots == inst.slice_roots() for inst, roots in pairs)


# Reference loops: every instance checked on its own, as the suites did
# before they checked each distinct slice once.  They call make_pi_system,
# build_triple, verify_symbolic and verify_realized through the modules the
# suites read them from, so a monkeypatched failure reaches both sides.

def _reference_reg_grade(config):
    insts = criterion_instances(config)
    failures = []
    for inst in insts:
        rec = inst.describe()
        try:
            sigma = sweeps.make_pi_system(_gcm(inst.matrix), inst.slice_roots())
        except KmjmError as err:
            failures.append({**rec, "problem": f"pi-system rejected: {err}"})
            continue
        tag = classify_pi_type(sigma)
        if tag.kind != FINITE:
            failures.append({**rec, "problem": f"induced type is {tag.kind}"})
            continue
        span, _ = _span_of([dict(enumerate(row)) for row in sigma.b_matrix])
        if len(span) < len(sigma.b_matrix):
            failures.append({**rec, "problem": "induced matrix is singular"})
    return SuiteReport("reg-grade", config.seed, len(insts), tuple(failures)).as_dict()


def _reference_check_triple(matrix, roots, coeffs, height, cap, algebras):
    # algebras: matrix -> its algebra, kept by the reference loop
    try:
        triple = sl2.build_triple(sweeps.make_pi_system(_gcm(matrix), roots), coeffs)
    except KmjmError as err:
        return f"triple construction failed: {err}"
    if not sl2.verify_symbolic(triple):
        return "symbolic relations failed"
    if max(bb.height for bb in roots) > height:
        return None
    if matrix not in algebras:
        algebras[matrix] = realize.truncated_on_demand(_gcm(matrix), height, cap=cap)
    try:
        ok = sl2.verify_realized(triple, algebras[matrix])
    except KmjmError as err:
        return f"realization failed: {err}"
    return None if ok else "realized relations failed"


def _weights(config, inst, roots):
    rng = random.Random(config.seed * 1_000_003 + inst.index)
    return tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in roots)


def _reference_regdomthm(config):
    insts = criterion_instances(config)
    failures = []
    algebras = {}
    for inst in insts:
        roots = inst.slice_roots()
        coeffs = _weights(config, inst, roots)
        problem = _reference_check_triple(inst.matrix, roots, coeffs,
                                          sweeps.REALIZE_HEIGHT_CUTOFF, config.cap, algebras)
        if problem:
            failures.append({**inst.describe(), "coeffs": list(coeffs), "problem": problem})
    return SuiteReport("regdomthm", config.seed, len(insts), tuple(failures)).as_dict()


def _reference_rank2_theorem(config):
    # every case checked on its own: the whole grid, every pair's algebra
    # alive throughout, then the pinned exceptional grid
    cases, failures, algebras = 0, [], {}

    def pair_problem(matrix, verdict, x, y):
        g = _gcm(matrix)
        if matrix not in algebras:
            algebras[matrix] = realize.truncated_on_demand(g, sweeps.MAX_ROOT_HEIGHT,
                                                           cap=config.cap)
        try:
            t = rank2.build_exceptional_triple(g, verdict, x, y, algebras[matrix])
            if not sl2.verify_triple_elements(algebras[matrix], t):
                return "realized relations failed"
        except KmjmError as err:
            return f"{type(err).__name__}: {err}"
        return None

    for a, b, g, word, tau, _, counts in sweeps._rank2_grid(sweeps._PERMISSABLE_AB,
                                                           sweeps.MAX_TAU, 6):
        matrix = sweeps._rank2_matrix(a, b)
        for d in range(1, 13):
            if not counts.get(d, 0):
                continue
            cases += 1
            rec = {"a": a, "b": b, "word": list(word.letters), "tau": list(tau.values), "d": d}
            try:
                verdict = rank2.classify_intersection(g, word, tau, d)
            except KmjmError as err:
                failures.append({**rec, "problem": f"classification failed: {err}"})
                continue
            if verdict.kind != "Single":
                problem = pair_problem(matrix, verdict, 1, 1)
            else:
                problem = _reference_check_triple(matrix, [verdict.root], None,
                                                  sweeps.MAX_ROOT_HEIGHT, config.cap, algebras)
            if problem:
                failures.append({**rec, "problem": problem})
    for a in (5, 6):
        matrix = sweeps._rank2_matrix(a, 1)
        for word, d in (((1, 2), 1), ((2, 1, 2), 1)):
            verdict = rank2.classify_intersection(_gcm(matrix), WeylWord.of(word),
                                                  Coweight((1, 0)), d)
            for x, y in sweeps._PINNED_XY:
                cases += 1
                problem = pair_problem(matrix, verdict, x, y)
                if problem:
                    failures.append({"a": a, "b": 1, "word": list(word), "tau": [1, 0],
                                     "d": d, "x": x, "y": y, "problem": problem})
    return SuiteReport("rank2-theorem", config.seed, cases, tuple(failures)).as_dict()


def _realized_draws(config):
    # (matrix, slice, weights) of every instance whose slice is realized
    out = []
    for inst in criterion_instances(config):
        roots = inst.slice_roots()
        if max(bb.height for bb in roots) <= sweeps.REALIZE_HEIGHT_CUTOFF:
            out.append((inst.matrix, tuple(roots), _weights(config, inst, roots)))
    return out


def _shared_slice(config):
    """A (matrix, slice) whose slice also occurs under another matrix, and
    which is realized under more than one weight tuple: a memo that dropped
    the matrix or the weights from its key would misreport it."""
    draws = _realized_draws(config)
    weights, matrices = {}, {}
    for matrix, roots, coeffs in draws:
        weights.setdefault((matrix, roots), set()).add(coeffs)
        matrices.setdefault(tuple(bb.coeffs for bb in roots), set()).add(matrix)
    for (matrix, roots), ws in weights.items():
        if len(ws) > 1 and len(matrices[tuple(bb.coeffs for bb in roots)]) > 1:
            return matrix, roots, sorted(ws)
    raise AssertionError("no slice is shared")


def _fail_pi_system_on(monkeypatch, matrix, roots):
    real = sweeps.make_pi_system

    def patched(g, members):
        if g.entries == _gcm(matrix).entries and tuple(members) == roots:
            raise NotPiSystem("injected rejection", members=len(members))
        return real(g, members)

    monkeypatch.setattr(sweeps, "make_pi_system", patched)


@pytest.mark.parametrize("config", [SweepConfig(), SweepConfig(seed=7, instances=200)])
def test_reg_grade_dedup_matches_per_instance_loop(monkeypatch, config):
    matrix, roots, _ = _shared_slice(config)
    _fail_pi_system_on(monkeypatch, matrix, roots)
    ours = SUITES["reg-grade"](config).as_dict()
    assert ours == _reference_reg_grade(config)
    assert ours["cases"] == config.instances
    assert len(ours["failures"]) > 1
    assert [f["instance"] for f in ours["failures"]] == sorted(
        f["instance"] for f in ours["failures"])


@pytest.mark.parametrize("config", [SweepConfig(), SweepConfig(seed=7, instances=200)])
def test_regdomthm_dedup_matches_per_instance_loop(monkeypatch, config):
    matrix, roots, ws = _shared_slice(config)
    # a triple that is never built, on another matrix
    _fail_pi_system_on(monkeypatch, *next(
        (m, r) for m, r, _ in _realized_draws(config) if m != matrix))
    real = sl2.verify_realized
    bad, raising = ws[0], ws[1]

    def patched(triple, alg):
        coeffs = tuple(triple.coeffs)
        if tuple(triple.sigma.roots) == roots and alg.gcm.entries == _gcm(matrix).entries:
            if coeffs == bad:
                return False
            if coeffs == raising:
                raise KmjmError("injected realization failure")
        return real(triple, alg)

    monkeypatch.setattr(sl2, "verify_realized", patched)
    ours = SUITES["regdomthm"](config).as_dict()
    assert ours == _reference_regdomthm(config)
    assert ours["cases"] == config.instances
    problems = Counter(f["problem"] for f in ours["failures"])
    assert problems["realized relations failed"] >= 1
    assert problems["realization failed: injected realization failure"] >= 1
    assert any(p.startswith("triple construction failed: ") for p in problems)
    assert [f["instance"] for f in ours["failures"]] == sorted(
        f["instance"] for f in ours["failures"])


def test_rank2_theorem_memo_matches_per_case_loop(monkeypatch):
    # one injected failure of each kind.  The Single alpha_1 occurs under both
    # (3, 2) and (2, 3) and fails differently under each, so a memo shared
    # across pairs would misreport it; 5 alpha_1 + 2 alpha_2 (height 7) is
    # realized, 5 alpha_1 + 8 alpha_2 (height 13) is checked on root data only;
    # the pinned failure of (5, 1) must still follow (7, 1)'s grid
    config = SweepConfig()
    h32, h23, h71, h51 = (_gcm(sweeps._rank2_matrix(a, b))
                          for a, b in ((3, 2), (2, 3), (7, 1), (5, 1)))
    a1 = simple_root(2, 1)
    real_classify, real_realized = rank2.classify_intersection, sl2.verify_realized
    real_symbolic, real_pair = sl2.verify_symbolic, rank2.build_exceptional_triple

    def classify(g, word, tau, d):
        if g == h32 and word.letters == (1, 2) and d == 1:
            raise KmjmError("injected classification failure")
        return real_classify(g, word, tau, d)

    def realized(triple, alg):
        if alg.gcm == h32 and triple.sigma.roots == (a1,):
            return False
        if alg.gcm == h23 and triple.sigma.roots == (RootVec((5, 2)),):
            raise KmjmError("injected realization failure")
        return real_realized(triple, alg)

    def symbolic(triple):
        if triple.sigma.gcm == h23 and triple.sigma.roots in ((a1,), (RootVec((5, 8)),)):
            return False
        return real_symbolic(triple)

    def pair(g, verdict, x, y, alg):
        if g == h71 and verdict.kind == "ExceptionalII":
            raise KmjmError("injected exceptional failure")
        t = real_pair(g, verdict, x, y, alg)
        if g == h51 and verdict.kind == "ExceptionalI" and (x, y) == (2, 3):
            return sl2.RealizedTriple(t.e, t.h, 2 * t.f)
        return t

    monkeypatch.setattr(rank2, "classify_intersection", classify)
    monkeypatch.setattr(sl2, "verify_realized", realized)
    monkeypatch.setattr(sl2, "verify_symbolic", symbolic)
    monkeypatch.setattr(rank2, "build_exceptional_triple", pair)
    ours = SUITES["rank2-theorem"](config).as_dict()
    assert ours == _reference_rank2_theorem(config)
    assert ours["cases"] == 2116
    fails = ours["failures"]
    problems = Counter(f["problem"] for f in fails)
    assert problems["classification failed: injected classification failure"] >= 1
    assert problems["realized relations failed"] >= 2
    assert problems["realization failed: injected realization failure"] == 36
    assert problems["symbolic relations failed"] == 72 + 9
    assert problems["KmjmError: injected exceptional failure"] >= 1
    assert {(f["a"], f["b"]) for f in fails} == {(3, 2), (2, 3), (7, 1), (5, 1)}
    pinned = [f for f in fails if "x" in f]
    assert [(f["a"], f["x"], f["y"]) for f in pinned] == [(5, 2, 3)]
    assert fails[-1] == pinned[0]


def test_rank2_theorem_checks_every_single_it_counts(monkeypatch):
    # positive control: a symbolic check failing every root above height 24
    # fails the 30 counted cases whose single root lies there (11 distinct
    # roots, up to height 51), so none of them goes unchecked
    real = sweeps._symbolic_triple

    def symbolic(matrix, roots, coeffs):
        if max(r.height for r in roots) > 24:
            return "symbolic relations failed"
        return real(matrix, roots, coeffs)

    monkeypatch.setattr(sweeps, "_symbolic_triple", symbolic)
    report = SUITES["rank2-theorem"](SweepConfig())
    assert report.cases == 2116
    assert [f["problem"] for f in report.failures] == ["symbolic relations failed"] * 30


def test_each_distinct_slice_is_checked_once(monkeypatch):
    # at the default seed the 500 instances hold 170 distinct (matrix, slice)
    # pairs; 484 instances are realized, under 354 distinct weight tuples
    config = SweepConfig()
    made, realized = [], []
    real_make, real_verify = sweeps.make_pi_system, sl2.verify_realized

    def spy_make(g, roots):
        made.append((g.entries, tuple(roots)))
        return real_make(g, roots)

    def spy_verify(triple, alg):
        realized.append((alg.gcm.entries, tuple(triple.sigma.roots), triple.coeffs))
        return real_verify(triple, alg)

    monkeypatch.setattr(sweeps, "make_pi_system", spy_make)
    monkeypatch.setattr(sl2, "verify_realized", spy_verify)
    assert SUITES["reg-grade"](config).ok
    assert len(made) == len(set(made)) == 170
    made.clear()
    assert SUITES["regdomthm"](config).ok
    assert len(made) == len(set(made)) == 170
    assert len(realized) == len(set(realized)) == 354
    assert len(_realized_draws(config)) == 484


def test_regdomthm_holds_one_algebra_at_a_time(monkeypatch):
    # the suite realizes one matrix's triples at a time, each in an algebra of
    # its own that is gone before the next one is built, and the module keeps
    # no algebra cache: no algebra outlives the suite call
    assert not hasattr(sweeps, "_algebra")
    built, _ = _spy_builds(monkeypatch)
    assert SUITES["regdomthm"](SweepConfig()).ok
    assert len(built) == len({m for m, _, _ in _realized_draws(SweepConfig())})
    assert all(ref() is None for ref in built)


# Positive controls: each verdict branch of a suite fires on an input made to
# trip it, so a weakened check no longer passes as "0 failures".

def _feed_grid(monkeypatch, items):
    # the rank-2 suites draw their cases from _rank2_grid; give them these
    # (a, b, word, tau, counts) items instead
    def grid(pairs, tau_bound, max_len):
        for a, b, word, tau, counts in items:
            g = _gcm(sweeps._rank2_matrix(a, b))
            w = WeylWord.of(word)
            yield a, b, g, w, Coweight(tau), inversion_set(g, w), Counter(counts)

    monkeypatch.setattr(sweeps, "_rank2_grid", grid)


def test_symprop_reports_a_two_root_slice(monkeypatch):
    # in H(3,3) the word (1, 2) inverts alpha_1 and (3, 1), both of grade 1
    # under tau = (1, -2); no dominant tau does that, so the item is fed in
    _feed_grid(monkeypatch, [(3, 3, (1, 2), (1, -2), {1: 2})])
    report = sweeps.run_symprop()
    assert report.failures == (
        {"a": 3, "word": [1, 2], "tau": [1, -2], "d": 1, "slice": [[1, 0], [3, 1]]},
    )


def test_permissable_reports_every_problem(monkeypatch):
    def classify(g, word, tau, d):
        if word.letters == (1, 2):
            return rank2.IntersectionVerdict("Single", (simple_root(2, 1),))
        raise KmjmError("injected")

    _feed_grid(monkeypatch, [
        (3, 2, (1,), (1, 1), {1: 3}),
        (3, 2, (1,), (1, 1), {2: 2}),
        (5, 1, (1, 2), (1, 0), {1: 2}),
        (5, 1, (2, 1), (1, 0), {1: 2}),
    ])
    monkeypatch.setattr(rank2, "classify_intersection", classify)
    report = sweeps.run_permissable()
    assert [f["problem"] for f in report.failures] == [
        "slice has more than two roots",
        "two-root slice with min(a,b) > 1",
        "verdict Single for a two-root slice",
        "classification failed: injected",
    ]


def test_pi_system_problem_names_the_type_and_a_singular_b(monkeypatch):
    m = ((2, -2), (-2, 2))
    a1, a2 = simple_root(2, 1), simple_root(2, 2)
    assert sweeps._pi_system_problem(m, a1, a2) == "induced type is affine"
    # the induced matrix of the affine pair is singular too; with the type
    # check passed, that check names it
    monkeypatch.setattr(sweeps, "classify_pi_type", lambda sigma: TypeTag(FINITE))
    assert sweeps._pi_system_problem(m, a1, a2) == "induced matrix is singular"


def test_affine_heisenberg_reports_its_witnesses(monkeypatch):
    monkeypatch.setattr(sl2, "solve_mu", lambda b: (1, 1))
    monkeypatch.setattr(realize.TruncatedAlgebra, "bracket", lambda self, x, y: self.zero())
    report = run_affine_heisenberg(SweepConfig())
    assert [f["problem"] for f in report.failures] == [
        "solve_mu accepted the singular induced matrix",
        "central witness [e, f_1 + f_2] vanished",
    ]
