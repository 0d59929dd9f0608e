"""Falsification sweeps behind ``kmjm verify``.

Each suite replays one mechanized claim over a bounded, deterministic grid
and reports every counterexample candidate it finds.  An empty failure list
is the pass verdict; suites never stop at the first hit, so a report always
describes the whole grid.  The suites import ``rank2``, ``realize`` and
``sl2`` where they use them, so ``symprop`` and ``reg-grade`` load none of
the three and ``permissable`` only ``rank2``.

Random instances repeat: at the default seed the 500 instances of
``reg-grade`` and ``regdomthm`` hold 170 distinct (matrix, slice) pairs.  So
each distinct slice is checked once per suite call (its pi-system, and in
``regdomthm`` its grading element and symbolic check), and each distinct
(matrix, slice, weights) triple is realized once.  ``cases`` still counts
instances, and every instance gets its own failure record, in instance
order.

Every suite realizes in algebras local to its own call, one at a time:
``regdomthm`` one matrix's triples after the symbolic pass, and
``rank2-theorem`` one (a, b) pair's grid.  Each algebra is dropped before the
next is built, so no suite keeps an algebra after its call.  The suites'
memos are ``functools.cache`` wrappers made in the call, so they go with it
too.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache, lru_cache
from itertools import product

from ._linalg import _span_of
from .errors import KmjmError, SingularB
from .gcm import FINITE, GCM, validate_gcm
from .grading import check_finite_grading, grade_of, phi_w_d
from .lattice import Coweight, RootVec, Value, WeylWord, simple_root
from .pisystem import classify_pi_type, make_pi_system
from .weyl import _times_simple, _unit_images, inversion_set

__all__ = [
    "SweepConfig",
    "SweepInstance",
    "SuiteReport",
    "SUITES",
    "criterion_instances",
    "run_symprop",
    "run_permissable",
    "run_reg_grade",
    "run_regdomthm",
    "run_rank2_theorem",
    "run_affine_heisenberg",
]


# The fixed bounds of the sweeps: the length of a random word, the largest
# coweight value and degree of a random instance, the height its inversions
# stay within (also the height of rank2-theorem's algebras), and the height
# up to which a triple is realized.
MAX_WORD = 10
MAX_TAU = 3
MAX_D = 20
MAX_ROOT_HEIGHT = 12
REALIZE_HEIGHT_CUTOFF = 8


class SweepConfig(Value):
    """The seed, the number of random instances and the dimension cap of a
    sweep.  Everything downstream of a config is deterministic, including the
    random instance set."""

    __slots__ = ("seed", "instances", "cap")

    def __init__(self, seed: int = 20260819, instances: int = 500, cap: int | None = None):
        # a sweep over no instance would pass having checked nothing
        if instances < 1:
            raise ValueError(f"instances must be >= 1, got {instances}")
        self._init(seed, instances, cap)


class SuiteReport(Value):
    __slots__ = ("suite", "seed", "cases", "failures")

    def __init__(self, suite: str, seed: int, cases: int, failures: tuple = ()):
        self._init(suite, seed, cases, failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [dict(f) for f in self.failures],
        }


# ---------------------------------------------------------------------------
# shared caches and small grid helpers

@lru_cache(maxsize=None)
def _gcm(matrix) -> GCM:
    return validate_gcm([list(row) for row in matrix])


def _rank2_matrix(a: int, b: int):
    return ((2, -b), (-a, 2))


def _alternating_words(max_len: int) -> list:
    """All reduced words of an infinite rank-2 Weyl group up to max_len:
    the identity plus the two alternating words of each length."""
    out = [()]
    for ln in range(1, max_len + 1):
        for start in (1, 2):
            out.append(tuple(start if k % 2 == 0 else 3 - start for k in range(ln)))
    return out


def _rank2_grid(pairs, tau_bound: int, max_len: int):
    """The grid of the rank-2 suites, one item per coweight.  For each (a, b)
    in pairs, each alternating word up to max_len and each finite-grading
    coweight with values up to tau_bound, yields (a, b, g, word, tau,
    inversions, counts): g is [[2, -b], [-a, 2]], word a WeylWord, tau a
    Coweight, and counts the number of the word's inversions of each grade.
    The suites test the degrees."""
    for a, b in pairs:
        g = _gcm(_rank2_matrix(a, b))
        taus = [Coweight(t) for t in product(range(tau_bound + 1), repeat=2)]
        taus = [tau for tau in taus if check_finite_grading(g, tau)]
        for letters in _alternating_words(max_len):
            word = WeylWord.of(letters)
            inv = inversion_set(g, word)
            for tau in taus:
                yield a, b, g, word, tau, inv, Counter(grade_of(bb, tau) for bb in inv)


# ---------------------------------------------------------------------------
# suite: symprop — |Phi_w^d| <= 1 on the symmetric hyperbolics

def run_symprop(config: SweepConfig = SweepConfig()) -> SuiteReport:
    cases = 0
    failures = []
    for a, _, _, word, tau, inv, counts in _rank2_grid(((3, 3), (4, 4), (5, 5)), 5, 12):
        cases += 30
        for d in range(1, 31):
            if counts.get(d, 0) > 1:
                failures.append(
                    {
                        "a": a,
                        "word": list(word.letters),
                        "tau": list(tau.values),
                        "d": d,
                        "slice": [list(bb.coeffs) for bb in inv if grade_of(bb, tau) == d],
                    }
                )
    return SuiteReport("symprop", config.seed, cases, tuple(failures))


# ---------------------------------------------------------------------------
# suite: permissable — two-root slices happen only in the listed patterns

_PERMISSABLE_AB = ((3, 2), (2, 3), (5, 1), (1, 5), (6, 1), (7, 1))


def run_permissable(config: SweepConfig = SweepConfig()) -> SuiteReport:
    from .rank2 import classify_intersection

    cases = 0
    failures = []
    for a, b, g, word, tau, _, counts in _rank2_grid(_PERMISSABLE_AB, 5, 12):
        cases += 30
        for d in range(1, 31):
            n = counts.get(d, 0)
            if n <= 1:
                continue
            rec = {
                "a": a,
                "b": b,
                "word": list(word.letters),
                "tau": list(tau.values),
                "d": d,
                "size": n,
            }
            if n > 2:
                rec["problem"] = "slice has more than two roots"
                failures.append(rec)
                continue
            if min(a, b) > 1:
                rec["problem"] = "two-root slice with min(a,b) > 1"
                failures.append(rec)
                continue
            try:
                verdict = classify_intersection(g, word, tau, d)
            except KmjmError as err:
                rec["problem"] = f"classification failed: {err}"
                failures.append(rec)
                continue
            if not verdict.exceptional:
                rec["problem"] = f"verdict {verdict.kind} for a two-root slice"
                failures.append(rec)
    return SuiteReport("permissable", config.seed, cases, tuple(failures))


# ---------------------------------------------------------------------------
# random instances shared by reg-grade and regdomthm

# Indecomposable and decomposable GCMs of rank <= 3 with entries >= -4,
# covering finite, affine, hyperbolic and wild indefinite type.
_POOL = (
    ((2,),),
    # rank 2
    ((2, 0), (0, 2)),
    ((2, -1), (-1, 2)),
    ((2, -1), (-2, 2)),
    ((2, -2), (-1, 2)),
    ((2, -2), (-2, 2)),
    ((2, -1), (-3, 2)),
    ((2, -3), (-1, 2)),
    ((2, -3), (-3, 2)),
    ((2, -1), (-4, 2)),
    ((2, -4), (-1, 2)),
    ((2, -2), (-4, 2)),
    ((2, -4), (-2, 2)),
    ((2, -4), (-4, 2)),
    ((2, -2), (-3, 2)),
    ((2, -3), (-2, 2)),
    # rank 3
    ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ((2, -2, 0), (-1, 2, -1), (0, -2, 2)),
    ((2, -4, 0), (-1, 2, -2), (0, -3, 2)),
    ((2, 0, -3), (0, 2, -1), (-2, -4, 2)),
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    ((2, -2, -1), (-2, 2, -3), (-1, -3, 2)),
    ((2, -4, -4), (-4, 2, -4), (-4, -4, 2)),
    ((2, -2, -4), (-1, 2, -2), (-1, -1, 2)),
    ((2, 0, 0), (0, 2, -1), (0, -1, 2)),
)


class SweepInstance(Value):
    __slots__ = ("index", "matrix", "word", "tau", "d")

    def __init__(self, index: int, matrix: tuple, word: tuple, tau: tuple, d: int):
        self._init(index, matrix, word, tau, d)

    def slice_roots(self) -> list:
        g = _gcm(self.matrix)
        return phi_w_d(g, WeylWord.of(self.word), Coweight(self.tau), self.d)

    def describe(self) -> dict:
        return {
            "instance": self.index,
            "matrix": [list(row) for row in self.matrix],
            "word": list(self.word),
            "tau": list(self.tau),
            "d": self.d,
        }


def _random_reduced_word(g: GCM, rng: random.Random, max_len: int, max_height: int):
    """Grow a reduced word letter by letter, keeping every inversion within
    the height budget; stops early when no letter extends it.  Returns the
    word and its inversion set, in the order of inversion_set.

    The word w so far is reduced, so w s_i is reduced exactly when w(alpha_i)
    is positive, and that root is its one new inversion."""
    letters: list = []
    inversions: list = []
    images = _unit_images(g.n)  # w(alpha_j) for the word w so far
    target = rng.randint(1, max_len)
    while len(letters) < target:
        cands = list(range(1, g.n + 1))
        rng.shuffle(cands)
        for i in cands:
            root = images[i - 1]
            if min(root) < 0 or sum(root) > max_height:
                continue
            letters.append(i)
            inversions.append(RootVec(tuple(root)))
            _times_simple(g, images, i)
            break
        else:
            break
    return tuple(letters), inversions


def _instance_slices(config: SweepConfig):
    """Yield each instance of criterion_instances(config) with its slice,
    the list inst.slice_roots() returns, from the same rng draws.  The slice
    is cut from the inversions the word growth accepted, so no inversion set
    is computed again."""
    rng = random.Random(config.seed)
    for idx in range(config.instances):
        matrix = _POOL[rng.randrange(len(_POOL))]
        g = _gcm(matrix)
        word, inversions = _random_reduced_word(g, rng, MAX_WORD, MAX_ROOT_HEIGHT)
        tau = tuple(rng.randint(1, MAX_TAU) for _ in range(g.n))
        tcw = Coweight(tau)
        grades = [grade_of(bb, tcw) for bb in inversions]
        # the first letter contributes a simple root of grade <= MAX_TAU,
        # so there is always a realized degree within bounds
        d = rng.choice(sorted({x for x in grades if x <= MAX_D}))
        # phi_w_d's order: inversion order, then sorted by (height, lex)
        roots = sorted(bb for bb, x in zip(inversions, grades) if x == d)
        yield SweepInstance(idx, matrix, word, tau, d), roots


@lru_cache(maxsize=4)
def criterion_instances(config: SweepConfig = SweepConfig()):
    """The seeded random instance set: (GCM, reduced word, regular-dominant
    coweight, realized degree).  The degree is always realized by the slice,
    so every instance has a nonempty Phi_w^d."""
    return tuple(inst for inst, _ in _instance_slices(config))


def _symbolic_triple(matrix, roots, coeffs):
    """The sl2-triple of weights coeffs on the pi-system of roots, built and
    checked on root data, or the problem with it (a str)."""
    from .sl2 import build_triple, verify_symbolic

    try:
        triple = build_triple(make_pi_system(_gcm(matrix), roots), coeffs)
    except KmjmError as err:
        return f"triple construction failed: {err}"
    if not verify_symbolic(triple):
        return "symbolic relations failed"
    return triple


def _realized_problem(alg, triple) -> str | None:
    """The problem with the triple realized in the algebra, or None."""
    from .sl2 import verify_realized

    try:
        ok = verify_realized(triple, alg)
    except KmjmError as err:
        return f"realization failed: {err}"
    return None if ok else "realized relations failed"


# ---------------------------------------------------------------------------
# suite: reg-grade — every random slice is a finite-type pi-system

def _pi_system_problem(matrix, *roots) -> str | None:
    """Why the slice is not a finite-type pi-system with a nonsingular
    induced matrix, or None."""
    try:
        sigma = make_pi_system(_gcm(matrix), roots)
    except KmjmError as err:
        return f"pi-system rejected: {err}"
    tag = classify_pi_type(sigma)
    if tag.kind != FINITE:
        return f"induced type is {tag.kind}"
    span, _ = _span_of([dict(enumerate(row)) for row in sigma.b_matrix])
    if len(span) < len(sigma.b_matrix):
        return "induced matrix is singular"
    return None


def run_reg_grade(config: SweepConfig = SweepConfig()) -> SuiteReport:
    cases = 0
    failures = []
    check = cache(_pi_system_problem)
    for inst, roots in _instance_slices(config):
        cases += 1
        problem = check(inst.matrix, *roots)
        if problem:
            failures.append({**inst.describe(), "problem": problem})
    return SuiteReport("reg-grade", config.seed, cases, tuple(failures))


# ---------------------------------------------------------------------------
# suite: regdomthm — every random slice extends to an sl2-triple

def run_regdomthm(config: SweepConfig = SweepConfig()) -> SuiteReport:
    from .realize import truncated_on_demand
    from .sl2 import SL2Triple

    symbolic = cache(_symbolic_triple)  # weight one: a slice's sigma, mu and h
    todo = {}  # matrix -> {(matrix, slice, weights): the triple to realize}
    records = []  # (instance, weights, its problem or its key in todo)
    for inst, roots in _instance_slices(config):
        rng = random.Random(config.seed * 1_000_003 + inst.index)
        coeffs = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in roots)
        roots = tuple(roots)
        verdict = symbolic(inst.matrix, roots, None)
        if isinstance(verdict, str):
            pass
        elif max(bb.height for bb in roots) > REALIZE_HEIGHT_CUTOFF:
            verdict = None
        else:
            # the weights enter e and f only: mu and h are the slice's
            key = (inst.matrix, roots, coeffs)
            todo.setdefault(inst.matrix, {})[key] = SL2Triple(verdict.sigma, coeffs, verdict.mu,
                                                              verdict.h_coords)
            verdict = key
        records.append((inst, coeffs, verdict))
    # one matrix at a time, each in an algebra of its own: the suite never
    # holds them all
    realized = {}
    for matrix, group in todo.items():
        alg = truncated_on_demand(_gcm(matrix), REALIZE_HEIGHT_CUTOFF, cap=config.cap)
        for key, triple in group.items():
            realized[key] = _realized_problem(alg, triple)
        del alg  # gone before the next one is built
    failures = []
    for inst, coeffs, verdict in records:
        problem = realized.get(verdict, verdict)  # a str or None stands for itself
        if problem:
            failures.append({**inst.describe(), "coeffs": list(coeffs), "problem": problem})
    return SuiteReport("regdomthm", config.seed, len(records), tuple(failures))


# ---------------------------------------------------------------------------
# suite: rank2-theorem — every nonempty slice verdict extends to a triple

_PINNED_XY = ((1, 1), (2, 3), (1, -1))


def _check_pair(g, alg, verdict, x, y) -> str | None:
    from .rank2 import build_exceptional_triple
    from .sl2 import verify_triple_elements

    try:
        t = build_exceptional_triple(g, verdict, x, y, alg)
        if not verify_triple_elements(alg, t):
            return "realized relations failed"
    except KmjmError as err:
        return f"{type(err).__name__}: {err}"
    return None


def run_rank2_theorem(config: SweepConfig = SweepConfig()) -> SuiteReport:
    from .rank2 import classify_intersection
    from .realize import truncated_on_demand

    cases = 0
    failures = []
    pinned = []  # the pinned grid's failures, reported after the sweep's
    for a, b in _PERMISSABLE_AB:
        matrix = _rank2_matrix(a, b)
        g = _gcm(matrix)
        alg = truncated_on_demand(g, MAX_ROOT_HEIGHT, cap=config.cap)

        @cache
        def single(beta):
            triple = _symbolic_triple(matrix, [beta], None)
            if isinstance(triple, str):
                return triple
            return None if beta.height > MAX_ROOT_HEIGHT else _realized_problem(alg, triple)

        pair = cache(lambda verdict: _check_pair(g, alg, verdict, 1, 1))
        for _, _, _, word, tau, _, counts in _rank2_grid(((a, b),), MAX_TAU, 6):
            for d in range(1, 13):
                if not counts.get(d, 0):
                    continue
                cases += 1
                rec = {"a": a, "b": b, "word": list(word.letters), "tau": list(tau.values), "d": d}
                try:
                    verdict = classify_intersection(g, word, tau, d)
                except KmjmError as err:
                    failures.append({**rec, "problem": f"classification failed: {err}"})
                    continue
                if verdict.kind != "Single":
                    problem = pair(verdict)
                else:
                    problem = single(verdict.root)
                if problem:
                    failures.append({**rec, "problem": problem})
        if (a, b) in ((5, 1), (6, 1)):
            # pinned exceptional grid: both repair cases, three coefficient pairs
            for word, d in (((1, 2), 1), ((2, 1, 2), 1)):
                verdict = classify_intersection(g, WeylWord.of(word), Coweight((1, 0)), d)
                for x, y in _PINNED_XY:
                    cases += 1
                    problem = _check_pair(g, alg, verdict, x, y)
                    if problem:
                        pinned.append({"a": a, "b": 1, "word": list(word), "tau": [1, 0],
                                       "d": d, "x": x, "y": y, "problem": problem})
        del alg  # gone before the next pair's algebra is built
    return SuiteReport("rank2-theorem", config.seed, cases, tuple(failures + pinned))


# ---------------------------------------------------------------------------
# suite: affine-heisenberg — the counterexample where no repair exists

def run_affine_heisenberg(config: SweepConfig = SweepConfig()) -> SuiteReport:
    from .realize import truncated_on_demand
    from .sl2 import solve_mu

    matrix = _rank2_matrix(2, 2)
    g = _gcm(matrix)
    problems = []
    sigma = make_pi_system(g, [simple_root(2, 1), simple_root(2, 2)])
    try:
        solve_mu(sigma.b_matrix)
        problems.append("solve_mu accepted the singular induced matrix")
    except SingularB:
        pass
    alg = truncated_on_demand(g, 6, cap=config.cap)
    e = alg.e(1) + alg.e(2)
    z = alg.bracket(e, alg.f(1) + alg.f(2))
    if z.is_zero():
        problems.append("central witness [e, f_1 + f_2] vanished")
    for i in (1, 2):
        if not alg.bracket(z, alg.e(i)).is_zero():
            problems.append(f"[z, e_{i}] != 0")
        if not alg.bracket(z, alg.f(i)).is_zero():
            problems.append(f"[z, f_{i}] != 0")
    failures = tuple({"case": "A_1 affine", "problem": p} for p in problems)
    return SuiteReport("affine-heisenberg", config.seed, 1, failures)


SUITES = {
    "symprop": run_symprop,
    "permissable": run_permissable,
    "reg-grade": run_reg_grade,
    "regdomthm": run_regdomthm,
    "rank2-theorem": run_rank2_theorem,
    "affine-heisenberg": run_affine_heisenberg,
}
