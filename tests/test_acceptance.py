"""Acceptance suite: one test per criterion, one printed verdict line each.

`pytest tests/test_acceptance.py -v` gives the per-criterion pass/fail lines;
add -s to also see the timing lines when everything is green.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import A2, A1_AFFINE, H3, H32, H51, H61
from kmjm import (
    Coweight,
    SingularB,
    WeylWord,
    b_seq,
    build_exceptional_triple,
    build_triple,
    build_truncated,
    check_interleavings,
    classify_intersection,
    exp_ad,
    make_pi_system,
    peterson_multiplicities,
    rootvec,
    validate_gcm,
)
from kmjm.lattice import RootVec
from kmjm._linalg import _span_of
from kmjm.realize import _flat, _minus
from kmjm.sl2 import verify_triple_elements
from kmjm.sweeps import SUITES, SweepConfig


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{name}]: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    tail = f" / budget {budget:.0f}s" if budget is not None else ""
    late = budget is not None and elapsed >= budget
    print(f"criterion {num} [{name}]: {'FAIL' if late else 'PASS'} ({elapsed:.2f}s{tail})")
    assert not late, f"time budget exceeded: {elapsed:.2f}s >= {budget}s"


def _run_suite(name, expected_cases, digest, config=SweepConfig()):
    report = SUITES[name](config)
    assert report.cases == expected_cases, (
        f"suite {name} ran {report.cases} cases, expected {expected_cases}"
    )
    assert not report.failures, (
        f"suite {name}: {len(report.failures)} failure(s), "
        f"first: {report.failures[0]}"
    )
    # the whole report at the config's seed, pinned
    got = hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode())
    assert got.hexdigest() == digest, f"suite {name}: the report changed"


def test_criterion_1_realization_matches_oracle():
    jobs = ((A2, 8, 8), (A1_AFFINE, 8, 26), (H3, 6, 36), (H51, 6, 20), (H32, 6, 28))
    with criterion(1, "realization vs oracle", budget=120):
        for matrix, height, total_dim in jobs:
            g = validate_gcm(matrix)
            alg = build_truncated(g, height, mode="strict")
            fresh = peterson_multiplicities(g, height)
            for deg, data in alg.degrees.items():
                # the exact rank of the brackets [b, e_i], made again from the
                # degrees below, on one side, the recursion on the other; a
                # simple root has no candidates
                if sum(deg) == 1:
                    rank = len(data.lower)
                else:
                    flat = [_flat(alg._candidate_tvec(i, _minus(deg, i), l), g.n)
                            for i in range(g.n) if deg[i]
                            for l in range(alg.degrees[_minus(deg, i)].mult)]
                    rank = len(_span_of(flat)[0])
                assert rank == fresh.mult.get(RootVec(deg), 0), (
                    f"graded dimension mismatch at {list(deg)} for {matrix}"
                )
            assert all(r.coeffs in alg.degrees for r in fresh.roots())
            assert alg.dim == total_dim


def test_criterion_2_single_member_slices():
    with criterion(2, "symprop sweep", budget=60):
        _run_suite(
            "symprop",
            78750,
            "a806296f85a19477f22e2947fe2a445f9605eeee6525d57bacd0bbd2c303678a",
        )


def test_criterion_3_exceptional_slice_classification():
    with criterion(3, "permissable sweep", budget=120):
        _run_suite(
            "permissable",
            157500,
            "7ee7ee4104a0057dadf88636013c4272fc7f765b6352f28e78af88afdcd8d255",
        )


def test_criterion_4_random_slices_are_finite_pi_systems():
    with criterion(4, "reg-grade sweep", budget=120):
        _run_suite(
            "reg-grade",
            500,
            "f9391f835e26a11090d3b66af79778266a03abda154d59036bbf45681bc362ef",
        )


def test_criterion_5_random_triples_extend():
    with criterion(5, "regdomthm sweep"):
        _run_suite(
            "regdomthm",
            500,
            "ccba43a6936abb05bb08cb027cebd6ad003d6ce4b421335215dd1ec00d0b1ba7",
        )


@pytest.mark.parametrize("name, digest", [
    ("reg-grade", "e22b01def63dc005b10175cefcadd855adb147d81a9be283688b3415416807ce"),
    ("regdomthm", "d00f4ecedb5063aab0b500f2e1277e3ae2c2db2f5c04c1cafdbbf71c8b4abae4"),
])
def test_second_instance_set_is_pinned(name, digest):
    # the draw of `run_verification.py --seed 7 --instances 200`
    _run_suite(name, 200, digest, SweepConfig(seed=7, instances=200))


def test_criterion_5b_rank2_hyperbolic_triples():
    # triples realized on rank-2 hyperbolic truncations of height 12
    with criterion("5b", "rank2-theorem sweep"):
        _run_suite(
            "rank2-theorem",
            2116,
            "3a6851b09e141467acbb893b18f9f908ddabaa29b732eb35ebc173e1e240d90f",
        )


def test_criterion_6_exceptional_triples(algebra):
    with criterion(6, "exceptional repairs", budget=60):
        for matrix in (H51, H61):
            g = validate_gcm(matrix)
            alg = algebra(matrix, 12)
            tau = Coweight((1, 0))
            for word in (WeylWord((1, 2)), WeylWord((2, 1, 2))):
                verdict = classify_intersection(g, word, tau, 1)
                assert verdict.exceptional
                for x, y in ((1, 1), (2, 3), (1, -1)):
                    t = build_exceptional_triple(g, verdict, x, y, alg)
                    assert verify_triple_elements(alg, t), (
                        f"bracket relations failed for {matrix}, "
                        f"{verdict.kind}, x={x}, y={y}"
                    )


def test_criterion_7_affine_obstruction_and_center(algebra):
    with criterion(7, "affine heisenberg"):
        g = validate_gcm(A1_AFFINE)
        sigma = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
        with pytest.raises(SingularB):
            build_triple(sigma)
        alg = algebra(A1_AFFINE, 6)
        z = alg.bracket(alg.e(1) + alg.e(2), alg.f(1) + alg.f(2))
        assert not z.is_zero()
        for i in (1, 2):
            assert alg.bracket(z, alg.e(i)).is_zero()
            assert alg.bracket(z, alg.f(i)).is_zero()


def test_criterion_8_interleaving_chains():
    with criterion(8, "interleavings"):
        pairs = [
            (a, b)
            for a in range(3, 21)
            for b in range(1, a)
            if 5 <= a * b <= 20
        ]
        assert pairs  # the range is nonempty by construction
        for a, b in pairs:
            rep = check_interleavings(a, b, 25)
            assert rep.ok, f"chain violated for (a, b) = ({a}, {b}): {rep.first_violation}"
        for a in range(3, 11):
            for n in range(50):
                assert b_seq(a, n) < b_seq(a, n + 1)


def test_criterion_9_termination_identity(algebra):
    with criterion(9, "one-step adjoint series"):
        alg = algebra(H51, 10)
        v = alg.positive_basis(rootvec((1, 4)))[0]
        step = alg.bracket(alg.e(2), v)
        assert not step.is_zero()
        for x, y in ((1, 1), (2, 3), (1, -1), (Fraction(3, 2), Fraction(-5, 7))):
            x, y = Fraction(x), Fraction(y)
            # must terminate exactly, never raising the ambiguity error
            out = exp_ad(alg, alg.e(2), x * v, y / x)
            assert out == x * v + y * step
