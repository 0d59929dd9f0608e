"""Realization arithmetic is exact and integer-first: every coefficient is an
int or a Fraction, never a float (nor a bool), and the constructors and
integral scalars give ints.  A float or a bool given as a scalar is refused,
not read as its binary value."""

import random
from fractions import Fraction

import pytest

from conftest import A2, A2_AFFINE, H3, H51
from kmjm import (
    Coweight,
    HeightOutOfRange,
    WeylWord,
    bilinear_form,
    build_exceptional_triple,
    build_triple,
    classify_intersection,
    companion_vector,
    exp_ad,
    make_pi_system,
    norm,
    real_root_vector,
    rootvec,
    simple_reflection,
    validate_gcm,
    verify_triple_elements,
)
from kmjm import rank2

WILD3 = [[2, -4, -4], [-4, 2, -4], [-4, -4, 2]]


def _assert_exact(*elements):
    for x in elements:
        for v in x.terms.values():
            assert type(v) in (int, Fraction), (type(v), v)


def _assert_ints(*elements):
    for x in elements:
        assert all(type(v) is int for v in x.terms.values()), x.terms


def _combination(rng, basis):
    out = basis[0].alg.zero()
    for b in basis:
        out = out + rng.choice((-3, -2, -1, 1, 2, 3)) * b
    return out


@pytest.mark.parametrize("matrix, height", [(A2_AFFINE, 7), (H3, 8), (WILD3, 5)])
def test_realization_coefficients_are_never_floats(algebra, matrix, height):
    alg = algebra(matrix, height)
    g, n = alg.gcm, alg.gcm.n
    rng = random.Random(height)
    roots = alg.table.roots()
    for v in roots:
        assert type(norm(g, v)) is int
        assert type(bilinear_form(g, v, roots[0])) is int

    # constructors and integral scalars give ints
    gens = [x for i in range(1, n + 1) for x in (alg.e(i), alg.f(i), alg.h(i))]
    basis = [b for v in roots for b in alg.positive_basis(v)]
    _assert_ints(*gens, *basis, *alg.negative_basis(roots[-1]))
    _assert_ints(alg.cartan([Fraction(2 * k, 2) for k in range(1, n + 1)]))
    for s in (3, -1, Fraction(4, 2)):
        _assert_ints(*(s * x for x in gens))
    half = Fraction(1, 2) * alg.e(1)
    assert half.terms == {k: Fraction(1, 2) for k in alg.e(1).terms}
    _assert_exact(half, alg.cartan([Fraction(1, 2)] * n))

    # seeded brackets of integer combinations, across positive, negative and
    # Cartan parts; a pair whose bracket or iterate leaves the window is
    # redrawn
    spaces = [[alg.h(i) for i in range(1, n + 1)]]
    spaces += [alg.positive_basis(v) for v in roots]
    spaces += [alg.negative_basis(v) for v in roots]
    checked = 0
    while checked < 40:
        x, y = (_combination(rng, rng.choice(spaces)) for _ in range(2))
        try:
            xy = alg.bracket(x, y)
            _assert_exact(x, y, xy, alg.bracket(xy, y))
        except HeightOutOfRange:
            continue
        checked += 1

    # exponentials, reflection operators and transport; a series that
    # leaves the height window is undecided, not wrong
    for i in range(1, n + 1):
        for y in (alg.e(i), alg.f(i), alg.h(i), _combination(rng, rng.choice(spaces))):
            for x in (alg.e(i), alg.f(i)):
                for t in (1, -2, Fraction(1, 3)):
                    try:
                        _assert_exact(exp_ad(alg, x, y, t))
                    except HeightOutOfRange:
                        pass
            try:
                _assert_exact(simple_reflection(alg, i, y),
                              simple_reflection(alg, i, y, inverse=True))
            except HeightOutOfRange:
                pass
    real = [v for v in roots if norm(g, v) > 0]
    for beta in real:
        try:
            vec, comp = real_root_vector(alg, beta)
        except HeightOutOfRange:
            vec = alg.positive_basis(beta)[0]
            comp = companion_vector(alg, beta, vec)
        _assert_exact(vec, comp, companion_vector(alg, beta, 3 * vec), alg.bracket(vec, comp))


def test_space_ratio_of_integral_vectors_is_exact(algebra):
    # two int coefficients must not divide to a float
    alg = algebra(H51, 12)
    e = alg.e(1)
    for u, v, want in ((3 * e, e, 3), (e, 2 * e, Fraction(1, 2)), (-e, 3 * e, Fraction(-1, 3))):
        r = rank2._space_ratio(u, v)
        assert type(r) in (int, Fraction) and r == want


def test_exceptional_case_one_triple_is_exact(algebra, monkeypatch):
    g = validate_gcm(H51)  # a = 5, b = 1
    alg = algebra(H51, 12)
    verdict = classify_intersection(g, WeylWord((1, 2)), Coweight((1, 0)), 1)
    assert verdict.kind == "ExceptionalI"
    ratios = []
    space_ratio = rank2._space_ratio

    def spy(u, v):
        ratios.append(space_ratio(u, v))
        return ratios[-1]

    monkeypatch.setattr(rank2, "_space_ratio", spy)
    for x, y in ((1, 1), (2, -3), (Fraction(1, 2), 4)):
        t = build_exceptional_triple(g, verdict, x, y, alg)
        _assert_exact(t.e, t.h, t.f)
        assert verify_triple_elements(alg, t)
    assert ratios and all(type(r) in (int, Fraction) for r in ratios)


def test_float_and_bool_scalars_are_refused(algebra):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    alg = algebra(A2, 2)
    e, f = alg.e(1), alg.f(1)
    for bad in (0.1, 2.0, True):
        with pytest.raises(TypeError, match="int or a Fraction"):
            bad * e
        with pytest.raises(TypeError, match="int or a Fraction"):
            e * bad
        with pytest.raises(TypeError, match="int or a Fraction"):
            alg.cartan([bad, 1])
        with pytest.raises(TypeError, match="int or a Fraction"):
            exp_ad(alg, e, f, bad)
        with pytest.raises(TypeError, match="int or a Fraction"):
            build_triple(make_pi_system(alg.gcm, [rootvec((1, 0))]), (bad,))
    # an exact tenth: exp(t ad e_1) f_1 = f_1 + t h_1 - t^2 e_1
    tenth = Fraction(1, 10)
    assert (tenth * e).terms == {k: tenth for k in e.terms}
    assert exp_ad(alg, e, f, tenth) == f + tenth * alg.h(1) - Fraction(1, 100) * e


def test_exceptional_triple_refuses_float_coefficients(algebra):
    g = validate_gcm(H51)
    alg = algebra(H51, 12)
    verdict = classify_intersection(g, WeylWord((1, 2)), Coweight((1, 0)), 1)
    for x, y in ((0.5, 1), (1, 2.0), (True, 1)):
        with pytest.raises(TypeError, match="int or a Fraction"):
            build_exceptional_triple(g, verdict, x, y, alg)
