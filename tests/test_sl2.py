from fractions import Fraction

import pytest

from conftest import A2, A1_AFFINE, B2, H51
from kmjm import (
    HeightOutOfRange,
    SingularB,
    ZeroElement,
    build_triple,
    companion_vector,
    make_pi_system,
    real_root_vector,
    realize_triple,
    rootvec,
    solve_mu,
    validate_gcm,
    verify_realized,
    verify_symbolic,
    verify_triple_elements,
)
from kmjm.realize import truncated_on_demand
from kmjm.sl2 import RealizedTriple, SL2Triple
from kmjm.roots import coroot_coords


def test_solve_mu_basics():
    assert solve_mu(((2,),)) == (Fraction(1),)
    assert solve_mu(((2, -1), (-1, 2))) == (Fraction(2), Fraction(2))


def test_solve_mu_singular():
    with pytest.raises(SingularB):
        solve_mu(((2, -2), (-2, 2)))


def test_build_triple_simple_roots():
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    triple = build_triple(ps)
    assert triple.coeffs == (Fraction(1), Fraction(1))
    assert triple.mu == (Fraction(2), Fraction(2))
    assert triple.f_coeffs == (Fraction(2), Fraction(2))
    assert verify_symbolic(triple)


def test_build_triple_rejects_zero_or_miscounted_coeffs():
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    with pytest.raises(ZeroElement):
        build_triple(ps, coeffs=(1, 0))
    with pytest.raises(ValueError):
        build_triple(ps, coeffs=(1,))


def test_realize_principal_a2(algebra):
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    triple = build_triple(ps, coeffs=(2, 3))
    alg = algebra(A2, 4)
    assert verify_realized(triple, alg)
    assert verify_triple_elements(alg, realize_triple(triple, alg))


def test_realize_tall_singleton(algebra):
    g = validate_gcm(H51)
    beta = rootvec((1, 4))
    ps = make_pi_system(g, [beta])
    triple = build_triple(ps)
    # h is pinned by the grading: beta(h) = 2
    assert triple.h_coords == (Fraction(5), Fraction(4))
    alg = algebra(H51, 10)
    assert verify_realized(triple, alg)
    # two independent routes to the root space, transport and the graded
    # basis, give proportional vectors whose companions bracket to the coroot
    coroot = alg.cartan(coroot_coords(g, beta))
    up, down = real_root_vector(alg, beta)
    vec = alg.positive_basis(beta)[0]
    assert alg.bracket(up, down) == coroot
    assert alg.bracket(vec, companion_vector(alg, beta, vec)) == coroot
    (key,) = vec.terms
    assert up == (up.terms[key] / vec.terms[key]) * vec


def test_realize_falls_back_per_member():
    # transport reaches the first member but not the second, whose reflection
    # string leaves the window: only the second takes its vector from the
    # graded basis.  At (1,1) of [[2,-3],[-1,2]] the transported vector is not
    # the basis vector, so a fallback for the whole triple would show in e.
    cases = ((B2, 3, (1, 0), (1, 2)), ([[2, -3], [-1, 2]], 4, (1, 1), (3, 1)))
    for matrix, height, low, high in cases:
        g = validate_gcm(matrix)
        alg = truncated_on_demand(g, height)
        low, high = rootvec(low), rootvec(high)
        moved, _ = real_root_vector(alg, low)
        with pytest.raises(HeightOutOfRange):
            real_root_vector(alg, high)
        triple = build_triple(make_pi_system(g, [low, high]), coeffs=(2, 3))
        rt = realize_triple(triple, alg)
        assert verify_triple_elements(alg, rt)
        assert rt.e == 2 * moved + 3 * alg.positive_basis(high)[0]


def test_affine_simples_have_singular_b():
    g = validate_gcm(A1_AFFINE)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    with pytest.raises(SingularB):
        build_triple(ps)


def test_heisenberg_center(algebra):
    alg = algebra(A1_AFFINE, 6)
    e = alg.e(1) + alg.e(2)
    f = alg.f(1) + alg.f(2)
    z = alg.bracket(e, f)
    assert not z.is_zero()
    for i in (1, 2):
        assert alg.bracket(z, alg.e(i)).is_zero()
        assert alg.bracket(z, alg.f(i)).is_zero()


def test_each_triple_relation_fires_on_its_own():
    # positive controls in A1 x A1, where [h_1, e_2] = [e_1, f_2] = 0: each
    # triple breaks exactly one relation, and verification refuses it
    alg = truncated_on_demand(validate_gcm([[2, 0], [0, 2]]), 1)
    e1, e2, f1, f2, h1 = alg.e(1), alg.e(2), alg.f(1), alg.f(2), alg.h(1)
    assert verify_triple_elements(alg, RealizedTriple(e1, h1, f1))
    for e, f, broken in ((e1 + e2, f1, 0), (e1, f1 + f2, 1)):
        held = [alg.bracket(h1, e) == 2 * e, alg.bracket(h1, f) == -2 * f,
                alg.bracket(e, f) == h1]
        assert held == [k != broken for k in range(3)]
        assert not verify_triple_elements(alg, RealizedTriple(e, h1, f))


def test_symbolic_check_fires_on_mu_alone():
    # A2 on {alpha_1}: h = alpha_1^vee pairs to 2 with the member, but
    # mu = (2,) gives B^T mu = (4,)
    sigma = make_pi_system(validate_gcm(A2), [rootvec((1, 0))])
    triple = build_triple(sigma)
    assert (triple.mu, triple.h_coords) == ((1,), (1, 0))
    assert verify_symbolic(triple)
    assert not verify_symbolic(SL2Triple(sigma, triple.coeffs, (2,), triple.h_coords))
