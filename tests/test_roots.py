import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import A2, A2_AFFINE, A1_AFFINE, H3
from kmjm import (
    DegenerateDenominator,
    HeightOutOfRange,
    InternalInconsistency,
    coroot_pairing,
    is_root,
    norm,
    peterson_multiplicities,
    rootvec,
    simple_root,
    validate_gcm,
)
from kmjm import roots
from kmjm.roots import real_roots_up_to_height
from kmjm.sweeps import _POOL


def test_a2_positive_roots(oracle):
    tab = oracle(A2, 8)
    assert sorted(r.coeffs for r in tab.roots()) == [(0, 1), (1, 0), (1, 1)]
    assert all(tab.multiplicity(r) == 1 for r in tab.roots())


def test_affine_a1_imaginary_multiplicities(oracle):
    tab = oracle(A1_AFFINE, 8)
    for k in range(1, 5):
        assert tab.multiplicity(rootvec((k, k))) == 1
    assert tab.multiplicity(rootvec((2, 1))) == 1
    assert tab.multiplicity(rootvec((3, 1))) == 0


def test_h3_small_multiplicities(oracle):
    tab = oracle(H3, 6)
    assert tab.multiplicity(rootvec((1, 1))) == 1
    assert tab.multiplicity(rootvec((2, 2))) == 1
    assert norm(validate_gcm(H3), rootvec((2, 2))) == -8


def test_affine_a2_degenerate_denominator_regression(oracle):
    # (0,2,2) and (0,2,3) sit on the null cone of the recurrence; the
    # oracle must run clean through them and report zero multiplicity.
    tab = oracle(A2_AFFINE, 12)
    for k in range(1, 5):
        assert tab.multiplicity(rootvec((k, k, k))) == 2
    assert tab.multiplicity(rootvec((0, 2, 2))) == 0
    assert tab.multiplicity(rootvec((0, 2, 3))) == 0
    assert tab.multiplicity(rootvec((2, 1, 1))) == 1
    assert tab.multiplicity(rootvec((1, 1, 0))) == 1


def test_twisted_affine_delta():
    g = validate_gcm([[2, -1], [-4, 2]])
    tab = peterson_multiplicities(g, 8)
    for k in (1, 2):
        assert tab.multiplicity(rootvec((k, 2 * k))) == 1


def test_negative_roots_mirror(oracle):
    tab = oracle(A2, 8)
    assert tab.multiplicity(rootvec((-1, -1))) == 1
    assert is_root(tab, rootvec((-1, 0)))
    assert not is_root(tab, rootvec((-1, 1)))


def test_height_guard(oracle):
    tab = oracle(A2, 8)
    with pytest.raises(HeightOutOfRange):
        is_root(tab, rootvec((9, 9)))


def test_coroot_pairing_recovers_cartan_entries():
    g = validate_gcm(A2_AFFINE)
    for i in range(1, 4):
        for j in range(1, 4):
            assert (
                coroot_pairing(g, simple_root(3, i), simple_root(3, j))
                == g.entries[i - 1][j - 1]
            )


@given(
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_rank2_tables_are_sane(a, b):
    g = validate_gcm([[2, -b], [-a, 2]])
    tab = peterson_multiplicities(g, 8)
    for r in tab.roots():
        m = tab.multiplicity(r)
        assert isinstance(m, int) and m >= 1
        if norm(g, r) > 0:
            assert m == 1


def test_table_real_roots_match_reflection_closure():
    # the two independent routes into the root system: the recurrence's
    # positive-norm roots against the breadth-first reflection closure
    for matrix in _POOL:
        g = validate_gcm(matrix)
        height = 12 if g.n <= 2 else 10
        tab = peterson_multiplicities(g, height)
        real = [r for r in tab.roots() if norm(g, r) > 0]
        assert real == real_roots_up_to_height(g, height), matrix
        assert all(tab.multiplicity(r) == 1 for r in real)


def _table_digest(tab):
    rows = sorted((r.coeffs, m) for r, m in tab.mult.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize(
    "matrix, height, digest",
    [
        (H3, 16,
         "a1cb00368e33dc80867596a03a7db48a4f1b8016db4444b497d490cffef26b3f"),
        (((2, -2, -1), (-2, 2, -3), (-1, -3, 2)), 14,
         "7728a9e6ba59026c2b92bd493b4bdd75a05563abef1d018adee55644f8bb0638"),
        (A2_AFFINE, 12,
         "de43dec0e2b979d15ff282379112ce02a0bc38166eb19bce2d6559e763d77744"),
    ],
)
def test_pinned_tables(matrix, height, digest):
    # recorded from the Fraction recurrence before it moved to integers
    tab = peterson_multiplicities(validate_gcm(matrix), height)
    assert _table_digest(tab) == digest


@pytest.mark.parametrize(
    "matrix, sym, error, message",
    [
        # a negative multiplicity, then a non-integral one
        (A2, [[2, -1], [-1, 3]], InternalInconsistency,
         "multiplicity of [0, 2] came out -1/8"),
        (A2, [[-3, -4], [-4, -3]], InternalInconsistency,
         "multiplicity of [0, 2] came out -5/16"),
        (H3, [[2, -3], [-3, 1]], DegenerateDenominator,
         "(beta|beta-2rho) = 0 with nonzero recurrence RHS at beta = [0, 2]"),
    ],
)
def test_recurrence_checks_fire(monkeypatch, matrix, sym, error, message):
    # an inconsistent symmetrization breaks the recurrence; its checks must
    # catch that with the same report as before
    g = validate_gcm(matrix)
    monkeypatch.setattr(roots.gcm_mod, "symmetrized", lambda _: sym)
    with pytest.raises(error) as info:
        peterson_multiplicities(g, 8)
    assert str(info.value) == message
