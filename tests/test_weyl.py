import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import A2, H3, H51
from kmjm import (
    Coweight,
    NotReduced,
    WeylWord,
    apply_word,
    inversion_set,
    is_reduced,
    reduce_word,
    reflect,
    rootvec,
    validate_gcm,
)
from kmjm.grading import grade_of
from kmjm.weyl import reflect_coweight


def test_inversion_anchors():
    g = validate_gcm(H3)
    inv = inversion_set(g, WeylWord((1, 2, 1)))
    assert [r.coeffs for r in inv] == [(1, 0), (3, 1), (8, 3)]
    g = validate_gcm(H51)
    inv = inversion_set(g, WeylWord((2, 1, 2)))
    assert sorted(r.coeffs for r in inv) == [(0, 1), (1, 4), (1, 5)]


def test_is_reduced():
    g = validate_gcm(A2)
    assert not is_reduced(g, WeylWord((1, 1)))
    assert is_reduced(g, WeylWord((1, 2, 1)))
    assert not is_reduced(g, WeylWord((1, 2, 1, 2)))


def test_reduce_word():
    g = validate_gcm(A2)
    assert reduce_word(g, WeylWord((1, 1, 2))).letters == (2,)
    assert reduce_word(g, WeylWord(())).letters == ()
    # reduction preserves the group element
    tau = Coweight((1, 2))
    from kmjm.weyl import apply_word_coweight

    w = WeylWord((1, 2, 1, 1, 2))
    assert apply_word_coweight(g, reduce_word(g, w), tau) == apply_word_coweight(
        g, w, tau
    )


def test_apply_word_anchors():
    g = validate_gcm(H51)
    assert reflect(g, 1, rootvec((0, 1))).coeffs == (1, 1)
    assert reflect(g, 2, rootvec((1, 0))).coeffs == (1, 5)
    assert apply_word(g, WeylWord((2, 1)), rootvec((0, 1))).coeffs == (1, 4)


def test_inversion_set_requires_reduced():
    g = validate_gcm(A2)
    with pytest.raises(NotReduced):
        inversion_set(g, WeylWord((1, 1)))


@given(
    st.integers(1, 2),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_grading_is_reflection_equivariant(i, beta_c, tau_c):
    g = validate_gcm(H3)
    beta = rootvec(beta_c) if any(beta_c) else rootvec((1, 0))
    tau = Coweight(tau_c)
    lhs = grade_of(beta, tau)
    rhs = grade_of(reflect(g, i, beta), reflect_coweight(g, i, tau))
    assert lhs == rhs
