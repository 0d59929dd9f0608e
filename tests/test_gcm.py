from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import A2, A2_AFFINE, A1_AFFINE, B2, H3, H32, H51
from kmjm import (
    GCM,
    NotGCM,
    NotSymmetrizable,
    bilinear_form,
    classify,
    norm,
    rootvec,
    validate_gcm,
)
from kmjm.gcm import classify_principal


def test_symmetrizers():
    assert validate_gcm(A2).symmetrizer == (1, 1)
    assert validate_gcm(B2).symmetrizer == (2, 1)
    assert validate_gcm(H51).symmetrizer == (5, 1)
    assert validate_gcm(H32).symmetrizer == (3, 2)
    # symmetrizer is minimal and positive
    assert validate_gcm([[2, -2], [-4, 2]]).symmetrizer == (2, 1)


def test_rejects_non_gcm():
    with pytest.raises(NotGCM):
        validate_gcm([[1, -1], [-1, 2]])  # diagonal must be 2
    with pytest.raises(NotGCM):
        validate_gcm([[2, 1], [-1, 2]])  # off-diagonal must be <= 0
    with pytest.raises(NotGCM):
        validate_gcm([[2, 0], [-1, 2]])  # zero pattern must be symmetric
    with pytest.raises(NotGCM):
        validate_gcm([[2, -1, 0], [-1, 2, -1]])  # square only
    with pytest.raises(NotGCM):
        validate_gcm([[2, Fraction(-1, 2)], [-1, 2]])  # integral entries


@pytest.mark.parametrize(
    "matrix, named",
    [
        ([[2, -1.5], [-1, 2]], "A_12 = -1.5"),
        ([[2.9, -1], [-1, 2]], "A_11 = 2.9"),
        ([[2, -1], [-1, 2.0]], "A_22 = 2.0"),  # integral floats too
        ([["2", "-1"], ["-1", "2"]], "A_11 = '2'"),
        ([[2, True], [-1, 2]], "A_12 = True"),
        ([[2, -1], (-1, None)], "A_22 = None"),
    ],
)
def test_entries_must_be_ints(matrix, named):
    # no entry is converted: a non-integer matrix is not read as another one
    with pytest.raises(NotGCM, match=f"entry {named} is not an integer"):
        validate_gcm(matrix)


@pytest.mark.parametrize("matrix", ["x", [], (), None, 3, [[2, -1], 7], ["22", "22"]])
def test_matrix_must_be_a_nonempty_square_of_rows(matrix):
    with pytest.raises(NotGCM):
        validate_gcm(matrix)


def test_tuple_rows_are_accepted():
    assert validate_gcm(((2, -1), (-1, 2))) == validate_gcm([[2, -1], [-1, 2]])


def test_rejects_non_symmetrizable():
    # odd cycle with mismatched products
    with pytest.raises(NotSymmetrizable):
        validate_gcm([[2, -1, -1], [-2, 2, -1], [-1, -2, 2]])


def test_classify_kinds():
    assert classify(validate_gcm(A2)).kind == "finite"
    assert classify(validate_gcm(B2)).kind == "finite"
    assert classify(validate_gcm([[2, -1], [-3, 2]])).kind == "finite"
    assert classify(validate_gcm(A1_AFFINE)).kind == "affine"
    assert classify(validate_gcm([[2, -1], [-4, 2]])).kind == "affine"
    assert classify(validate_gcm(A2_AFFINE)).kind == "affine"
    tag = classify(validate_gcm(H3))
    assert tag.kind == "indefinite" and tag.hyperbolic
    tag = classify(validate_gcm(H32))
    assert tag.kind == "indefinite" and tag.hyperbolic
    # decomposable: worst component wins
    assert classify(validate_gcm([[2, 0], [0, 2]])).kind == "finite"
    assert classify(validate_gcm([[2, 0, 0], [0, 2, -2], [0, -2, 2]])).kind == "affine"


def test_classify_principal_submatrix():
    g = validate_gcm(A2_AFFINE)
    assert classify_principal(g, [1]).kind == "finite"
    assert classify_principal(g, [1, 2]).kind == "finite"
    assert classify_principal(g, [1, 2, 3]).kind == "affine"


@given(st.integers(1, 4), st.integers(1, 4))
def test_rank2_kind_partition(a, b):
    tag = classify(validate_gcm([[2, -b], [-a, 2]]))
    if a * b < 4:
        assert tag.kind == "finite"
    elif a * b == 4:
        assert tag.kind == "affine"
    else:
        assert tag.kind == "indefinite" and tag.hyperbolic


def test_bilinear_form_anchors():
    g = validate_gcm(H51)
    a1, a2 = rootvec((1, 0)), rootvec((0, 1))
    assert bilinear_form(g, a1, a1) == 10
    assert bilinear_form(g, a2, a2) == 2
    assert bilinear_form(g, a1, a2) == -5
    assert norm(g, rootvec((1, 1))) == 10 - 10 + 2
    assert norm(g, rootvec((1, 4))) == 10 - 40 + 32
    # the form is integral, and returned as an int
    assert type(bilinear_form(g, a1, a2)) is int
    assert type(norm(g, rootvec((1, 1)))) is int


def test_gcm_value_object():
    g = validate_gcm(A2)
    assert g == validate_gcm([[2, -1], [-1, 2]])
    assert isinstance(g, GCM) and g.n == 2
    assert g.entries[0][1] == -1
