import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import A2, A2_AFFINE, A1_AFFINE, B2, H3, H32, H51
import kmjm.gcm
from kmjm import (
    GCM,
    Coweight,
    NotGCM,
    NotSymmetrizable,
    bilinear_form,
    check_finite_grading,
    classify,
    norm,
    rootvec,
    validate_gcm,
)
from kmjm.gcm import TypeTag, classify_principal
from kmjm.roots import descend


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


def test_classify_principal_of_no_index_is_finite():
    assert classify_principal(validate_gcm(H3), []) == TypeTag("finite")


def test_classify_principal_checks_its_indices():
    # a 0 or a negative index must not wrap around to the last rows, and one
    # past n must not end in a bare IndexError
    g = validate_gcm([[2, -3, 0], [-3, 2, -1], [0, -1, 2]])
    for idx, bad in (([-1, 1], -1), ([0], 0), ([4], 4)):
        with pytest.raises(ValueError, match=rf"index {bad} out of range 1\.\.3"):
            classify_principal(g, idx)


def test_type_questions_take_the_validated_matrix(monkeypatch):
    # a principal submatrix of a GCM is a GCM, so neither question validates
    # one again
    def refuse(matrix):
        raise AssertionError(f"validate_gcm({matrix!r}) called")

    g = validate_gcm([[2, -3, 0], [-3, 2, -1], [0, -1, 2]])
    monkeypatch.setattr(kmjm.gcm, "validate_gcm", refuse)
    assert classify_principal(g, [1, 2]) == TypeTag("indefinite", True)
    assert classify_principal(g, [3, 2]) == TypeTag("finite")
    assert classify_principal(g, [1, 3]) == TypeTag("finite")
    assert check_finite_grading(g, Coweight((1, 0, 0)))
    assert not check_finite_grading(g, Coweight((0, 0, 1)))


def _walk_digest(seed, count, vectors):
    # md5 of everything the walk of the diagram decides, over seeded random
    # matrices of rank 1-5: the symmetrizer, or the NotSymmetrizable message
    # and context that names the first edge failing the cycle condition;
    # classify; classify_principal on every index subset; and descend on
    # random nonnegative vectors
    rng = random.Random(seed)
    h = hashlib.md5()
    for _ in range(count):
        n = rng.randint(1, 5)
        a = [[2] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                a[i][j] = a[j][i] = 0
            else:
                a[i][j], a[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
        try:
            g = validate_gcm(a)
        except NotSymmetrizable as err:
            h.update(f"{a} {err} {err.context}\n".encode())
            continue
        h.update(f"{a} {g.symmetrizer} {classify(g)}\n".encode())
        for r in range(n + 1):
            for idx in itertools.combinations(range(1, n + 1), r):
                h.update(f"{idx} {classify_principal(g, idx)}\n".encode())
        for _ in range(vectors):
            v = tuple(rng.randint(0, 4) for _ in range(n))
            h.update(f"{v} {descend(g, rootvec(v))}\n".encode())
    return h.hexdigest()


def test_walk_verdicts_match_the_recorded_digest():
    # recorded when the symmetrizer, components and descend each walked the
    # diagram on their own; a breadth-first walk names other edges in the
    # NotSymmetrizable messages and changes it
    assert _walk_digest(1, 1500, 10) == "b386fb82ff0a1f1235fa6f92bbe49ea7"


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
