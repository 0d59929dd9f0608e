import pytest

from conftest import A2, A1_AFFINE, H51
from kmjm import (
    InternalInconsistency,
    NotPiSystem,
    make_pi_system,
    rootvec,
    validate_gcm,
)
from kmjm.pisystem import classify_pi_type, pi_image


def test_simple_roots_reproduce_cartan_matrix():
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    assert ps.size == 2
    assert ps.b_matrix == ((2, -1), (-1, 2))
    assert classify_pi_type(ps).kind == "finite"


def test_affine_pi_system_is_allowed():
    # both simple roots of affine A1: a valid pi-system of affine type
    g = validate_gcm(A1_AFFINE)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    assert ps.b_matrix == ((2, -2), (-2, 2))
    assert classify_pi_type(ps).kind == "affine"


def test_difference_of_members_must_not_be_root():
    g = validate_gcm(A2)
    with pytest.raises(NotPiSystem):
        make_pi_system(g, [rootvec((1, 0)), rootvec((1, 1))])


def test_rejects_empty_and_repeats():
    g = validate_gcm(A2)
    with pytest.raises(NotPiSystem):
        make_pi_system(g, [])
    with pytest.raises(NotPiSystem):
        make_pi_system(g, [rootvec((1, 0)), rootvec((1, 0))])


def test_dependent_members_are_rejected():
    # four real roots whose pairwise differences are not roots, in rank 3
    g = validate_gcm([[2, -2, 0], [-1, 2, -1], [0, -2, 2]])
    roots = [rootvec(c) for c in ((0, 0, 1), (1, 0, 0), (1, 2, 2), (2, 2, 1))]
    with pytest.raises(NotPiSystem, match="^members are linearly dependent$"):
        make_pi_system(g, roots)


def test_positive_off_diagonal_is_an_inconsistency(monkeypatch):
    # a descent that calls every positive vector real lets (1,0), (1,1) past
    # the difference test; the induced matrix then catches the positive pairing
    monkeypatch.setattr(
        "kmjm.pisystem.descend", lambda g, v: "real" if v.is_positive else None
    )
    g = validate_gcm(A2)
    with pytest.raises(InternalInconsistency, match=r"positive off-diagonal at \(1,2\)"):
        make_pi_system(g, [rootvec((1, 0)), rootvec((1, 1))])


_CANDIDATES = (
    (A2, [(1, 0), (0, 1)]),
    (H51, [(1, 4)]),
    (H51, [(1, 1), (1, 5)]),
    (A2, [(1, 0), (1, 1)]),  # a difference is a root
    (A1_AFFINE, [(1, 1)]),  # imaginary
    (H51, [(2, 2)]),  # not a root
)


def _outcome(g, roots):
    try:
        return make_pi_system(g, roots)
    except NotPiSystem as err:
        return str(err)


def test_no_table_means_no_peterson_call(peterson_calls):
    # membership is decided by descent, so no table is made for the checks
    for matrix, coeffs in _CANDIDATES:
        _outcome(validate_gcm(matrix), [rootvec(c) for c in coeffs])
    assert peterson_calls == []


def test_singleton_system():
    g = validate_gcm(H51)
    ps = make_pi_system(g, [rootvec((1, 4))])
    assert ps.size == 1
    assert ps.b_matrix == ((2,),)
    assert classify_pi_type(ps).kind == "finite"


def test_pi_image():
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))])
    assert pi_image(ps, rootvec((1, 1))) == rootvec((1, 1))


def test_wrong_rank_rejected():
    g = validate_gcm(A2)
    with pytest.raises(ValueError):
        make_pi_system(g, [rootvec((1, 0, 0))])
