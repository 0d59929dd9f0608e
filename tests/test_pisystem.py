import pytest

from conftest import A2, A1_AFFINE, H51
from kmjm import (
    NotPiSystem,
    OracleTooShort,
    make_pi_system,
    peterson_multiplicities,
    rootvec,
    validate_gcm,
)
from kmjm.pisystem import classify_pi_type, pi_image


def test_simple_roots_reproduce_cartan_matrix(oracle):
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))], oracle(A2, 8))
    assert ps.size == 2
    assert ps.b_matrix == ((2, -1), (-1, 2))
    assert classify_pi_type(ps).kind == "finite"


def test_affine_pi_system_is_allowed(oracle):
    # both simple roots of affine A1: a valid pi-system of affine type
    g = validate_gcm(A1_AFFINE)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))], oracle(A1_AFFINE, 8))
    assert ps.b_matrix == ((2, -2), (-2, 2))
    assert classify_pi_type(ps).kind == "affine"


def test_difference_of_members_must_not_be_root(oracle):
    g = validate_gcm(A2)
    with pytest.raises(NotPiSystem):
        make_pi_system(g, [rootvec((1, 0)), rootvec((1, 1))], oracle(A2, 8))


def test_rejects_empty_and_repeats(oracle):
    g = validate_gcm(A2)
    with pytest.raises(NotPiSystem):
        make_pi_system(g, [], oracle(A2, 8))
    with pytest.raises(NotPiSystem):
        make_pi_system(g, [rootvec((1, 0)), rootvec((1, 0))], oracle(A2, 8))


def test_oracle_must_cover_twice_the_height():
    g = validate_gcm(A2)
    short = peterson_multiplicities(g, 3)
    with pytest.raises(OracleTooShort):
        make_pi_system(g, [rootvec((1, 1))], short)


_CANDIDATES = (
    (A2, [(1, 0), (0, 1)]),
    (H51, [(1, 4)]),
    (H51, [(1, 1), (1, 5)]),
    (A2, [(1, 0), (1, 1)]),  # a difference is a root
    (A1_AFFINE, [(1, 1)]),  # imaginary
    (H51, [(2, 2)]),  # not a root
)


def _outcome(g, roots, table=None):
    try:
        return make_pi_system(g, roots, table)
    except NotPiSystem as err:
        return str(err)


def test_no_table_means_no_peterson_call(peterson_calls):
    # membership is decided by descent, so no table is made for the checks
    for matrix, coeffs in _CANDIDATES:
        _outcome(validate_gcm(matrix), [rootvec(c) for c in coeffs])
    assert peterson_calls == []


def test_given_table_is_checked_not_read():
    # a given table of twice the height passes the guard, and the verdict is
    # the one without a table
    for matrix, coeffs in _CANDIDATES:
        g = validate_gcm(matrix)
        roots = [rootvec(c) for c in coeffs]
        given = peterson_multiplicities(g, 2 * max(b.height for b in roots))
        assert _outcome(g, roots, given) == _outcome(g, roots)


def test_singleton_system(oracle):
    g = validate_gcm(H51)
    ps = make_pi_system(g, [rootvec((1, 4))], oracle(H51, 12))
    assert ps.size == 1
    assert ps.b_matrix == ((2,),)
    assert classify_pi_type(ps).kind == "finite"


def test_pi_image(oracle):
    g = validate_gcm(A2)
    ps = make_pi_system(g, [rootvec((1, 0)), rootvec((0, 1))], oracle(A2, 8))
    assert pi_image(ps, rootvec((1, 1))) == rootvec((1, 1))


def test_wrong_rank_rejected(oracle):
    g = validate_gcm(A2)
    with pytest.raises(ValueError):
        make_pi_system(g, [rootvec((1, 0, 0))], oracle(A2, 8))
