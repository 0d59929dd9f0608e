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
from kmjm import pisystem
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


def test_default_oracle_is_twice_the_height(monkeypatch):
    for matrix, coeffs in ((A2, [(1, 0), (0, 1)]), (H51, [(1, 4)])):
        g = validate_gcm(matrix)
        roots = [rootvec(c) for c in coeffs]
        hmax = max(b.height for b in roots)
        table = peterson_multiplicities(g, 2 * hmax)
        assert make_pi_system(g, roots) == make_pi_system(g, roots, table)
    with pytest.raises(NotPiSystem):
        make_pi_system(validate_gcm(A2), [rootvec((1, 0)), rootvec((1, 1))])
    # the member checks never look above hmax, so only a spy sees the height
    heights = []
    monkeypatch.setattr(
        pisystem, "peterson_multiplicities",
        lambda g, h: heights.append(h) or peterson_multiplicities(g, h),
    )
    make_pi_system(validate_gcm(H51), [rootvec((1, 4))])
    assert heights == [10]


def test_member_checks_fill_no_height_above_hmax(monkeypatch):
    # the guard still asks for a 2*hmax oracle, but the member and difference
    # checks read it only up to hmax, so no height above that is computed
    made = []
    monkeypatch.setattr(
        pisystem, "peterson_multiplicities",
        lambda g, h: made.append(peterson_multiplicities(g, h)) or made[-1],
    )
    for matrix, coeffs in ((A2, [(1, 0), (0, 1)]), (H51, [(1, 4)]), (H51, [(1, 1), (1, 5)])):
        g = validate_gcm(matrix)
        roots = [rootvec(c) for c in coeffs]
        hmax = max(b.height for b in roots)
        given = peterson_multiplicities(g, 2 * hmax)
        assert make_pi_system(g, roots) == make_pi_system(g, roots, given)
        for table in (made[-1], given):
            assert table.height == 2 * hmax and table.mult._filled == hmax
        assert given == peterson_multiplicities(g, 2 * hmax)


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
