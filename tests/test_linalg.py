"""The integer elimination against dense Gaussian elimination over Fraction.

The reference routines below are the package's former Fraction kernels,
kept here unchanged apart from their names.
"""

import itertools
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmjm import SingularB, classify, solve_mu, validate_gcm
from kmjm._linalg import _span_of, leading_principal_minors
from kmjm.gcm import AFFINE, FINITE, INDEFINITE


def _as_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


def _ref_det(mat):
    # determinant by fraction elimination with first-nonzero pivoting
    a = _as_rows(mat)
    n = len(a)
    if n == 0:
        return Fraction(1)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def _ref_minors(mat):
    return [_ref_det([row[: k + 1] for row in mat[: k + 1]]) for k in range(len(mat))]


def _ref_classify_block(entries, idx):
    # the block classification as it was on the reference minors
    block = [[entries[i][j] for j in idx] for i in idx]
    minors = _ref_minors(block)
    if all(m > 0 for m in minors):
        return FINITE
    if all(m > 0 for m in minors[:-1]) and minors[-1] == 0:
        return AFFINE
    return INDEFINITE


def _ref_rank(rows):
    a = _as_rows(rows)
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, ncols):
                    a[r][c] -= f * a[rank][c]
        rank += 1
        if rank == len(a):
            break
    return rank


def _ref_solve(mat, rhs):
    # mat @ x = rhs for a square mat; None if it is singular
    n = len(mat)
    if n == 0:
        return []
    a = _as_rows(mat)
    b = [Fraction(x) for x in rhs]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    return [b[i] / a[i][i] for i in range(n)]


@st.composite
def _square(draw, entries=st.integers(-3, 3), gcm_like=False):
    # small entries make singular matrices and zero pivots common; a GCM-like
    # matrix has 2 on the diagonal and nonpositive entries off it
    n = draw(st.integers(0, 5))
    if gcm_like:
        entries = st.integers(-3, 0)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if gcm_like:
        for i in range(n):
            rows[i][i] = 2
    return rows


@st.composite
def _symmetrizable(draw):
    # A = D^-1 B for a symmetrizer D and a symmetric B whose off-diagonal
    # entries are multiples of lcm(d_i, d_j), so that A is integral
    n = draw(st.integers(1, 5))
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        b = draw(st.integers(0, 2)) * lcm(d[i], d[j])
        a[i][j], a[j][i] = -b // d[i], -b // d[j]
    return a


@example([[0, 1], [1, 0]])
@example([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
@given(st.one_of(_square(), _square(gcm_like=True)))
def test_minors_match_up_to_the_first_zero(mat):
    got = leading_principal_minors(mat)
    ref = _ref_minors(mat)
    assert len(got) == len(ref)
    for k, (m, r) in enumerate(zip(got, ref)):
        assert m == r
        if m == 0:
            assert got[k + 1:] == [None] * (len(mat) - k - 1)
            break


@st.composite
def _rows(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 5))
    return [[draw(st.integers(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]


@given(_rows())
def test_rank_matches(rows):
    span, keys = _span_of([dict(enumerate(row)) for row in rows])
    assert len(span) == len(keys) == _ref_rank(rows)


@example([[2, -2], [-2, 2]])
@given(st.one_of(_square(), _square(gcm_like=True)))
def test_solve_mu_matches(b):
    m = len(b)
    ref = _ref_solve([[b[k][j] for k in range(m)] for j in range(m)], [2] * m)
    if ref is None:
        with pytest.raises(SingularB):
            solve_mu(b)
    else:
        got = solve_mu(b)
        assert got == tuple(ref)
        # an int when integral, else a Fraction
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in got)


@example([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
@example([[2, -2, 0], [-2, 2, -2], [0, -2, 2]])
@given(_symmetrizable())
def test_classify_matches_the_reference(matrix):
    g = validate_gcm(matrix)
    with mock.patch("kmjm.gcm._classify_block", _ref_classify_block):
        ref = classify(g)
    assert classify(g) == ref
