import copy
import hashlib
import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import A2, A2_AFFINE, A1_AFFINE, H3
from kmjm import (
    DegenerateDenominator,
    bilinear_form,
    HeightOutOfRange,
    InternalInconsistency,
    MultTable,
    RootVec,
    coroot_pairing,
    is_root,
    norm,
    peterson_multiplicities,
    rootvec,
    simple_root,
    validate_gcm,
)
from kmjm import roots
from kmjm.roots import descend, real_roots_up_to_height
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


_PINNED_TABLES = [
    (H3, 16,
     "a1cb00368e33dc80867596a03a7db48a4f1b8016db4444b497d490cffef26b3f"),
    (((2, -2, -1), (-2, 2, -3), (-1, -3, 2)), 14,
     "7728a9e6ba59026c2b92bd493b4bdd75a05563abef1d018adee55644f8bb0638"),
    (A2_AFFINE, 12,
     "de43dec0e2b979d15ff282379112ce02a0bc38166eb19bce2d6559e763d77744"),
    (((2, -2, -1), (-2, 2, -3), (-1, -3, 2)), 22,
     "09603d2ae7a59c2d7b3bb6fc1bb95aec1a85f698a5dcdfba34b5e6bdd6cb1dfb"),
]


@pytest.mark.parametrize("matrix, height, digest", _PINNED_TABLES)
def test_pinned_tables(matrix, height, digest):
    # recorded from the Fraction recurrence before it moved to integers, the
    # height-22 table from the integer one before its keys were packed
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
    # catch that with the same report as before, raised by the call itself
    g = validate_gcm(matrix)
    monkeypatch.setattr(roots.gcm_mod, "symmetrized", lambda _: sym)
    with pytest.raises(error) as info:
        peterson_multiplicities(g, 8)
    assert str(info.value) == message


def test_lazy_table_equals_its_plain_twin():
    # the same content in a plain dict: equal both ways, and so are the
    # pickle round trip and the copies, whatever was read before
    g = validate_gcm(H3)
    plain = MultTable(g, 10, dict(peterson_multiplicities(g, 10).mult))
    assert type(plain.mult) is dict
    for first_read in (None, rootvec((1, 1)), rootvec((4, 5))):
        tab = peterson_multiplicities(g, 10)
        if first_read is not None:
            assert is_root(tab, first_read)
        assert tab == plain and plain == tab and not tab != plain
        assert tab == peterson_multiplicities(g, 10)
        assert repr(tab) == repr(plain)
        for twin in (pickle.loads(pickle.dumps(tab)), copy.copy(tab), copy.deepcopy(tab)):
            assert twin == plain and plain == twin
    other = MultTable(g, 10, {**plain.mult, rootvec((1, 1)): 2})
    assert peterson_multiplicities(g, 10) != other


def _naive_multiplicities(g, height):
    # Peterson's recurrence as printed, in Fractions: ordered pairs, the form
    # evaluated on each pair, and each multiplicity stripped from its c-value
    n = g.n
    c: dict = {}
    mult: dict = {}
    for h in range(1, height + 1):
        for v in sorted(v for v in product(range(h + 1), repeat=n) if sum(v) == h):
            beta = rootvec(v)
            divisors = sum(
                (Fraction(mult.get(tuple(x // k for x in v), 0), k)
                 for k in range(2, h + 1) if all(x % k == 0 for x in v)),
                Fraction(0),
            )
            if h == 1:
                cv = Fraction(1)
            else:
                rhs = Fraction(0)
                for b1 in product(*(range(x + 1) for x in v)):
                    if b1 not in c:
                        continue
                    b2 = tuple(x - y for x, y in zip(v, b1))
                    if b2 in c:
                        rhs += bilinear_form(g, rootvec(b1), rootvec(b2)) * c[b1] * c[b2]
                rho2 = 2 * sum(d * x for d, x in zip(g.symmetrizer, v))
                denom = norm(g, beta) - rho2
                if denom == 0:
                    assert rhs == 0, v
                    cv = divisors
                else:
                    cv = rhs / denom
            m = cv - divisors
            assert m.denominator == 1 and m >= 0, v
            if m:
                mult[v] = int(m)
            if cv:
                c[v] = cv
    return mult


def _table_as_dict(tab):
    return {r.coeffs: m for r, m in tab.mult.items()}


def test_recurrence_matches_naive_reference():
    # every sweep matrix, and two of rank 4, where a packed-key carry in the
    # base would misplace a coordinate
    d4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    a3_affine = ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2))
    cases = [(m, 12 if len(m) <= 2 else 8) for m in _POOL] + [(d4, 6), (a3_affine, 6)]
    for matrix, height in cases:
        g = validate_gcm(matrix)
        tab = peterson_multiplicities(g, height)
        assert _table_as_dict(tab) == _naive_multiplicities(g, height), matrix


@st.composite
def _symmetric_gcms(draw):
    n = draw(st.integers(2, 3))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = -draw(st.integers(0, 4))
    return rows


@settings(max_examples=20)
@given(_symmetric_gcms(), st.integers(1, 7))
def test_recurrence_matches_naive_reference_on_symmetric_gcms(matrix, height):
    g = validate_gcm(matrix)
    height = min(height, 7 if g.n == 2 else 5)
    tab = peterson_multiplicities(g, height)
    assert _table_as_dict(tab) == _naive_multiplicities(g, height)


# descent against the table: A3 is finite A3; affine A3 and the sum of two
# affine A1 reach rank 4, the latter with chamber vectors of disconnected
# support
A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
A3_AFFINE = ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2))
A1_AFFINE_TWICE = ((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2))
_DESCENT_HEIGHTS = {1: 30, 2: 24, 3: 14, 4: 8}


def _table_verdict(g, tab, v):
    if not tab.multiplicity(v):
        return None
    return "real" if norm(g, v) > 0 else "imaginary"


def _assert_descent_matches_table(matrix, height):
    g = validate_gcm(matrix)
    tab = peterson_multiplicities(g, height)
    for h in range(1, height + 1):
        for v in product(range(h + 1), repeat=g.n):
            if sum(v) != h:
                continue
            beta = RootVec(v)
            want = _table_verdict(g, tab, beta)
            assert descend(g, beta) == want, (matrix, v)
            assert descend(g, -beta) == want, (matrix, v)


def test_descent_matches_peterson_on_every_pool_matrix():
    # the whole height window of each sweep matrix and of the named extras
    matrices = dict.fromkeys(
        [*_POOL, *(tuple(map(tuple, m)) for m in (A1_AFFINE, H3)), A3, A3_AFFINE,
         A1_AFFINE_TWICE]
    )
    for matrix in matrices:
        _assert_descent_matches_table(matrix, _DESCENT_HEIGHTS[len(matrix)])


def test_descent_edge_vectors():
    g = validate_gcm(H3)
    assert descend(g, rootvec((0, 0))) is None
    assert descend(g, rootvec((1, -1))) is None
    assert descend(g, rootvec((-1, -3))) == "real"
    assert descend(g, rootvec((-2, -2))) == "imaginary"
    for k in (2, 3, 5):
        for i in (1, 2):
            assert descend(g, k * simple_root(2, i)) is None
    # imaginary roots of affine A1 are the multiples of delta
    aff = validate_gcm(A1_AFFINE)
    assert [descend(aff, rootvec((k, k))) for k in (1, 2, 7)] == ["imaginary"] * 3
    # a chamber vector is a root only when its support is connected
    twice = validate_gcm(A1_AFFINE_TWICE)
    assert descend(twice, rootvec((1, 1, 0, 0))) == "imaginary"
    assert descend(twice, rootvec((1, 1, 1, 1))) is None
    with pytest.raises(ValueError):
        descend(g, rootvec((1, 0, 0)))


@st.composite
def _symmetrizable_gcms(draw):
    # zero-symmetric off-diagonal pairs in -4..0; rank 3 also needs the cycle
    # condition a12 a23 a31 = a21 a32 a13
    pair = st.one_of(st.just((0, 0)), st.tuples(st.integers(-4, -1), st.integers(-4, -1)))
    n = draw(st.integers(2, 3))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = draw(pair)
    if n == 3:
        assume(rows[0][1] * rows[1][2] * rows[2][0] == rows[1][0] * rows[2][1] * rows[0][2])
    return rows


@settings(max_examples=25, derandomize=True)
@given(_symmetrizable_gcms(), st.integers(1, 10))
def test_descent_matches_peterson_on_random_gcms(matrix, height):
    _assert_descent_matches_table(matrix, min(height, 10 if len(matrix) == 2 else 8))
