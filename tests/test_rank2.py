import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from conftest import A2, H3, H15, H32, H51
from kmjm import (
    Coweight,
    NotHyperbolic,
    Rank2Label,
    WeylWord,
    ZeroElement,
    apply_word,
    b_seq,
    build_exceptional_triple,
    check_interleavings,
    classify,
    classify_intersection,
    defining_word,
    family_root,
    gamma_eta,
    inversion_set,
    norm,
    rootvec,
    simple_root,
    validate_gcm,
)
from kmjm import rank2
from kmjm.rank2 import _b_seq_list, _family_root_lists, _gamma_eta_lists, ab_of
from kmjm.sl2 import verify_triple_elements

H23 = [[2, -3], [-2, 2]]
H16 = [[2, -6], [-1, 2]]


def test_b_seq_anchors():
    assert [b_seq(3, n) for n in range(6)] == [0, 1, 3, 8, 21, 55]
    assert [b_seq(4, n) for n in range(5)] == [0, 1, 4, 15, 56]
    with pytest.raises(ValueError):
        b_seq(2, 3)
    with pytest.raises(ValueError):
        b_seq(3, -1)


def test_gamma_eta_anchors():
    assert [gamma_eta(3, 3, j) for j in range(6)] == [
        (0, 1), (1, 8), (7, 55), (48, 377), (329, 2584), (2255, 17711),
    ]
    assert [gamma_eta(3, 2, j) for j in range(4)] == [
        (0, 1), (1, 5), (4, 19), (15, 71),
    ]
    with pytest.raises(ValueError):
        gamma_eta(2, 2, 3)
    with pytest.raises(ValueError):
        gamma_eta(3, 2, -1)


def test_one_pass_lists_match_the_per_index_terms():
    # the lists the CLI prints, built in one pass, against the terms computed
    # one index at a time; (1, 5) and (2, 3) take the a < b swap
    for a, b in ((3, 3), (4, 4), (5, 1), (1, 5), (3, 2), (2, 3), (6, 1)):
        g = validate_gcm([[2, -b], [-a, 2]])
        for count in range(1, 21):
            gams, etas = _gamma_eta_lists(a, b, count - 1)
            assert list(zip(gams, etas)) == [gamma_eta(a, b, j) for j in range(count)]
            assert _family_root_lists(g, count) == {
                fam: [family_root(g, Rank2Label(fam, j)) for j in range(count)]
                for fam in ("LL", "LU", "SU", "SL")
            }
            if a == b:
                assert _b_seq_list(a, count) == [b_seq(a, n) for n in range(count)]
    with pytest.raises(ValueError, match="ab >= 5"):
        _gamma_eta_lists(2, 2, 3)
    with pytest.raises(ValueError, match="a >= 3"):
        _b_seq_list(2, 3)


def test_one_step_recurrence_property():
    # both sequences satisfy X_j = (ab-2) X_{j-1} - X_{j-2}; this closed form
    # is a consequence of the coupled definition, so test it, don't use it
    for a, b in ((3, 2), (5, 1), (3, 3), (7, 1), (4, 4)):
        vals = [gamma_eta(a, b, j) for j in range(10)]
        for j in range(2, 10):
            for part in (0, 1):
                assert vals[j][part] == (a * b - 2) * vals[j - 1][part] - vals[j - 2][part]


def test_symmetric_pairs_sit_on_the_unit_hyperbola():
    for a in (3, 4, 5, 6):
        for n in range(8):
            x, y = b_seq(a, n), b_seq(a, n + 1)
            assert x * x - a * x * y + y * y == 1


def test_b_seq_matches_gamma_eta_in_the_symmetric_case():
    # with a = b the two coupled sequences interleave into the single one:
    # a*gamma_j = b_{2j} and eta_j = b_{2j+1}
    for a in (3, 4, 5):
        for j in range(6):
            gam, eta = gamma_eta(a, a, j)
            assert a * gam == b_seq(a, 2 * j)
            assert eta == b_seq(a, 2 * j + 1)


def test_family_roots_are_real_and_word_generated():
    for matrix in (H32, H51, H23, H16, H3):
        g = validate_gcm(matrix)
        seen = set()
        for fam in ("LL", "LU", "SU", "SL"):
            for j in range(9):
                label = Rank2Label(fam, j)
                root = family_root(g, label)
                word, base = defining_word(g, label)
                assert apply_word(g, word, simple_root(2, base)) == root
                assert norm(g, root) == norm(g, simple_root(2, base))
                seen.add((fam, root.coeffs))
        assert len(seen) == 4 * 9  # distinct within each family


def test_family_base_cases():
    g = validate_gcm(H51)
    assert ab_of(g) == (5, 1)
    assert family_root(g, Rank2Label("LL", 0)).coeffs == (1, 0)
    assert family_root(g, Rank2Label("SU", 0)).coeffs == (0, 1)
    assert family_root(g, Rank2Label("LU", 0)).coeffs == (1, 5)
    assert family_root(g, Rank2Label("SL", 0)).coeffs == (1, 1)
    # swapped orientation mirrors the coefficients
    gs = validate_gcm(H15)
    assert family_root(gs, Rank2Label("LL", 0)).coeffs == (0, 1)
    assert family_root(gs, Rank2Label("LU", 0)).coeffs == (5, 1)


def test_family_roots_are_alternating_inversion_sets():
    # Cross-check of the closed forms against the reflection route.  The
    # families are oriented by the larger off-diagonal entry, so which pair
    # tracks words starting with s_1 flips when a < b.  For the dominant
    # orientation: beta_{2j+1} = (s1 s2)^j alpha_1 = LL_j and
    # beta_{2j+2} = (s1 s2)^j s1 alpha_2 = SL_j; words starting with s_2 walk
    # the SU/LU pair instead.
    for matrix in (H32, H51, H23, H16, H3):
        g = validate_gcm(matrix)
        a = -g.entries[1][0]
        b = -g.entries[0][1]
        for start in (1, 2):
            for length in range(1, 9):
                letters = tuple((start + k) % 2 + 1 for k in range(length))
                starts_one = letters[0] == 1
                even_fam, odd_fam = (
                    ("LL", "SL") if starts_one == (a >= b) else ("SU", "LU")
                )
                closed = []
                for k in range(length):
                    j, odd = divmod(k, 2)
                    label = Rank2Label(odd_fam if odd else even_fam, j)
                    closed.append(family_root(g, label))
                # both in reflection order
                assert inversion_set(g, WeylWord(letters)) == closed


def test_label_validation():
    with pytest.raises(ValueError):
        Rank2Label("XX", 0)
    with pytest.raises(ValueError):
        Rank2Label("LL", -1)
    with pytest.raises(NotHyperbolic):
        ab_of(validate_gcm(A2))
    with pytest.raises(NotHyperbolic):
        ab_of(validate_gcm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))


def test_hyperbolic_check_agrees_with_classify():
    # the rank-2 check reads the off-diagonal product alone; classify types
    # the whole matrix
    for a, b in product(range(9), repeat=2):
        if (a == 0) != (b == 0):
            continue  # not a GCM
        g = validate_gcm([[2, -b], [-a, 2]])
        try:
            ab_of(g)
        except NotHyperbolic:
            assert not classify(g).hyperbolic, (a, b)
        else:
            assert classify(g).hyperbolic, (a, b)


def test_check_interleavings():
    rep = check_interleavings(3, 2, 25)
    assert rep.ok and rep.case == "a" and rep.first_violation is None
    rep = check_interleavings(5, 1, 25)
    assert rep.ok and rep.case == "b"
    assert "gamma_eta_shifted" in rep.chains
    with pytest.raises(ValueError):
        check_interleavings(2, 2, 10)  # affine, not hyperbolic
    with pytest.raises(ValueError):
        check_interleavings(3, 2, 1)
    with pytest.raises(ValueError):
        check_interleavings(2, 3, 10)  # wrong orientation


def _perturb(monkeypatch, j, term):
    # the sequences check_interleavings reads, with (gamma_j, eta_j) replaced
    terms = rank2._gamma_eta_terms

    def perturbed(a, b):
        for i, t in enumerate(terms(a, b)):
            yield term if i == j else t

    monkeypatch.setattr(rank2, "_gamma_eta_terms", perturbed)


# (3, 2): gamma = 0, 1, 4, 15, ..., eta = 1, 5, 19, 71, ...
# (5, 1): gamma = 0, 1, 3, 8, ..., eta = 1, 4, 11, 29, ...
@pytest.mark.parametrize("a, b, j, term, violation", [
    (3, 2, 2, (100, 19), "gamma_monotone: gamma_2 = 100 !< gamma_3 = 15"),
    (3, 2, 2, (4, 100), "eta_monotone: eta_2 = 100 !< eta_3 = 71"),
    (3, 2, 1, (1, 10), "b_gamma_interleave: eta_1 = 10 !< 2*gamma_2 = 8"),
    (3, 2, 0, (-1, 1), "b_gamma_interleave: 0 != 2*gamma_0 = -2"),
    # eta_1 = a*gamma_1: only the strict comparison catches it
    (3, 2, 1, (1, 3), "a_gamma_interleave: 3*gamma_1 = 3 !< eta_1 = 3"),
    (5, 1, 1, (1, 9), "gamma_eta_shifted: eta_1 = 9 !< gamma_3 = 8"),
    (5, 1, 1, (2, 4), "gamma_eta_shifted: eta_0 = 1 != gamma_1 = 2"),
    (5, 1, 1, (1, 6), "a_gamma_interleave: eta_1 = 6 !< 5*gamma_1 = 5"),
])
def test_each_chain_can_be_the_first_violation(monkeypatch, a, b, j, term, violation):
    _perturb(monkeypatch, j, term)
    rep = check_interleavings(a, b, 6)
    assert not rep.ok and rep.first_violation == violation
    assert rep.case == ("a" if b > 1 else "b")


def test_interleavings_past_the_int_to_str_digit_limit(monkeypatch):
    # these terms pass the 4300 digits that str(int) allows by default on
    # Python 3.11+: a check that holds formats nothing
    assert check_interleavings(3, 2, 8000).ok
    assert check_interleavings(40, 39, 1500).ok
    # and the message of a break past the limit is still made
    _perturb(monkeypatch, 8000, (gamma_eta(3, 2, 8000)[0], 0))
    rep = check_interleavings(3, 2, 8000)
    assert rep.first_violation.startswith("eta_monotone: eta_7999 ")
    assert rep.first_violation.endswith(" !< eta_8000 = 0")


def test_sequences_need_positive_a_and_b():
    # ab >= 5 holds for both pairs, but neither is the pair of a Cartan matrix
    with pytest.raises(ValueError, match="a, b >= 1"):
        check_interleavings(-2, -3, 5)
    with pytest.raises(ValueError, match="a, b >= 1"):
        gamma_eta(-1, -5, 3)


def test_per_index_terms_hold_a_bounded_number_of_terms():
    # every earlier term kept would take tens of MiB at these indices
    g = validate_gcm([[2, -5], [-1, 2]])  # a < b: family_root takes the swap
    calls = (
        lambda: b_seq(3, 20000),
        lambda: gamma_eta(3, 3, 10000),
        lambda: family_root(g, Rank2Label("SL", 10000)),
    )
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_classify_single_and_empty():
    g = validate_gcm(H51)
    w = WeylWord((2, 1, 2))
    v = classify_intersection(g, w, Coweight((1, 1)), 5)
    assert v.kind == "Single" and v.root.coeffs == (1, 4)
    assert not v.exceptional
    v = classify_intersection(g, w, Coweight((1, 1)), 2)
    assert v.kind == "Empty" and v.roots == ()
    with pytest.raises(ValueError):
        v.root  # no single root on an empty verdict


def test_classify_exceptional_cases():
    g = validate_gcm(H51)
    v = classify_intersection(g, WeylWord((1, 2)), Coweight((1, 0)), 1)
    assert v.kind == "ExceptionalI" and not v.swapped
    assert [r.coeffs for r in v.roots] == [(1, 0), (1, 1)]
    v = classify_intersection(g, WeylWord((2, 1, 2)), Coweight((1, 0)), 1)
    assert v.kind == "ExceptionalII" and not v.swapped
    assert [r.coeffs for r in v.roots] == [(1, 4), (1, 5)]


def test_classify_swapped_orientation():
    g = validate_gcm(H15)
    v = classify_intersection(g, WeylWord((2, 1)), Coweight((0, 1)), 1)
    assert v.kind == "ExceptionalI" and v.swapped
    assert [r.coeffs for r in v.roots] == [(0, 1), (1, 1)]


def test_classify_input_guards():
    g = validate_gcm(H51)
    with pytest.raises(NotHyperbolic):
        classify_intersection(validate_gcm(A2), WeylWord((1, 2)), Coweight((1, 1)), 1)
    with pytest.raises(ValueError):
        classify_intersection(g, WeylWord((1, 2)), Coweight((1, 1)), 0)
    with pytest.raises(ValueError):
        classify_intersection(g, WeylWord((1, 2)), Coweight((0, 0)), 1)


def test_exceptional_triple_case_two(algebra):
    g = validate_gcm(H51)
    alg = algebra(H51, 12)
    v = classify_intersection(g, WeylWord((2, 1, 2)), Coweight((1, 0)), 1)
    assert v.kind == "ExceptionalII"
    from kmjm import real_root_vector

    vec, _ = real_root_vector(alg, rootvec((1, 4)))
    for x, y in ((1, 1), (2, 3), (1, -1)):
        t = build_exceptional_triple(g, v, x, y, alg)
        assert t.e == Fraction(x) * vec + Fraction(y) * alg.bracket(alg.e(2), vec)
        assert verify_triple_elements(alg, t)


def test_exceptional_triple_case_one(algebra):
    g = validate_gcm(H51)
    alg = algebra(H51, 12)
    v = classify_intersection(g, WeylWord((1, 2)), Coweight((1, 0)), 1)
    assert v.kind == "ExceptionalI"
    for x, y in ((1, 1), (2, 3), (1, -1)):
        t = build_exceptional_triple(g, v, x, y, alg)
        assert t.e == Fraction(x) * alg.e(1) + Fraction(y) * alg.bracket(
            alg.e(2), alg.e(1)
        )
        assert verify_triple_elements(alg, t)


def test_exceptional_triple_collapses(algebra):
    g = validate_gcm(H51)
    alg = algebra(H51, 12)
    v = classify_intersection(g, WeylWord((1, 2)), Coweight((1, 0)), 1)
    t = build_exceptional_triple(g, v, 3, 0, alg)
    assert t.e == 3 * alg.e(1)
    assert verify_triple_elements(alg, t)
    t = build_exceptional_triple(g, v, 0, 2, alg)
    assert verify_triple_elements(alg, t)
    with pytest.raises(ZeroElement):
        build_exceptional_triple(g, v, 0, 0, alg)


def test_exceptional_triple_swapped(algebra):
    g = validate_gcm(H15)
    alg = algebra(H15, 12)
    v = classify_intersection(g, WeylWord((2, 1)), Coweight((0, 1)), 1)
    t = build_exceptional_triple(g, v, 1, 1, alg)
    assert verify_triple_elements(alg, t)


def test_exceptional_triple_argument_guards(algebra):
    g = validate_gcm(H51)
    alg = algebra(H51, 12)
    single = classify_intersection(g, WeylWord((2, 1, 2)), Coweight((1, 1)), 5)
    with pytest.raises(ValueError):
        build_exceptional_triple(g, single, 1, 1, alg)
    v = classify_intersection(g, WeylWord((1, 2)), Coweight((1, 0)), 1)
    other = algebra(H32, 6)
    with pytest.raises(ValueError):
        build_exceptional_triple(g, v, 1, 1, other)


def test_exceptional_triple_at_minimum_height():
    # a + 3 is the least window that fits every intermediate degree
    g = validate_gcm(H51)
    from kmjm import build_truncated

    alg = build_truncated(g, 8, mode="fast")
    v = classify_intersection(g, WeylWord((2, 1, 2)), Coweight((1, 0)), 1)
    t = build_exceptional_triple(g, v, 1, 1, alg)
    assert verify_triple_elements(alg, t)
