import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import A2, A1_AFFINE, A2_AFFINE, H3, H32, H51
from kmjm import (
    HeightOutOfRange,
    InternalInconsistency,
    NotRealRoot,
    ResourceCap,
    build_truncated,
    check_locally_nilpotent,
    companion_vector,
    exp_ad,
    real_root_vector,
    rootvec,
    simple_reflection,
    validate_gcm,
)
from kmjm import realize
from kmjm._linalg import _Span, _span_of
from kmjm.errors import DEFAULT_CAP, resolve_cap
from kmjm.realize import (
    AlgElement,
    _minus,
    peterson_multiplicities,
    truncated_on_demand,
)
from kmjm.roots import coroot_coords, real_roots_up_to_height


def test_frozen_dimensions(algebra):
    assert build_truncated(validate_gcm(A2), 8).dim == 8  # strict
    assert algebra(A1_AFFINE, 8).dim == 26
    assert algebra(H3, 6).dim == 36
    assert algebra(H51, 6).dim == 20
    assert algebra(H32, 6).dim == 28


def test_bracket_anchors(algebra):
    alg = algebra(A2, 4)
    g = validate_gcm(A2)
    assert alg.bracket(alg.e(1), alg.f(1)) == alg.h(1)
    for i in (1, 2):
        for j in (1, 2):
            a = g.entries[i - 1][j - 1]
            assert alg.bracket(alg.h(i), alg.e(j)) == a * alg.e(j)
            assert alg.bracket(alg.h(i), alg.f(j)) == (-a) * alg.f(j)
    # Serre relation: (ad e_1)^2 e_2 = 0
    assert alg.bracket(alg.e(1), alg.bracket(alg.e(1), alg.e(2))).is_zero()
    assert alg.bracket(alg.e(1), alg.f(2)).is_zero()


def test_element_arithmetic(algebra):
    alg = algebra(A2, 4)
    x = Fraction(1, 2) * alg.e(1)
    assert x.to_serial() == {"p[1,0]#0": "1/2"}
    assert (x - x).is_zero()
    assert alg.zero().is_zero()
    y = alg.e(1) + 3 * alg.h(2) - alg.f(1)
    assert y.to_serial() == {"h2": "3", "p[1,0]#0": "1", "n[1,0]#0": "-1"}
    with pytest.raises(ValueError):
        alg.cartan((1,))


def test_seeded_jacobi(algebra):
    alg = algebra(H3, 6)
    pool = [alg.h(1), alg.h(2)]
    for c in ((1, 0), (0, 1), (1, 1)):
        pool.extend(alg.positive_basis(rootvec(c)))
        pool.extend(alg.negative_basis(rootvec(c)))
    rng = random.Random(917)

    def rand_elt():
        out = alg.zero()
        for b in rng.sample(pool, 3):
            out = out + Fraction(rng.randint(-3, 3)) * b
        return out

    for _ in range(200):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        lhs = alg.bracket(x, alg.bracket(y, z))
        rhs = alg.bracket(alg.bracket(x, y), z) + alg.bracket(y, alg.bracket(x, z))
        assert lhs == rhs
        assert alg.bracket(x, y) == -alg.bracket(y, x)


def _bases(alg):
    # positive and negative basis vectors, by height then degree
    degs = sorted(alg.degrees, key=lambda d: (sum(d), d))
    pos = [x for d in degs for x in alg.positive_basis(rootvec(d))]
    neg = [y for d in degs for y in alg.negative_basis(rootvec(d))]
    return pos, neg


def test_exp_ad_edge_cases(algebra):
    alg = algebra(A2, 4)
    y = alg.e(2)
    assert exp_ad(alg, alg.e(1), y, 0) == y
    assert exp_ad(alg, alg.e(2), alg.e(2), 7) == alg.e(2)
    with pytest.raises(ValueError):
        exp_ad(alg, alg.h(1), y, 1)  # not a root vector
    with pytest.raises(ValueError):
        exp_ad(alg, alg.e(1) + alg.e(2), y, 1)  # spread over two degrees


def test_exp_ad_is_an_automorphism(algebra):
    alg = algebra(A2, 4)
    x = alg.e(1)
    for t in (1, Fraction(1, 2), -2):
        for y, z in ((alg.e(2), alg.f(1)), (alg.f(2), alg.h(1))):
            lhs = exp_ad(alg, x, alg.bracket(y, z), t)
            rhs = alg.bracket(exp_ad(alg, x, y, t), exp_ad(alg, x, z, t))
            assert lhs == rhs


def test_exp_ad_truncation_boundary():
    # the string through the second generator in direction one has length
    # four; its endpoint sits at height five, so a window of four cannot
    # certify termination while a window of five can.
    g = validate_gcm(H3)
    tight = build_truncated(g, 4, mode="fast")
    with pytest.raises(HeightOutOfRange) as err:
        exp_ad(tight, tight.e(1), tight.e(2), 1)
    assert err.value.context["degree"] == [4, 1]
    roomy = build_truncated(g, 5, mode="fast")
    out = exp_ad(roomy, roomy.e(1), roomy.e(2), 1)
    assert not out.is_zero()
    degs = {k[1] for k in out.terms}
    assert degs == {(0, 1), (1, 1), (2, 1), (3, 1)}


def test_linear_termination_identity(algebra):
    # one step above the root space the multiplicity dies, so the series
    # stops after the linear term no matter the scalars
    alg = algebra(H51, 10)
    v = alg.positive_basis(rootvec((1, 4)))[0]
    for x, y in ((1, 1), (3, -2), (Fraction(2, 3), Fraction(5, 7))):
        lhs = exp_ad(alg, alg.e(2), Fraction(x) * v, Fraction(y) / Fraction(x))
        rhs = Fraction(x) * v + Fraction(y) * alg.bracket(alg.e(2), v)
        assert lhs == rhs


def test_simple_reflection(algebra):
    alg = algebra(A2, 4)
    assert simple_reflection(alg, 1, alg.e(1)) == -alg.f(1)
    for x in (alg.e(2), alg.h(1), alg.f(2)):
        fwd = simple_reflection(alg, 1, x)
        assert simple_reflection(alg, 1, fwd, inverse=True) == x


def test_real_root_vector(algebra):
    alg = algebra(H51, 10)
    g = validate_gcm(H51)
    for c in ((1, 1), (1, 4), (0, 1)):
        beta = rootvec(c)
        vec, comp = real_root_vector(alg, beta)
        assert alg.bracket(vec, comp) == alg.cartan(coroot_coords(g, beta))
    with pytest.raises(NotRealRoot):
        real_root_vector(alg, rootvec((-1, 0)))
    with pytest.raises(NotRealRoot):
        real_root_vector(alg, rootvec((2, 3)))  # not a root
    h3 = algebra(H3, 6)
    with pytest.raises(NotRealRoot):
        real_root_vector(h3, rootvec((1, 1)))  # imaginary
    # a root that fits the window but whose transport does not; the error
    # names the window as positive_basis does, and the product that left it
    tight = algebra(H51, 6)
    with pytest.raises(HeightOutOfRange) as err:
        real_root_vector(tight, rootvec((1, 4)))
    assert err.value.context == {
        "beta": [1, 4], "height": 5, "table_height": 6, "degree": [1, 6],
    }


def _transport_uncached(alg, beta):
    # the greedy height descent and the reflections back up, with no memo;
    # None when the transport leaves the window
    g = alg.gcm
    cur, chain = list(beta.coeffs), []
    while sum(cur) > 1:
        i = next(i for i in range(g.n) if sum(a * c for a, c in zip(g.entries[i], cur)) > 0)
        chain.append(i + 1)
        cur[i] -= sum(a * c for a, c in zip(g.entries[i], cur))
    vec = alg.e(cur.index(1) + 1)
    try:
        for i in reversed(chain):
            vec = simple_reflection(alg, i, vec)
    except HeightOutOfRange:
        return None
    return vec


@pytest.mark.parametrize("matrix, height", [(H3, 11), (A2_AFFINE, 9)])
def test_transport_reflects_each_root_once(matrix, height, monkeypatch):
    # a descent stops at the first root the algebra has transported before,
    # so the real roots of the window cost at most one reflection per
    # non-simple root, and each vector is the one the whole chain gives
    g = validate_gcm(matrix)
    roots = real_roots_up_to_height(g, height)
    alg = truncated_on_demand(g, height)
    want = {beta: _transport_uncached(alg, beta) for beta in roots}
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return simple_reflection(*args, **kwargs)

    monkeypatch.setattr(realize, "simple_reflection", counted)
    got = {}
    for beta in reversed(roots):  # tallest first: its descent memoizes the rest
        if want[beta] is None:
            with pytest.raises(HeightOutOfRange) as err:
                real_root_vector(alg, beta)
            assert err.value.context["beta"] == list(beta.coeffs)
            continue
        vec, comp = got[beta] = real_root_vector(alg, beta)
        assert vec == want[beta]
        assert alg.bracket(vec, comp) == alg.cartan(coroot_coords(g, beta))
    assert len(calls) <= sum(beta.height > 1 for beta in roots)
    assert any(want[beta] is None for beta in roots) == (matrix == H3)
    # a repeated request is answered from the memo, companion included
    before = len(calls)
    for beta, pair in got.items():
        assert real_root_vector(alg, beta) == pair
    assert len(calls) == before
    # the memo holds plain dicts, so reference counting alone frees the algebra
    fresh = truncated_on_demand(g, height)
    for beta in got:
        real_root_vector(fresh, beta)
    ref = weakref.ref(fresh)
    gc.disable()
    try:
        del fresh
        assert ref() is None
    finally:
        gc.enable()


def test_companion_scaling(algebra):
    alg = algebra(H51, 10)
    g = validate_gcm(H51)
    beta = rootvec((1, 1))
    vec, _ = real_root_vector(alg, beta)
    comp = companion_vector(alg, beta, 5 * vec)
    assert alg.bracket(5 * vec, comp) == alg.cartan(coroot_coords(g, beta))


def test_check_locally_nilpotent(algebra):
    alg = algebra(A2, 4)
    res = check_locally_nilpotent(alg, alg.e(1), [alg.f(1), alg.e(2)], 6)
    assert [r.degree for r in res] == [3, 2]
    assert all(r.conclusive for r in res)
    # a Cartan element is not nilpotent: the budget runs out
    res = check_locally_nilpotent(alg, alg.h(1), [alg.e(1)], 5)
    assert res[0].degree is None and res[0].reason == "max_n"
    assert not res[0].conclusive
    # near the bound, the iterates leave the window before settling
    tight = build_truncated(validate_gcm(H3), 4, mode="fast")
    res = check_locally_nilpotent(tight, tight.e(1), [tight.e(2)], 10)
    assert res[0].degree is None and res[0].reason == "window"
    with pytest.raises(ValueError):
        check_locally_nilpotent(alg, alg.e(1), [alg.e(2)], -1)


def test_square_across_the_bound_is_zero_not_a_cut(algebra):
    # [e_1, e_1] would sit at height two, above a window of one, but it is
    # zero at every height: only a product of two different basis vectors
    # is refused by the bound
    alg = algebra(H3, 1)
    e1, e2 = alg.e(1), alg.e(2)
    assert exp_ad(alg, e1, e1, 1) == e1
    res = check_locally_nilpotent(alg, e1, [e1, e2], 3)
    assert [(r.degree, r.reason) for r in res] == [(1, None), (None, "window")]
    assert alg.bracket(e1, e1) == alg.zero()
    with pytest.raises(HeightOutOfRange):
        alg.bracket(e1, e2)


def test_a_product_above_the_window_is_refused(algebra):
    # positive control: [e1, [e1, e2]] sits at height three, above a window
    # of two, and is refused rather than read as zero; so is its mirror,
    # while a mixed bracket of the same heights stays inside the window
    alg = algebra(H3, 2)
    e1, e2, f1, f2 = alg.e(1), alg.e(2), alg.f(1), alg.f(2)
    with pytest.raises(HeightOutOfRange) as err:
        alg.bracket(e1, alg.bracket(e1, e2))
    assert err.value.context == {"degree": [2, 1], "height": 3, "table_height": 2}
    with pytest.raises(HeightOutOfRange):
        alg.bracket(f1, alg.bracket(f1, f2))
    mixed = alg.bracket(alg.bracket(e1, e2), alg.bracket(f1, f2))
    assert not mixed.is_zero() and {k[0] for k in mixed.terms} == {"h"}


def test_height_guard(algebra):
    alg = algebra(H3, 6)
    with pytest.raises(HeightOutOfRange):
        alg.positive_basis(rootvec((9, 9)))


def test_resource_cap(monkeypatch):
    g = validate_gcm(H3)
    with pytest.raises(ResourceCap):
        build_truncated(g, 6, cap=10)
    monkeypatch.setenv("KMJM_CAP", "10")
    with pytest.raises(ResourceCap):
        build_truncated(g, 6)
    monkeypatch.delenv("KMJM_CAP")


def test_affine_a1_builds_tall_and_small():
    # affine A1 stays tiny (dimension 92 at height 30): a degree reads only
    # its candidates, however many brackets of its generators vanish there
    alg = build_truncated(validate_gcm(A1_AFFINE), 30, cap=1000)
    assert alg.dim == 92
    assert all(alg.degrees[(k, k)].mult == 1 for k in range(1, 16))


def test_cap_resolution(monkeypatch):
    # the argument, else KMJM_CAP, else DEFAULT_CAP; a KMJM_CAP that is not
    # an integer is an error that names it
    monkeypatch.delenv("KMJM_CAP", raising=False)
    assert resolve_cap() == DEFAULT_CAP
    assert resolve_cap(7) == 7
    monkeypatch.setenv("KMJM_CAP", "10")
    assert resolve_cap() == 10
    assert resolve_cap(7) == 7
    monkeypatch.setenv("KMJM_CAP", "abc")
    assert resolve_cap(7) == 7
    # a cap below 1 would fail every build, so it is rejected where it is read
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"the cap must be >= 1, got {bad}"):
            resolve_cap(bad)
    monkeypatch.setenv("KMJM_CAP", "0")
    with pytest.raises(ValueError, match="KMJM_CAP must be >= 1, got '0'"):
        resolve_cap()
    monkeypatch.setenv("KMJM_CAP", "abc")
    with pytest.raises(ValueError, match="KMJM_CAP must be an integer, got 'abc'"):
        truncated_on_demand(validate_gcm(A2), 4)


def test_build_argument_validation():
    g = validate_gcm(A2)
    with pytest.raises(ValueError):
        build_truncated(g, 4, mode="sloppy")
    with pytest.raises(ValueError):
        build_truncated(g, 0)


WILD3 = [[2, -4, -4], [-4, 2, -4], [-4, -4, 2]]


def _is_lyndon(w):
    # strictly less than every proper rotation
    return all(w < w[k:] + w[:k] for k in range(1, len(w)))


def _words(counts):
    # the words with this letter content, in lex order
    if not any(counts):
        yield ()
        return
    for i, c in enumerate(counts):
        if c:
            counts[i] -= 1
            for rest in _words(counts):
                yield (i + 1,) + rest
            counts[i] += 1


def _own_frame(alg):
    # the algebra's basis as it is built: per degree the T-images that record
    # it, its basis vectors, and coordinates unchanged
    def header(deg):
        return [sorted((j, sorted(t.items())) for j, t in low.items())
                for low in alg.degrees[deg].lower]

    basis = {deg: alg.positive_basis(rootvec(deg)) for deg in alg.degrees}
    return header, basis, lambda y: y


def _lyndon_frame(alg):
    # the basis the algebra had before it took its candidates: per degree the
    # images of the first Lyndon words (in lex order) whose images are
    # independent, the image of a word being the standard bracketing
    # [std(u), std(v)], v the longest proper Lyndon suffix; every element is
    # written over that basis, degree by degree
    images = {}

    def image(w):
        x = images.get(w)
        if x is None:
            if len(w) == 1:
                x = alg.e(w[0])
            else:
                k = next(k for k in range(1, len(w)) if _is_lyndon(w[k:]))
                x = alg.bracket(image(w[:k]), image(w[k:]))
            images[w] = x
        return x

    chosen, spans = {}, {}
    for deg, data in alg.degrees.items():
        span, words = _Span(), []
        for w in (w for w in _words(list(deg)) if _is_lyndon(w)) if data.mult else ():
            if span.add({k[2]: v for k, v in image(w).terms.items()}) is None:
                words.append(w)
                if len(words) == data.mult:
                    break
        assert len(words) == data.mult
        chosen[deg], spans[deg] = words, span

    def express(y):
        out, parts = {}, {}
        for key, v in y.terms.items():
            if key[0] == "h":
                out[key] = v
            else:
                parts.setdefault(key[:2], {})[key[2]] = v
        for (kind, deg), coords in parts.items():
            got = spans[deg].solve(coords)
            assert got is not None
            out.update({(kind, deg, k): c for k, c in got.items() if c})
        return AlgElement(alg, out)

    basis = {deg: [image(w) for w in words] for deg, words in chosen.items()}
    return chosen.get, basis, express


def _structure_digest(alg, frame):
    # the frame's record of the basis per degree, then every [p, p] bracket
    # of basis vectors inside the window and every [p, f_j], written over the
    # frame's basis, in a fixed order
    header, bases, express = frame
    out = hashlib.sha256()
    degs = sorted(alg.degrees, key=lambda d: (sum(d), d))
    basis = []
    for deg in degs:
        out.update(repr((deg, header(deg))).encode())
        basis.extend((sum(deg), x) for x in bases[deg])
    for ha, x in basis:
        for hb, y in basis:
            if ha + hb <= alg.height:
                out.update(json.dumps(express(alg.bracket(x, y)).to_serial()).encode())
        for j in range(1, alg.gcm.n + 1):
            out.update(json.dumps(express(alg.bracket(x, alg.f(j))).to_serial()).encode())
    return out.hexdigest()


@pytest.mark.parametrize(
    "matrix, height, mode, digest",
    [
        (A2, 8, "strict",
         "e0479bca1a17dffc708c2b7a0850b5cfa3a03789b77508cf6b6d9de390ae437f"),
        (H3, 8, "fast",
         "648b65daba2df065d13d69a3021336277e4313828a856f9236634bdcea6304bc"),
        (A2_AFFINE, 7, "fast",
         "0b6ec5bae154aa497cef578dd50147d6a8b414735b01c47c996c637b69e235df"),
        (WILD3, 5, "fast",
         "0b591772eeca9a99ce71c231506f6dd386416a6c3dcf90ca445bd0d7559acf2e"),
    ],
)
def test_pinned_basis_and_structure_constants(matrix, height, mode, digest):
    # recorded from the Fraction build before it moved to integer kernels,
    # over the Lyndon-word basis that build chose: written over that basis
    # again, the same Lyndon words and the same structure constants, bit for
    # bit
    alg = build_truncated(validate_gcm(matrix), height, mode=mode)
    assert _structure_digest(alg, _lyndon_frame(alg)) == digest


@pytest.mark.parametrize(
    "matrix, height, mode, digest",
    [
        (A2, 8, "strict",
         "2c18bb300d714ac8bdbe468a42a45cf9b9b420d04b539f5e7265f66fe1487aad"),
        (H3, 8, "fast",
         "8e540095c3d288e01fd07ebb604692f0e3c810509c0300dfd71316d7ab66384a"),
        (A2_AFFINE, 7, "fast",
         "001d10543156dedb73551a606a0f10ac358819f6351d55d64113267ef29b6b7a"),
        (WILD3, 5, "fast",
         "530e5b73db708509d8ff56be897bb61bd7e1bd4e55c6ca3306036fc4b1746f67"),
    ],
)
def test_pinned_candidate_basis_and_structure_constants(matrix, height, mode, digest):
    # recorded when the basis of a degree became its first independent
    # candidates [b, e_i]: the same basis and the same structure constants,
    # bit for bit
    alg = build_truncated(validate_gcm(matrix), height, mode=mode)
    assert _structure_digest(alg, _own_frame(alg)) == digest


def _charpoly(a):
    # det(x I - a), leading coefficient first, by Faddeev-LeVerrier:
    # M_k = a M_{k-1} + c_{k-1} I and c_k = -tr(a M_k) / k
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[r][t] * m[t][c] for t in range(n)) + (coeffs[-1] if r == c else 0)
              for c in range(n)] for r in range(n)]
        coeffs.append(-sum(a[r][t] * m[t][r] for r in range(n) for t in range(n)) / k)
    return coeffs


def _invariant_digest(alg):
    # the characteristic polynomial of ad f_i ad e_i on every root space
    # below the top height, per degree and i: a similarity invariant, so it
    # pins the structure constants whatever basis each degree chooses
    out = hashlib.sha256()
    for beta in alg.table.roots():
        if beta.height >= alg.height:
            continue
        basis = alg.positive_basis(beta)
        keys = [_basis_key(x) for x in basis]
        for i in range(1, alg.gcm.n + 1):
            cols = [alg.bracket(alg.f(i), alg.bracket(alg.e(i), x)).terms for x in basis]
            assert all(set(col) <= set(keys) for col in cols)
            mat = [[Fraction(col.get(key, 0)) for col in cols] for key in keys]
            poly = [str(c) for c in _charpoly(mat)]
            out.update(json.dumps([list(beta.coeffs), i, poly]).encode())
    return out.hexdigest()


@pytest.mark.parametrize(
    "matrix, height, digest",
    [
        (A2, 8, "02aaecacb6e6a1d2092f300c87c9303f6685ec2ea249ceaa2e8574246bc242bf"),
        (H3, 8, "71899e2ab57af08c32f1ef0696893092afe927c75b825b6c86095cc2930139bd"),
        (A2_AFFINE, 7, "ee32ff91dea9cb61ab37373bcd69ebc26aae41932a9e1b4da9ffea9c2c1ac21e"),
        (WILD3, 5, "72fa1fe2fc39a29072f169993890cb999cca907a29d378ba45287f935c8ffc2f"),
        (H51, 8, "b43ebc795579a7bc82cb9f8be8c05debc2987677701f5a707d2b66f340c96fca"),
    ],
    ids=["A2-8", "H3-8", "A2_AFFINE-7", "WILD3-5", "H51-8"],
)
def test_pinned_invariants_of_the_structure_constants(matrix, height, digest):
    # the structure constants up to a change of basis in each degree: these
    # hold across any rule that chooses the basis
    alg = build_truncated(validate_gcm(matrix), height)
    assert _invariant_digest(alg) == digest


_coeffs = st.fractions(-6, 6, max_denominator=4)
_vecs = st.dictionaries(st.integers(0, 7), _coeffs, max_size=6)


def _reference_rank(vecs):
    # Gaussian elimination over Fraction
    rows = []
    for vec in vecs:
        r = {c: v for c, v in vec.items() if v}
        for b in rows:
            piv = min(b)
            if r.get(piv):
                _axpy(r, -r[piv] / b[piv], b)
        if r:
            rows.append(r)
    return len(rows)


def _axpy(y, a, x):
    for w, c in x.items():
        v = y.get(w, 0) + a * c
        if v:
            y[w] = v
        else:
            y.pop(w, None)


def _combine(coords, vecs):
    out = {}
    for k, c in coords.items():
        _axpy(out, c, vecs[k])
    return out


@given(st.lists(_vecs, max_size=8))
def test_echelon_normal_form_matches_fraction_reference(vecs):
    # the integer elimination against Fraction arithmetic: its rank, which
    # inputs it keeps, and the normal form of its rows
    span = _Span()
    kept = [v for v in vecs if span.add(v) is None]
    assert len(span) == len(kept) == _reference_rank(vecs)
    assert _reference_rank(kept) == len(kept)
    for piv, (row, comb) in span.rows.items():
        # an integer row, pivot at its least column and positive, divided
        # by the gcd of its entries and of its combination
        assert piv == min(row) and row[piv] > 0
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values(), *comb.values()) == 1


@given(st.lists(_vecs, max_size=8), st.lists(_coeffs, min_size=8, max_size=8))
def test_solver_coordinates_and_span(vecs, xs):
    # coordinates of dependent inputs and of a seeded combination over the
    # kept inputs, and None outside their span
    span = _Span()
    kept = []
    for v in vecs:
        got = span.add(v)
        if got is None:
            kept.append(v)
        else:
            assert _combine(got, kept) == {c: x for c, x in v.items() if x}
    target = _combine(dict(enumerate(xs[:len(kept)])), kept)
    assert span.solve(target) == {k: x for k, x in enumerate(xs[:len(kept)]) if x}
    # a column no vector uses takes the target out of the span
    assert span.solve({**target, 99: Fraction(1)}) is None


def _basis_key(x):
    (key,) = x.terms
    return key


def _mixed_digest(alg, frame):
    # every [p_a, n_b] over the frame's positive basis and its mirror, written
    # over the frame's basis, in a fixed order
    _, bases, express = frame
    pos = [x for d in sorted(alg.degrees, key=lambda d: (sum(d), d)) for x in bases[d]]
    out = hashlib.sha256()
    for x in pos:
        for y in pos:
            out.update(json.dumps(express(alg.bracket(x, alg._mirror_elt(y))).to_serial()).encode())
    return out.hexdigest()


@pytest.mark.parametrize(
    "matrix, height, mode, digest",
    [
        (H3, 8, "fast",
         "22d34529d637761d657219ddc6b47badaa089522ba1a7f8bc633cf99b2a23ade"),
        (A2_AFFINE, 7, "fast",
         "00b78502d47fcb1ade52607a7a15f29277cedc91274828f754d500cb7bcda6fc"),
        (WILD3, 5, "fast",
         "61a38f997fc168729707c31a0c5cbe85304576dfb9da4d512fe8e2947665496d"),
        (A2, 4, "strict",
         "2830a3b0f7197c5dfdf4ff2a745d6bfbe7502ca12b33afe05b15c837da084699"),
        (H51, 8, "fast",
         "cc41d83f7e02665a9d093203bdc59c10b5e7e7e09430a09d4247b1010118ad17"),
    ],
)
def test_pinned_mixed_brackets(matrix, height, mode, digest):
    # the first four were recorded from the Lyndon-word derivation route for
    # [p, n] before the generator decomposition replaced it, the fifth (with
    # symmetrizer (5, 1)) from the generator decomposition before the
    # invariant form replaced it, all over the Lyndon-word basis: written
    # over that basis again, the same mixed brackets, exactly
    alg = build_truncated(validate_gcm(matrix), height, mode=mode)
    assert _mixed_digest(alg, _lyndon_frame(alg)) == digest


@pytest.mark.parametrize(
    "matrix, height, mode, digest",
    [
        (H3, 8, "fast",
         "eac7e4fc75c5947b3eeb746089c66d59ee980edc1845d561f1c8da63db16aa7d"),
        (A2_AFFINE, 7, "fast",
         "4871b22e11e1891a2038bf962a25b0226257674bb0289626c9bb68b6483d247d"),
        (WILD3, 5, "fast",
         "510aad67f4365d29eb6f1da54a7d6276348b8b5490a1661589f4e96354bcc41f"),
        (A2, 4, "strict",
         "2830a3b0f7197c5dfdf4ff2a745d6bfbe7502ca12b33afe05b15c837da084699"),
        (H51, 8, "fast",
         "f64813c24fb5150a891170160e28bf2a90761bd550da4c4e78e3b1cf48052916"),
    ],
)
def test_pinned_candidate_basis_mixed_brackets(matrix, height, mode, digest):
    # recorded when the basis of a degree became its first independent
    # candidates [b, e_i]; A2 at 4 kept its basis, and its digest, through
    # that change
    alg = build_truncated(validate_gcm(matrix), height, mode=mode)
    assert _mixed_digest(alg, _own_frame(alg)) == digest


def _ref_t_image(alg, pk, i):
    # [p, f_i] = T_i p, recorded by the build (i 0-based)
    deg = pk[1]
    coords = alg._degree(deg).lower[pk[2]].get(i, {})
    if sum(deg) == 1:
        return AlgElement(alg, {("h", m + 1): Fraction(v) for m, v in coords.items()})
    return AlgElement(alg, {("p", _minus(deg, i), k): Fraction(v) for k, v in coords.items()})


def _ref_bracket(alg, x, y, memo):
    # the bracket with every [p, n] and [n, p] term taken from _ref_pn
    out = alg.zero()
    for a, ac in x.terms.items():
        for b, bc in y.terms.items():
            if (a[0], b[0]) == ("p", "n"):
                term = _ref_pn(alg, a, b, memo)
            elif (a[0], b[0]) == ("n", "p"):
                term = -_ref_pn(alg, b, a, memo)
            else:
                term = alg.bracket(AlgElement(alg, {a: 1}), AlgElement(alg, {b: 1}))
            out = out + (ac * bc) * term
    return out


def _ref_pn(alg, pk, nk, memo):
    # [p, n] by recursion, the route the invariant form replaced: with
    # n = [f_i, z] for z = -mirror b_m, (i, m) the source of the basis vector
    # n mirrors, [x, [f_i, z]] = [[x, f_i], z] + [f_i, [x, z]]
    key = (pk, nk)
    if key not in memo:
        deg = nk[1]
        if sum(deg) == 1:
            out = _ref_t_image(alg, pk, deg.index(1))
        else:
            x = AlgElement(alg, {pk: Fraction(1)})
            i, m = alg._degree(deg).source[nk[2]]
            z = AlgElement(alg, {("n", _minus(deg, i), m): Fraction(-1)})
            out = (_ref_bracket(alg, _ref_t_image(alg, pk, i), z, memo)
                   + _ref_bracket(alg, alg.f(i + 1), _ref_bracket(alg, x, z, memo), memo))
        memo[key] = out
    return memo[key]


def _assert_routes_agree(alg):
    memo = {}
    pos, neg = _bases(alg)
    for x in pos:
        for y in neg:
            assert alg.bracket(x, y) == _ref_pn(alg, _basis_key(x), _basis_key(y), memo)


@pytest.mark.parametrize(
    "matrix, height", [(H3, 8), (A2_AFFINE, 7), (WILD3, 5), (A2, 4), (H51, 8)]
)
def test_mixed_brackets_match_the_recursion(matrix, height):
    # the invariant form against the recursion through lower degrees, on
    # every basis pair of the pinned algebras
    _assert_routes_agree(build_truncated(validate_gcm(matrix), height))


@st.composite
def _symmetrizable(draw):
    # A = D^-1 B for a symmetrizer D and a symmetric B whose off-diagonal
    # entries are multiples of lcm(d_i, d_j), so that A is integral
    n = draw(st.integers(2, 3))
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        b = draw(st.integers(0, 2)) * lcm(d[i], d[j])
        a[i][j], a[j][i] = -b // d[i], -b // d[j]
    return a


@settings(max_examples=20)
@example([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], 5)
@example(H32, 5)
@given(_symmetrizable(), st.integers(1, 5))
def test_mixed_brackets_match_the_recursion_sampled(matrix, height):
    _assert_routes_agree(build_truncated(validate_gcm(matrix), height))


def _block(alg, rng, deg, kind):
    # a seeded combination of every basis vector at +deg ("p") or -deg ("n"),
    # with int and Fraction coefficients
    coeffs = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
    return AlgElement(alg, {(kind, deg, k): rng.choice(coeffs) for k in range(alg._mult(deg))})


@pytest.mark.parametrize(
    "matrix, height", [(H3, 8), (A2_AFFINE, 7), (WILD3, 5), (A2, 4), (H51, 8)]
)
def test_dense_mixed_blocks_match_the_basis_pairs(matrix, height):
    # combinations of every basis vector of a root space on both sides, so the
    # functional u = a G and the sum over l in the block route are exercised;
    # each bracket against the recursion, sum_k sum_l a_k b_l _ref_pn(p_k, n_l)
    alg = build_truncated(validate_gcm(matrix), height)
    rng = random.Random(f"{matrix}-{height}")
    degs = sorted((d for d in alg.degrees if alg._mult(d)), key=lambda d: (sum(d), d))
    above, level, below = [], [], []
    for da in degs:
        for db in degs:
            gam = tuple(p - q for p, q in zip(da, db))
            if not any(gam):
                level.append((da, db))
            elif alg._mult(gam):
                above.append((da, db))
            elif alg._mult(tuple(-c for c in gam)):
                below.append((da, db))
    memo = {}
    picked = []
    for pairs in (above, level, below):
        # the widest blocks first, then a seeded sample of the rest
        pairs.sort(key=lambda p: -alg._mult(p[0]) * alg._mult(p[1]))
        picked += pairs[:2] + rng.sample(pairs[2:], min(6, len(pairs) - 2))
    for da, db in picked:
        x, n = _block(alg, rng, da, "p"), _block(alg, rng, db, "n")
        assert alg.bracket(x, n) == _ref_bracket(alg, x, n, memo), (da, db)
        assert alg.bracket(n, x) == _ref_bracket(alg, n, x, memo), (da, db)
    # several blocks on each side, and a Cartan part, in one bracket
    (da, db), (dc, dd) = picked[0], picked[-1]
    x = _block(alg, rng, da, "p") + _block(alg, rng, dc, "p") + alg.h(1)
    n = _block(alg, rng, db, "n") + _block(alg, rng, dd, "n") + alg.h(1)
    assert alg.bracket(x, n) == _ref_bracket(alg, x, n, memo)


def test_degenerate_form_raises():
    # two basis vectors that name the same source make the Gram matrix of
    # their degree singular, and no mixed bracket that solves there is
    # trusted: [x, n] with x at (2, 2, 1) and n at -(1, 1, 0) lands at
    # (1, 1, 1), whose form is inverted on that first solve
    alg = build_truncated(validate_gcm(A2_AFFINE), 5)
    deg = (1, 1, 1)
    source = alg._degree(deg).source
    assert len(source) == 2
    source[1] = source[0]
    x = alg.positive_basis(rootvec((2, 2, 1)))[0]
    n = alg.negative_basis(rootvec((1, 1, 0)))[0]
    for _ in range(2):  # a failed check leaves no span behind
        with pytest.raises(InternalInconsistency, match="degenerate") as err:
            alg.bracket(x, n)
        assert err.value.context == {"degree": [1, 1, 1], "rank": 1, "expected": 2}


def test_the_form_is_inverted_only_where_a_bracket_solves(monkeypatch):
    # transport brackets with e_i and f_i only, which read the lowering data
    # of the build: no Gram matrix is eliminated on the way, for the four
    # real roots that fit nor for the two at height 11 that leave the window
    g = validate_gcm(H3)
    alg = truncated_on_demand(g, 11)
    spans = []

    def counted(vecs):
        spans.append(len(vecs))
        return _span_of(vecs)

    monkeypatch.setattr(realize, "_span_of", counted)
    done = 0
    for beta in real_roots_up_to_height(g, 11):
        try:
            real_root_vector(alg, beta)
        except HeightOutOfRange:
            continue
        done += 1
    assert done == 4 and spans == []
    # a bracket with f_j, on either side, makes no Gram matrix either
    grams = []
    gram = realize.TruncatedAlgebra._gram

    def counted_gram(self, deg):
        grams.append(deg)
        return gram(self, deg)

    monkeypatch.setattr(realize.TruncatedAlgebra, "_gram", counted_gram)
    fresh = build_truncated(g, 8)
    rng = random.Random(3)
    for deg in sorted(fresh.degrees):
        x = _block(fresh, rng, deg, "p")
        for j in (1, 2):
            assert fresh.bracket(x, fresh.f(j)) == _t_image(fresh, x, j - 1)
            assert fresh.bracket(fresh.f(j), x) == -_t_image(fresh, x, j - 1)
    assert grams == [] and spans == []


def _t_image(alg, x, j):
    # T_j x = [x, f_j] of a positive element, from the T-images of the basis
    # that the build records (j 0-based)
    out = alg.zero()
    for key, c in x.terms.items():
        out = out + c * _ref_t_image(alg, key, j)
    return out


@pytest.mark.parametrize(
    "matrix, height", [(A2, 8), (H3, 8), (A2_AFFINE, 7), (WILD3, 5), (H51, 8)],
    ids=["A2-8", "H3-8", "A2_AFFINE-7", "WILD3-5", "H51-8"],
)
def test_positive_brackets_satisfy_the_leibniz_rule(matrix, height):
    # a second route for [p_a, p_b]: a positive element is fixed by its
    # T-images, and T_j [x, y] = [T_j x, y] + [x, T_j y] holds for every j,
    # with the right side one height lower; so, over all pairs and by
    # induction on height, every bracket of the Jacobi route is checked
    # against the lowering data of the build alone
    alg = build_truncated(validate_gcm(matrix), height)
    pos, _ = _bases(alg)
    for x in pos:
        for y in pos:
            if sum(_basis_key(x)[1]) + sum(_basis_key(y)[1]) > height:
                continue
            got = alg.bracket(x, y)
            for j in range(alg.gcm.n):
                want = alg.bracket(_t_image(alg, x, j), y) + alg.bracket(x, _t_image(alg, y, j))
                assert _t_image(alg, got, j) == want, (x, y, j)


@pytest.mark.parametrize("matrix, height", [(H3, 8), (A2_AFFINE, 7), (WILD3, 5)])
def test_on_demand_matches_eager_queried_top_down(matrix, height):
    # each degree depends only on the degrees below it, so building them in
    # whatever order the queries ask for changes neither basis nor brackets
    g = validate_gcm(matrix)
    eager = build_truncated(g, height, mode="fast")
    lazy = truncated_on_demand(g, height, mode="fast")
    assert not lazy.degrees
    degs = sorted(eager.degrees, key=lambda d: (sum(d), d))

    def table(alg, order):
        out = {}
        for da in order:
            for x in alg.positive_basis(rootvec(da)):
                for j in range(1, g.n + 1):
                    out[(_basis_key(x), j)] = alg.bracket(x, alg.f(j)).to_serial()
                for db in degs:
                    if sum(da) + sum(db) <= height:
                        for y in alg.positive_basis(rootvec(db)):
                            out[(_basis_key(x), _basis_key(y))] = alg.bracket(x, y).to_serial()
        return out

    assert table(lazy, degs[::-1]) == table(eager, degs)
    assert set(lazy.degrees) <= set(eager.degrees)
    assert {d for d in eager.degrees if eager.degrees[d].mult} <= set(lazy.degrees)
    for deg in lazy.degrees:
        assert lazy.degrees[deg].lower == eager.degrees[deg].lower


def test_on_demand_builds_only_the_downward_closure(peterson_calls):
    g = validate_gcm(A2_AFFINE)
    alg = truncated_on_demand(g, 8, mode="fast")
    assert alg.dim == build_truncated(g, 8, mode="fast").dim
    assert len(alg.positive_basis(rootvec((2, 2, 2)))) == 2
    assert not alg.degrees
    assert not alg.bracket(alg.e(1), alg.e(2)).is_zero()
    assert set(alg.degrees) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}
    for c in ((0, 0, 0), (9, 0, 0), (1, -1, 1), (1, 1)):
        with pytest.raises(HeightOutOfRange):
            alg.positive_basis(rootvec(c))
    # each build makes its own table, once, a plain dict at its own height
    peterson_calls.clear()
    alg = build_truncated(g, 5)
    assert peterson_calls == [(g.entries, 5)]
    assert type(alg.table.mult) is dict and alg.table.height == 5
    assert alg.table.mult == peterson_multiplicities(g, 5).mult


def test_failed_degree_is_not_recorded(monkeypatch):
    # a degree whose rank check fails raises on every request, and nothing
    # half-built stays behind for a later query to use
    alg = truncated_on_demand(validate_gcm(A2_AFFINE), 4, mode="fast")
    monkeypatch.setitem(alg.table.mult, rootvec((1, 1, 0)), 2)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="rank disagrees") as err:
            alg.bracket(alg.e(1), alg.e(2))
        assert err.value.context["degree"] == [1, 1, 0]
        assert set(alg.degrees) == {(1, 0, 0), (0, 1, 0)}
