"""Exact realization of the algebra truncated at a height bound.

The positive part is built degree by degree inside the free Lie algebra on the
generators, realized concretely as noncommutative word polynomials (dict from
word tuple to integer).  Per degree, a basis of the free piece is given by the
bracketings of Lyndon words; the defining ideal is spanned by the relation
elements of that exact degree together with [e_i, (ideal one step down)], and
is echelonized over word monomials.  The quotient dimension is cross-checked
against the root multiplicity table at every degree that gets echelonized —
any mismatch means a bug in one of the two independent computations and is
reported as InternalInconsistency rather than papered over.

Degrees are built on first use: a bracket that needs one builds it after
every degree below it, so an algebra from truncated_on_demand costs only the
downward closure of the root spaces it is asked about.  A degree depends only
on the degrees below it, so the basis and the structure constants do not
depend on the order of the requests.  build_truncated builds every degree of
the window, in height order, before it returns.

The arithmetic of the build is integer throughout.  The normal form of a
polynomial modulo the echelon is canonical (no pivot word survives), and it is
computed fraction-free as an integer numerator with a denominator.  Each
degree's basis vectors are the normal forms of its first independent Lyndon
bracketings, stored that way; the solver that writes a reduced polynomial over
them runs on the numerators, so a Fraction appears only in the coordinates it
returns.

The negative part is the mirror image (the generator swap e_i -> f_i is an
isomorphism onto the negative part, with identical structure constants), so
it reuses the positive data.  Mixed brackets never leave the height window
and are computed in quotient coordinates, memoized per pair of basis vectors.
On first use, every basis vector of a degree of height at least two is
written as p = sum_i [e_i, y_i] with y_i one step down, by one exact
elimination over the brackets [e_i, b] of the generators with the basis
below.  The lowering operator then follows from
[p, f_j] = sum_i [e_i, [y_i, f_j]] + [h_j, y_j], and the mirror
n = sum_i [f_i, y_i'] turns [x, n] into sum_i [[x, f_i], y_i'] +
[f_i, [x, y_i']]: brackets of basis vectors in lower degrees.  Every basis
vector is the image of its chosen Lyndon bracketing, so a bracket of two basis
vectors is one exact value whichever of these identities computes it.

Products of two positive (or two negative) elements whose total height
exceeds the bound are cut to zero: the truncation is the quotient by the
ideal of heights above the bound, and every identity holds as long as all
intermediate degrees stay inside the window.  Mixed brackets never meet the
cut.  Operations that must distinguish genuine vanishing from the cut
(exponentials, nilpotency checks) track that and raise TruncationAmbiguous
instead of guessing.

Degrees with multiplicity zero are dead: anything landing there is zero in
the quotient, and the ideal fills the whole free piece.  "fast" mode trusts
the multiplicity table for dead degrees and skips their echelons; "strict"
mode echelonizes those too, verifying the full kill.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    HeightOutOfRange,
    InternalInconsistency,
    NotRealRoot,
    ResourceCap,
    TruncationAmbiguous,
)
from .gcm import GCM, norm
from .lattice import RootVec
from .roots import MultTable, coroot_coords, is_root, peterson_multiplicities

__all__ = [
    "AlgElement",
    "TruncatedAlgebra",
    "build_truncated",
    "truncated_on_demand",
    "exp_ad",
    "simple_reflection",
    "NilpotencyResult",
    "check_locally_nilpotent",
    "real_root_vector",
    "companion_vector",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 20000


# ---------------------------------------------------------------------------
# free Lie algebra scaffolding: words, Lyndon words, bracket expansions

def lyndon_words(content):
    """Lyndon words with the given letter content, in lex order.

    Every prefix of a Lyndon word is a prenecklace, so the words come from the
    Fredricksen-Kessler-Maiorana recursion restricted to the content: the
    letter at position t is at least the one at t - p, p being the period of
    the prefix, and a complete word is Lyndon exactly when its period is its
    length.  A Lyndon word starts with its least letter."""
    n = len(content)
    total = sum(content)
    if total == 0:
        return []
    counts = list(content)
    first = next(i for i in range(n) if counts[i])
    counts[first] -= 1
    word = [first + 1] * total
    out = []

    def rec(t, p):
        if t == total:
            if p == total:
                out.append(tuple(word))
            return
        low = word[t - p]
        for x in range(low, n + 1):
            if counts[x - 1]:
                counts[x - 1] -= 1
                word[t] = x
                rec(t + 1, p if x == low else t + 1)
                counts[x - 1] += 1

    rec(1, 1)
    return out


def _std_factorization(w):
    # w = uv with v the lex-least proper suffix; u and v are again Lyndon
    best = 1
    for k in range(2, len(w)):
        if w[k:] < w[best:]:
            best = k
    return w[:best], w[best:]


def _poly_bracket(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            c = c1 * c2
            k = w1 + w2
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
            k = w2 + w1
            v = out.get(k, 0) - c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


_L_CACHE: dict = {}


def _lyndon_expand(w):
    # the word polynomial of the right-normed bracketing attached to a Lyndon
    # word; leading (lex-least) monomial is w itself with coefficient 1
    got = _L_CACHE.get(w)
    if got is not None:
        return got
    if len(w) == 1:
        poly = {w: 1}
    else:
        u, v = _std_factorization(w)
        poly = _poly_bracket(_lyndon_expand(u), _lyndon_expand(v))
    _L_CACHE[w] = poly
    return poly


# ---------------------------------------------------------------------------
# integer echelon over word monomials

def _sub_multiple(vec, c, row):
    # vec -= c * row in place, dropping zero coefficients
    for w, rc in row.items():
        v = vec.get(w, 0) - c * rc
        if v:
            vec[w] = v
        else:
            vec.pop(w, None)


def _normalize_int_row(row):
    g = 0
    for c in row.values():
        g = gcd(g, abs(c))
        if g == 1:
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g not in (0, 1):
        row = {w: c // g for w, c in row.items()}
    elif g == -1:
        row = {w: -c for w, c in row.items()}
    return row


class _Echelon:
    # integer row echelon keyed by pivot (lex-least) word
    def __init__(self):
        self.rows = {}
        self._sorted = None

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, row):
        # returns True if the row added a new pivot
        row = dict(row)
        while row:
            lead = min(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                self.rows[lead] = _normalize_int_row(row)
                self._sorted = None
                return True
            # row <- (a row - b pivot) / gcd(a, b); the stored row is
            # normalized to be primitive, so the scale does not matter
            a = pivot[lead]
            b = row[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                row = {w: c * a for w, c in row.items()}
            _sub_multiple(row, b, pivot)
        return False

    def sorted_pivots(self):
        if self._sorted is None:
            self._sorted = sorted(self.rows)
        return self._sorted

    def reduce(self, poly):
        """Normal form of an integer polynomial modulo the rows, fraction-free.

        Returns (num, den) with poly congruent to num/den, no pivot word left
        in num, den > 0 and gcd(content(num), den) = 1.  Pivots only ever
        introduce lex-greater words, so one ascending pass suffices; the
        result is unique, hence canonical."""
        num = {w: c for w, c in poly.items() if c}
        den = 1
        rows = self.rows
        for piv in self.sorted_pivots():
            c = num.get(piv)
            if not c:
                continue
            row = rows[piv]
            a = row[piv]
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                num = {w: a * v for w, v in num.items()}
                den *= a
            _sub_multiple(num, c, row)
        g = gcd(den, *num.values())
        if g != 1:
            num = {w: v // g for w, v in num.items()}
            den //= g
        return num, den


class _Solver:
    # integer echelon of basis numerators num_0, num_1, ..., each row
    # (pivot, vec, coords) with vec = sum_k coords[k] num_k, kept primitive
    # and with a positive pivot entry
    def __init__(self, width):
        self.width = width
        self.rows = []

    def _reduce(self, vec):
        # (rest, coords, s) with s * vec = rest + sum_k coords[k] num_k
        vec = {w: c for w, c in vec.items() if c}
        coords = [0] * self.width
        s = 1
        for piv, rvec, rcoo in self.rows:
            c = vec.get(piv)
            if not c:
                continue
            a = rvec[piv]
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                vec = {w: a * v for w, v in vec.items()}
                coords = [a * x for x in coords]
                s *= a
            _sub_multiple(vec, c, rvec)
            for k, rc in enumerate(rcoo):
                if rc:
                    coords[k] += c * rc
        return vec, coords, s

    def insert(self, vec, index):
        # adds num_index = vec; False if it lies in the span of the others
        rest, coords, s = self._reduce(vec)
        if not rest:
            return False
        coords = [-x for x in coords]
        coords[index] += s
        g = gcd(*rest.values(), *coords)
        piv = min(rest)
        if rest[piv] < 0:
            g = -g
        if g != 1:
            rest = {w: v // g for w, v in rest.items()}
            coords = [x // g for x in coords]
        self.rows.append((piv, rest, coords))
        self.rows.sort(key=lambda r: r[0])
        return True

    def solve(self, vec):
        # (coords, s) with vec = sum_k (coords[k] / s) num_k, or None when
        # vec is outside the span
        rest, coords, s = self._reduce(vec)
        if rest:
            return None
        return coords, s


# ---------------------------------------------------------------------------
# elements

_KIND_ORDER = {"h": 0, "p": 1, "n": 2}


def _key_sort(key):
    kind = key[0]
    if kind == "h":
        return (0, 0, (), key[1])
    deg = key[1]
    return (_KIND_ORDER[kind], sum(deg), deg, key[2])


def _key_to_id(key):
    if key[0] == "h":
        return f"h{key[1]}"
    return f"{key[0]}[{','.join(str(c) for c in key[1])}]#{key[2]}"


class AlgElement:
    """Sparse element: dict from basis key to Fraction.

    Keys are ("h", i) for the i-th simple coroot, ("p", degree, k) and
    ("n", degree, k) for the k-th basis vector of the root space at plus or
    minus the given positive degree.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {k: v for k, v in terms.items() if v}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return AlgElement(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElement(self.alg, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        if not s:
            return AlgElement(self.alg, {})
        return AlgElement(self.alg, {k: s * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(self.terms.items(), key=lambda t: _key_sort(t[0])))))

    def _same(self, other):
        if not isinstance(other, AlgElement) or other.alg is not self.alg:
            raise ValueError("elements belong to different algebras")

    def split(self):
        h, p, n = {}, {}, {}
        for k, v in self.terms.items():
            {"h": h, "p": p, "n": n}[k[0]][k] = v
        return h, p, n

    def to_serial(self):
        out = {}
        for k in sorted(self.terms, key=_key_sort):
            v = self.terms[k]
            out[_key_to_id(k)] = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return out

    def __repr__(self):
        if not self.terms:
            return "AlgElement(0)"
        bits = []
        for k in sorted(self.terms, key=_key_sort):
            bits.append(f"{self.terms[k]}*{_key_to_id(k)}")
        return "AlgElement(" + " + ".join(bits) + ")"


class _DegreeData:
    # basis_reps[k] is the k-th basis vector as an integer numerator and a
    # denominator, (num, den), num being the echelon normal form scaled to
    # lowest terms; the solver runs on those numerators.  decomp[k] writes
    # the k-th basis vector as sum_i [e_i, y_i], a list of (i, y_i) with y_i
    # an element one step down; built by the first mixed bracket that needs
    # it (None until then, and at height one).
    __slots__ = ("lyndon", "dim_free", "mult", "prop_rows", "echelon",
                 "basis_reps", "decomp", "solver", "chosen")

    def __init__(self):
        self.lyndon = []
        self.dim_free = 0
        self.mult = 0
        self.prop_rows = []
        self.echelon = None
        self.basis_reps = []
        self.decomp = None
        self.solver = None
        self.chosen = []


# ---------------------------------------------------------------------------
# the algebra

class TruncatedAlgebra:
    def __init__(self, g: GCM, height: int, mode: str, table: MultTable):
        self.gcm = g
        self.height = height
        self.mode = mode
        self.table = table
        self.degrees: dict[tuple, _DegreeData] = {}
        self._pp_cache: dict = {}
        self._pn_cache: dict = {}
        self._t_cache: dict = {}

    # -- construction -----------------------------------------------------

    def _mult(self, deg) -> int:
        return self.table.mult.get(RootVec(deg), 0)

    def _degree(self, deg) -> _DegreeData:
        """The data of a degree of the window, built on first use after its
        lower neighbours deg - alpha_i.  A degree is recorded only once its
        build has passed every check, so a failed build raises again on the
        next request instead of leaving half-built data behind."""
        data = self.degrees.get(deg)
        if data is None:
            if sum(deg) > 1:
                for i in range(len(deg)):
                    if deg[i]:
                        self._degree(deg[:i] + (deg[i] - 1,) + deg[i + 1:])
            data = self._build_degree(deg)
            self.degrees[deg] = data
        return data

    def _build_degree(self, deg):
        g = self.gcm
        n = g.n
        data = _DegreeData()
        data.mult = self._mult(deg)
        data.lyndon = lyndon_words(deg)
        data.dim_free = len(data.lyndon)
        height = sum(deg)
        if height == 1:
            # a simple root: free piece is one generator, no relations
            if data.mult != 1:
                raise InternalInconsistency(
                    "multiplicity table gives a simple root multiplicity other than one",
                    degree=list(deg),
                )
            i = deg.index(1) + 1
            data.basis_reps = [({(i,): 1}, 1)]
            data.solver = _Solver(1)
            data.solver.insert({(i,): 1}, 0)
            data.chosen = [(i,)]
            data.echelon = _Echelon()
            return data
        if data.dim_free == 0:
            # e.g. a multiple of a single simple root: nothing here at all
            if data.mult != 0:
                raise InternalInconsistency(
                    "multiplicity table claims a root where the free algebra is empty",
                    degree=list(deg),
                )
            data.echelon = _Echelon()
            return data
        if data.mult == 0 and self.mode == "fast":
            # dead degree: the ideal fills the free piece; propagate its full
            # Lyndon spanning set without echelonizing
            data.prop_rows = [dict(_lyndon_expand(w)) for w in data.lyndon]
            return data
        rows = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                m = 1 - g.a(i, j)
                sdeg = tuple((m if t == i - 1 else 0) + (1 if t == j - 1 else 0) for t in range(n))
                if sdeg == deg:
                    poly = {(j,): 1}
                    for _ in range(m):
                        poly = _poly_bracket({(i,): 1}, poly)
                    rows.append(poly)
        for i in range(n):
            if deg[i] == 0:
                continue
            lower = tuple(deg[t] - (1 if t == i else 0) for t in range(n))
            if sum(lower) < 2:
                continue  # the ideal vanishes at height one
            below = self._degree(lower)
            src = below.prop_rows if below.prop_rows else (
                list(below.echelon.rows.values()) if below.echelon else []
            )
            for row in src:
                rows.append(_poly_bracket({(i + 1,): 1}, row))
        ech = _Echelon()
        for row in rows:
            ech.insert(row)
        data.echelon = ech
        expected = data.dim_free - data.mult
        if ech.rank != expected:
            raise InternalInconsistency(
                "relation ideal rank disagrees with the multiplicity table "
                f"at degree {list(deg)}: echelon gives {ech.rank}, "
                f"multiplicities demand {expected}",
                degree=list(deg),
                rank=ech.rank,
                expected=expected,
            )
        data.prop_rows = list(ech.rows.values())
        if data.mult == 0:
            return data
        data.solver = _Solver(data.mult)
        for w in data.lyndon:
            num, den = ech.reduce(_lyndon_expand(w))
            if not num:
                continue
            if data.solver.insert(num, len(data.basis_reps)):
                data.basis_reps.append((num, den))
                data.chosen.append(w)
                if len(data.basis_reps) == data.mult:
                    break
        if len(data.basis_reps) != data.mult:
            raise InternalInconsistency(
                f"could only find {len(data.basis_reps)} independent vectors at "
                f"degree {list(deg)}, multiplicity table demands {data.mult}",
                degree=list(deg),
            )
        return data

    # -- basic elements ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.gcm.n + 2 * sum(self.table.mult.values())

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def cartan(self, coords) -> AlgElement:
        coords = tuple(coords)
        if len(coords) != self.gcm.n:
            raise ValueError(f"need {self.gcm.n} coroot coordinates")
        return AlgElement(self, {("h", i + 1): Fraction(c) for i, c in enumerate(coords) if c})

    def h(self, i: int) -> AlgElement:
        return AlgElement(self, {("h", i): Fraction(1)})

    def e(self, i: int) -> AlgElement:
        deg = tuple(1 if t == i - 1 else 0 for t in range(self.gcm.n))
        return AlgElement(self, {("p", deg, 0): Fraction(1)})

    def f(self, i: int) -> AlgElement:
        deg = tuple(1 if t == i - 1 else 0 for t in range(self.gcm.n))
        return AlgElement(self, {("n", deg, 0): Fraction(1)})

    def positive_basis(self, beta: RootVec) -> list[AlgElement]:
        deg = beta.coeffs
        if len(deg) != self.gcm.n or min(deg) < 0 or not 1 <= sum(deg) <= self.height:
            raise HeightOutOfRange(
                f"degree {list(deg)} is outside the truncation",
                height=beta.height,
                table_height=self.height,
            )
        return [AlgElement(self, {("p", deg, k): Fraction(1)}) for k in range(self._mult(deg))]

    def negative_basis(self, beta: RootVec) -> list[AlgElement]:
        return [self._mirror_elt(x) for x in self.positive_basis(beta)]

    def multiplicity(self, beta: RootVec) -> int:
        return self.table.multiplicity(beta)

    # -- reduction to quotient coordinates ----------------------------------

    def _reduce_poly(self, deg, poly, den=1):
        """Quotient image of poly / den at the degree, poly a positive free
        Lie polynomial with integer coefficients."""
        data = self._degree(deg)
        if data.mult == 0:
            return {}
        num, nden = data.echelon.reduce(poly)
        got = data.solver.solve(num)
        if got is None:
            raise InternalInconsistency(
                "reduced polynomial escaped the quotient basis "
                f"at degree {list(deg)}",
                degree=list(deg),
            )
        coords, s = got
        # poly / den = sum_k coords[k] num_k / (s nden den), num_k = den_k rep_k
        scale = s * nden * den
        reps = data.basis_reps
        return {
            ("p", deg, k): Fraction(c * reps[k][1], scale)
            for k, c in enumerate(coords)
            if c
        }

    def _mirror_elt(self, x: AlgElement) -> AlgElement:
        out = {}
        for k, v in x.terms.items():
            if k[0] == "h":
                raise ValueError("mirror is only defined on pure positive or negative parts")
            out[("n" if k[0] == "p" else "p",) + k[1:]] = v
        return AlgElement(self, out)

    # -- brackets ------------------------------------------------------------

    def bracket(self, x: AlgElement, y: AlgElement) -> AlgElement:
        out, _ = self._bracket_checked(x, y)
        return out

    def _bracket_checked(self, x: AlgElement, y: AlgElement):
        x._same(y)
        if x.alg is not self:
            raise ValueError("elements belong to a different algebra")
        truncated = False
        acc: dict = {}

        def add(terms, scale):
            for k, v in terms.items():
                s = acc.get(k, 0) + scale * v
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)

        xh, xp, xn = x.split()
        yh, yp, yn = y.split()
        A = self.gcm.entries
        # [h, .]
        for hk, hc in xh.items():
            i = hk[1] - 1
            for pk, pc in yp.items():
                val = sum(A[i][j] * pk[1][j] for j in range(self.gcm.n))
                if val:
                    add({pk: Fraction(val)}, hc * pc)
            for nk, nc in yn.items():
                val = sum(A[i][j] * nk[1][j] for j in range(self.gcm.n))
                if val:
                    add({nk: Fraction(-val)}, hc * nc)
        for hk, hc in yh.items():
            i = hk[1] - 1
            for pk, pc in xp.items():
                val = sum(A[i][j] * pk[1][j] for j in range(self.gcm.n))
                if val:
                    add({pk: Fraction(-val)}, hc * pc)
            for nk, nc in xn.items():
                val = sum(A[i][j] * nk[1][j] for j in range(self.gcm.n))
                if val:
                    add({nk: Fraction(val)}, hc * nc)
        # [p, p] and [n, n]
        for ak, ac in xp.items():
            for bk, bc in yp.items():
                terms, cut = self._pp(ak, bk)
                truncated = truncated or cut
                add(terms, ac * bc)
        for ak, ac in xn.items():
            for bk, bc in yn.items():
                terms, cut = self._pp(("p",) + ak[1:], ("p",) + bk[1:])
                truncated = truncated or cut
                add({("n",) + k[1:]: v for k, v in terms.items()}, ac * bc)
        # [p, n] and [n, p]
        for ak, ac in xp.items():
            for bk, bc in yn.items():
                add(self._pn(ak, bk).terms, ac * bc)
        for ak, ac in xn.items():
            for bk, bc in yp.items():
                add(self._pn(bk, ak).terms, -ac * bc)
        return AlgElement(self, acc), truncated

    def _pp(self, ak, bk):
        # bracket of two positive basis vectors; bool reports a height cut
        if ak == bk:
            return {}, False
        key = (ak, bk)
        got = self._pp_cache.get(key)
        if got is not None:
            return got
        da, db = ak[1], bk[1]
        deg = tuple(da[t] + db[t] for t in range(len(da)))
        if sum(deg) > self.height:
            res = ({}, True)
        elif self._mult(deg) == 0:
            res = ({}, False)
        else:
            pa, den_a = self._degree(da).basis_reps[ak[2]]
            pb, den_b = self._degree(db).basis_reps[bk[2]]
            res = (self._reduce_poly(deg, _poly_bracket(pa, pb), den_a * den_b), False)
        self._pp_cache[key] = res
        rev = ({k: -v for k, v in res[0].items()}, res[1])
        self._pp_cache[(bk, ak)] = rev
        return res

    def _decomposition(self, deg):
        """Per basis vector at deg (height at least two), the list of (i, y_i)
        with y_i at deg - alpha_i and the vector equal to sum_i [e_i, y_i]:
        one Gauss-Jordan pass over the quotient coordinates of the candidates
        [e_i, b], b over the basis below."""
        data = self._degree(deg)
        if data.decomp is not None:
            return data.decomp
        n = self.gcm.n
        rows = {}  # pivot key -> (coordinates, combination of candidates)
        for i in range(n):
            if not deg[i] or len(rows) == data.mult:
                continue
            gen = ("p", tuple(1 if t == i else 0 for t in range(n)), 0)
            lower = tuple(deg[t] - (1 if t == i else 0) for t in range(n))
            for k in range(self._degree(lower).mult):
                b = ("p", lower, k)
                vec = dict(self._pp(gen, b)[0])
                comb = {(i + 1, b): Fraction(1)}
                for piv, (rvec, rcomb) in rows.items():
                    c = vec.get(piv)
                    if c:
                        _sub_multiple(vec, c, rvec)
                        _sub_multiple(comb, c, rcomb)
                if not vec:
                    continue
                piv = min(vec)
                c = vec[piv]
                vec = {key: v / c for key, v in vec.items()}
                comb = {key: v / c for key, v in comb.items()}
                for rvec, rcomb in rows.values():
                    c = rvec.get(piv)
                    if c:
                        _sub_multiple(rvec, c, vec)
                        _sub_multiple(rcomb, c, comb)
                rows[piv] = (vec, comb)
                if len(rows) == data.mult:
                    break
        if len(rows) != data.mult:
            raise InternalInconsistency(
                "brackets of the generators with the basis below do not span "
                f"degree {list(deg)}: rank {len(rows)}, multiplicity {data.mult}",
                degree=list(deg),
                rank=len(rows),
                expected=data.mult,
            )
        data.decomp = []
        for k in range(data.mult):
            parts: dict = {}
            for (i, b), c in rows[("p", deg, k)][1].items():
                parts.setdefault(i, {})[b] = c
            data.decomp.append([(i, AlgElement(self, y)) for i, y in sorted(parts.items())])
        return data.decomp

    def _t_basis(self, pk, j):
        # [p-basis vector, f_j]; with p = sum_i [e_i, y_i],
        # [[e_i, y], f_j] = [e_i, [y, f_j]] + delta_ij [h_i, y]
        key = (pk, j)
        got = self._t_cache.get(key)
        if got is not None:
            return got
        deg = pk[1]
        if sum(deg) == 1:
            out = self.h(j) if deg[j - 1] else self.zero()
        else:
            br = self._br
            fj = self.f(j)
            out = self.zero()
            for i, y in self._decomposition(deg)[pk[2]]:
                out = out + br(self.e(i), br(y, fj))
                if i == j:
                    out = out + br(self.h(i), y)
        self._t_cache[key] = out
        return out

    def _pn(self, pk, nk):
        # [p-basis vector x, n-basis vector]; with n = sum_i [f_i, z_i], z_i
        # the mirror of y_i, [x, [f_i, z]] = [[x, f_i], z] + [f_i, [x, z]]
        key = (pk, nk)
        got = self._pn_cache.get(key)
        if got is not None:
            return got
        deg = nk[1]
        if sum(deg) == 1:
            out = self._t_basis(pk, deg.index(1) + 1)
        else:
            br = self._br
            x = AlgElement(self, {pk: Fraction(1)})
            out = self.zero()
            for i, y in self._decomposition(deg)[nk[2]]:
                z = self._mirror_elt(y)
                out = out + br(self._t_basis(pk, i), z) + br(self.f(i), br(x, z))
        self._pn_cache[key] = out
        return out

    def _br(self, x, y):
        # the recursion's own brackets stay off the public method, so that a
        # wrapper around bracket sees only the calls made from outside
        return self._bracket_checked(x, y)[0]


# ---------------------------------------------------------------------------
# construction entry point

def build_truncated(g: GCM, height: int, mode: str = "strict",
                    cap: int | None = None, table: MultTable | None = None) -> TruncatedAlgebra:
    """Build the truncation at the given height bound, every degree of the
    window included.

    mode "strict" echelonizes every degree and cross-checks each quotient
    dimension against the multiplicity table; "fast" short-circuits dead
    degrees.  The estimated dimension must stay within the cap (argument,
    else KMJM_CAP from the environment, else 20000).
    """
    alg = truncated_on_demand(g, height, mode, cap, table)
    for deg in _window(g.n, height):
        alg._degree(deg)
    return alg


def _window(n: int, height: int):
    # every degree of the window (nonnegative, height 1..height) by height;
    # degrees of multiplicity zero still matter for the ideal bookkeeping
    level = [(0,) * n]
    for _ in range(height):
        level = sorted({d[:i] + (d[i] + 1,) + d[i + 1:] for d in level for i in range(n)})
        yield from level


def truncated_on_demand(g: GCM, height: int, mode: str = "strict",
                        cap: int | None = None, table: MultTable | None = None) -> TruncatedAlgebra:
    """The truncation of build_truncated, with the same arguments and checks,
    but each degree is built the first time a bracket needs it (together
    with every degree below it).  Basis and structure constants
    are the same whatever order the degrees are requested in."""
    if mode not in ("strict", "fast"):
        raise ValueError(f"mode must be 'strict' or 'fast', got {mode!r}")
    if height < 1:
        raise ValueError(f"height bound must be >= 1, got {height}")
    if table is None or table.gcm != g or table.height < height:
        table = peterson_multiplicities(g, height)
    if table.height > height:
        table = MultTable(
            gcm=g,
            height=height,
            mult={v: m for v, m in table.mult.items() if v.height <= height},
        )
    if cap is None:
        env = os.environ.get("KMJM_CAP")
        cap = int(env) if env else DEFAULT_CAP
    estimated = g.n + 2 * sum(table.mult.values())
    if estimated > cap:
        raise ResourceCap(
            f"estimated dimension {estimated} exceeds the cap {cap}",
            estimated=estimated,
            cap=cap,
        )
    return TruncatedAlgebra(g, height, mode, table)


# ---------------------------------------------------------------------------
# operations on top of the algebra

def _single_degree(x: AlgElement):
    kinds = {k[0] for k in x.terms}
    if kinds == {"h"}:
        return ("h", None)
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    degs = {k[1] for k in x.terms}
    if len(degs) != 1:
        return None
    return (kind, degs.pop())


def exp_ad(alg: TruncatedAlgebra, x: AlgElement, y: AlgElement, t) -> AlgElement:
    """exp(t·ad x) applied to y, summed exactly: Σ_k t^k ad(x)^k(y) / k!.

    x must live in a single root space (so its adjoint action shifts degrees
    uniformly).  If the series reaches the height bound before provably
    terminating, TruncationAmbiguous is raised.
    """
    t = Fraction(t)
    if x.is_zero() or t == 0:
        return y
    where = _single_degree(x)
    if where is None or where[0] == "h":
        raise ValueError("exp_ad needs x inside a single nonzero root space")
    out = y
    term = y
    k = 1
    limit = 2 * alg.height + 2
    while True:
        nxt, cut = alg._bracket_checked(x, term)
        if cut:
            raise TruncationAmbiguous(
                "adjoint series reached the height bound before terminating",
                height=alg.height,
            )
        if nxt.is_zero():
            return out
        term = (t / k) * nxt
        out = out + term
        k += 1
        if k > limit:
            raise InternalInconsistency(
                "adjoint series failed to terminate within the degree window"
            )


@dataclass(frozen=True)
class NilpotencyResult:
    """Outcome of one probe: the least N with ad(e)^N(probe) = 0, or None if
    the question could not be settled inside the truncation (reason "window":
    a bracket hit the height bound; reason "max_n": the step budget ran out
    with the iterate still nonzero)."""

    probe: int
    degree: int | None
    reason: str | None = None

    @property
    def conclusive(self) -> bool:
        return self.degree is not None


def check_locally_nilpotent(
    alg: TruncatedAlgebra, e: AlgElement, probes, max_n: int
) -> list[NilpotencyResult]:
    """For each probe y, find the least N ≤ max_n with ad(e)^N(y) = 0 exactly.

    e may spread over several degrees (the interesting inputs do), so
    termination is not a degree-shift argument; a probe whose iterates leave
    the height window or survive max_n steps is reported as inconclusive
    rather than raising — an undecided question is a result here, not an
    error."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    out = []
    for idx, y in enumerate(probes):
        cur = y
        verdict = None
        for n in range(max_n + 1):
            if cur.is_zero():
                verdict = NilpotencyResult(idx, n)
                break
            nxt, cut = alg._bracket_checked(e, cur)
            if cut:
                verdict = NilpotencyResult(idx, None, "window")
                break
            cur = nxt
        if verdict is None:
            verdict = NilpotencyResult(idx, None, "max_n")
        out.append(verdict)
    return out


def simple_reflection(
    alg: TruncatedAlgebra, i: int, x: AlgElement, inverse: bool = False
) -> AlgElement:
    """The reflection operator ŝ_i = exp(ad e_i)·exp(−ad f_i)·exp(ad e_i)
    applied to x (or its inverse, with the signs and order flipped)."""
    e, f = alg.e(i), alg.f(i)
    s = -1 if inverse else 1
    x = exp_ad(alg, e, x, s)
    x = exp_ad(alg, f, x, -s)
    return exp_ad(alg, e, x, s)


def real_root_vector(alg: TruncatedAlgebra, beta: RootVec):
    """A nonzero vector of the root space at a positive real root, together
    with the companion at minus the root normalized so that their bracket is
    exactly the coroot.

    The vector is produced by transporting a generator along a chain of
    reflection operators following a greedy height descent.
    """
    g = alg.gcm
    if not beta.is_positive:
        raise NotRealRoot(f"{list(beta.coeffs)} is not positive", beta=list(beta.coeffs))
    if not is_root(alg.table, beta):
        raise NotRealRoot(f"{list(beta.coeffs)} is not a root", beta=list(beta.coeffs))
    if norm(g, beta) <= 0:
        raise NotRealRoot(
            f"{list(beta.coeffs)} is imaginary", beta=list(beta.coeffs)
        )
    cur = beta
    chain = []
    while cur.height > 1:
        pick = 0
        for i in range(1, g.n + 1):
            pairing = sum(g.entries[i - 1][j] * cur.coeffs[j] for j in range(g.n))
            if pairing > 0:
                pick = i
                break
        if pick == 0:
            raise InternalInconsistency(
                "height descent stalled on a positive real root",
                beta=list(cur.coeffs),
            )
        chain.append(pick)
        new = list(cur.coeffs)
        new[pick - 1] -= sum(g.entries[pick - 1][j] * cur.coeffs[j] for j in range(g.n))
        cur = RootVec(tuple(new))
    base = cur.coeffs.index(1) + 1
    vec = alg.e(base)
    try:
        for i in reversed(chain):
            vec = simple_reflection(alg, i, vec)
    except TruncationAmbiguous as exc:
        raise HeightOutOfRange(
            "transport to the root needs a taller truncation "
            f"(bound {alg.height} is not enough for {list(beta.coeffs)})",
            height=alg.height,
            beta=list(beta.coeffs),
        ) from exc
    bad = [k for k in vec.terms if not (k[0] == "p" and k[1] == beta.coeffs)]
    if bad or vec.is_zero():
        raise InternalInconsistency(
            "transported vector did not land in the expected root space",
            beta=list(beta.coeffs),
        )
    return vec, companion_vector(alg, beta, vec)


def companion_vector(alg: TruncatedAlgebra, beta: RootVec, vec: AlgElement) -> AlgElement:
    """Given a nonzero vector of the root space at a positive real root,
    return the vector at minus the root whose bracket with it is exactly the
    coroot: the mirror image, rescaled through the Cartan pairing."""
    g = alg.gcm
    comp = alg._mirror_elt(vec)
    br = alg.bracket(vec, comp)
    if any(k[0] != "h" for k in br.terms):
        raise InternalInconsistency(
            "bracket with the mirrored vector left the Cartan subalgebra",
            beta=list(beta.coeffs),
        )
    target = coroot_coords(g, beta)
    lam = None
    for i in range(g.n):
        have = br.terms.get(("h", i + 1), Fraction(0))
        want = Fraction(target[i])
        if want:
            lam = have / want
            break
    if lam is None or lam == 0:
        raise InternalInconsistency(
            "pairing of the root vector with its mirror vanished",
            beta=list(beta.coeffs),
        )
    for i in range(g.n):
        have = br.terms.get(("h", i + 1), Fraction(0))
        if have != lam * Fraction(target[i]):
            raise InternalInconsistency(
                "bracket with the mirrored vector is not proportional to the coroot",
                beta=list(beta.coeffs),
            )
    return Fraction(1, 1) / lam * comp
