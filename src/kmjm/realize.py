"""Exact realization of the algebra truncated at a height bound.

The positive part is built degree by degree from the lowering operators
T_j(x) = [x, f_j].  In g(A) an element of the positive part is zero exactly
when every T_j kills it (at height one, T_j(e_i) = delta_ij h_i), so an
element of the root space at a positive degree beta is recorded by its
T-images, which lie in the degrees beta - alpha_j below it.  No free Lie
algebra is built: every degree costs what its quotient costs.

Per degree, in height order: the candidates [b, e_i], b over the basis at
beta - alpha_i, span the root space, and their T-images follow from the
degrees below, T_j([e_i, b]) = [e_i, T_j b] + delta_ij <beta - alpha_i,
alpha_i^v> b.  One pass of the elimination over the candidates, i descending
and b in basis order, keeps the first independent ones as the basis of the
degree and writes every other over the basis vectors before it.  That pass
gives the raising matrices of ad e_i, and since each basis vector is one
candidate, p = [b, e_i], it records that source (i, b) too.  The rank is the
graded dimension, found without the root multiplicity table and
cross-checked against it at every degree: a mismatch means a bug in one of
the two independent computations and is reported as InternalInconsistency
rather than papered over.  The elimination
is the package's one exact elimination, _Span in _linalg, fraction-free on
integers, so a Fraction appears only in the coordinates it returns.

The bracket of two positive basis vectors x and p = [b, e_i] needs no
elimination: [x, [b, e_i]] = [[e_i, x], b] - [e_i, [x, b]], where [e_i, x]
and [e_i, .] are raising matrices and both brackets with b have a second
argument one height lower.  Every degree this passes lies below the
degree of [x, p], so the recursion stays inside the window.

Degrees are built on first use: a bracket that needs one builds it after
every degree below it, so an algebra from truncated_on_demand costs only the
downward closure of the root spaces it is asked about.  A degree depends only
on the degrees below it, so the basis and the structure constants do not
depend on the order of the requests.  build_truncated builds every degree of
the window, in height order, before it returns.

The negative part is the mirror image (the generator swap e_i <-> f_i,
h -> -h, is an automorphism, with identical structure constants on the
positive and negative parts), so it reuses the positive data.  Mixed
brackets come from the invariant form (Kac, Infinite-dimensional Lie
algebras, Thm 2.2: every matrix validate_gcm accepts is symmetrizable).  It
pairs g_gamma with g_-gamma nondegenerately, and [x, y] = (x|y) nu^-1(gamma)
for x in g_gamma, y in g_-gamma, where nu^-1(alpha_i) = d_i h_i for the
symmetrizer d.  Per degree one Gram matrix G[k][l] = (p_k | mirror p_l) is
kept, scaled by L = lcm(d) so that (e_i | f_i) = L / d_i is an integer; it
follows from the degrees below by invariance,
(p | [f_i, z]) = ([p, f_i] | z) = (T_i p | z), with mirror [b, e_i] =
[mirror b, f_i] for the source (i, b) of each basis vector.

A mixed bracket is taken one homogeneous block at a time: each argument's
positive and negative terms are grouped by degree, and each pair of blocks,
x = sum_k a_k p_k at alpha = sum_i m_i alpha_i and n = sum_l b_l mirror p_l
at -beta, costs one of these, with gamma = alpha - beta:
  - beta = alpha_j, so n = b f_j: [x, n] = b T_j x, a read of the T-images
    the build recorded, with no form at all.  Every step of a transport
    (exp_ad with e_i or f_i) is this case or its mirror;
  - gamma = 0: with c = sum_k sum_l a_k b_l G_alpha[k][l] = L (x | n),
    [x, n] = c / L * sum_i m_i d_i h_i;
  - gamma > 0: [x, n] = sum_s c_s p_s, and pairing with the mirror of p_t
    gives c G_gamma = r, r_t = sum_l b_l <u, [p_l, p_t]> for the functional
    u = a G_alpha, where [p_l, p_t] lies at alpha, inside the window: one
    solve per block;
  - gamma < 0: the automorphism above maps [x, n] to -[mirror n, mirror x],
    a bracket with -gamma > 0;
  - otherwise gamma is not a root and [x, n] = 0.
No mixed bracket is memoized.  G_gamma is inverted only where a solve needs
it: the span of its rows is made through the elimination above on the first
solve at gamma, and that is where a degenerate form is caught.

Coefficients are integer-first, the convention of _rational in _linalg: a
coefficient is an int when it is integral and a Fraction only when it is not.
The generators, the basis vectors, cartan and scalar multiples are built that
way, and the elimination returns its coordinates that way, so integral
coefficients stay in int arithmetic.  A sum may still leave an integral
Fraction behind; it compares and hashes as the int.  No float ever appears:
a division always builds a Fraction.

The height bound is a window on g(A), not a quotient of it: a bracket of
two positive (or two negative) elements with a product above the bound raises
HeightOutOfRange naming that degree, as positive_basis does for a degree
outside the window.  Every product the window does hold is the one of g(A).
Mixed brackets never leave the window.  The square of a basis vector is zero
at any height, so it is never refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub

from ._linalg import _rational, _Span, _span_of
from .errors import (
    HeightOutOfRange,
    InternalInconsistency,
    NotRealRoot,
    ResourceCap,
    resolve_cap,
)
from .gcm import GCM, norm
from .lattice import RootVec, Value
from .roots import MultTable, _descent_step, coroot_coords, is_root, peterson_multiplicities

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
]

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


def _exact(x):
    # x as an int when it is integral, else as a Fraction.  A scalar is an int
    # or a Fraction: a bool is refused, and so is a float, which Fraction()
    # would read as its binary value (0.1 is not 1/10)
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        raise TypeError(f"a scalar must be an int or a Fraction, got {x!r}")
    return x.numerator if x.denominator == 1 else x


class AlgElement:
    """Sparse element: dict from basis key to coefficient, an int when it is
    integral and a Fraction when it is not (a sum may leave an integral
    Fraction, equal to the int).

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
        s = _exact(scalar)
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
        parts = {"h": {}, "p": {}, "n": {}}
        for k, v in self.terms.items():
            parts[k[0]][k] = v
        return parts["h"], parts["p"], parts["n"]

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
    # mult is the candidate rank, equal to the table's multiplicity.
    # lower[k][j] is T_j of the k-th basis vector as coordinates at
    # deg - alpha_j (at height one, T_i(e_i) = h_i, as coordinates {i: 1}
    # over the simple coroots, 0-based).  up[i][l] is [e_i, b_l] over the
    # basis, b_l the l-th basis vector at deg - alpha_i, and source[k] = (i, l)
    # says the k-th basis vector is the candidate [b_l, e_i]; both come with
    # the basis.  gram
    # is the scaled invariant form, filled by the first mixed bracket that
    # reads it, and gram_span the span of its rows, made by the first solve
    # at this degree (None until then).
    __slots__ = ("mult", "lower", "up", "source", "gram", "gram_span")

    def __init__(self):
        self.mult = 0
        self.lower = []
        self.up = {}
        self.source = []
        self.gram = None
        self.gram_span = None


def _minus(deg, i):
    return deg[:i] + (deg[i] - 1,) + deg[i + 1:]


def _plus(deg, i):
    return deg[:i] + (deg[i] + 1,) + deg[i + 1:]


def _flat(lower, n):
    # {j: coordinates} as one vector, column -(k * n + j): the elimination
    # pivots on least columns, and starting from the later basis vectors
    # below measurably keeps its rows sparser
    return {-(k * n + j): v for j, coords in lower.items() for k, v in coords.items()}


def _dot(coords, vec):
    return sum(v * vec[k] for k, v in coords.items())


def _blocks(terms):
    # {degree: {index: coefficient}} of a positive or a negative part
    out = {}
    for key, c in terms.items():
        out.setdefault(key[1], {})[key[2]] = c
    return out


def _add_scaled(acc, scale, terms):
    for k, v in terms.items():
        s = acc.get(k, 0) + scale * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# the algebra

class TruncatedAlgebra:
    def __init__(self, g: GCM, height: int, table: MultTable):
        self.gcm = g
        self.height = height
        self.table = table
        self.degrees: dict[tuple, _DegreeData] = {}
        self._pp_cache: dict = {}
        # positive real root -> [vector terms, companion terms or None]; plain
        # dicts, so that the memo holds no element referring back to self
        self._root_vectors: dict = {}
        self._form_unit = lcm(*g.symmetrizer)  # L, with (e_i | f_i) = L / d_i

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
                        self._degree(_minus(deg, i))
            data = self._build_degree(deg)
            self.degrees[deg] = data
        return data

    def _build_degree(self, deg):
        n = self.gcm.n
        data = _DegreeData()
        expected = self._mult(deg)
        if sum(deg) == 1:
            if expected != 1:
                raise InternalInconsistency(
                    "multiplicity table gives a simple root multiplicity other than one",
                    degree=list(deg),
                )
            i = deg.index(1)
            data.mult = 1
            data.lower = [{i: {i: 1}}]
            return data
        # [b_l, e_i] = [e_i, -b_l]: a basis vector when it is independent of
        # the candidates before it, else written over the basis so far
        span = _Span()
        for i in reversed(range(n)):
            if deg[i]:
                below = _minus(deg, i)
                up = data.up[i] = []
                for l in range(self._degree(below).mult):
                    t = self._candidate_tvec(i, below, l)
                    got = span.add(_flat(t, n))
                    if got is None:
                        got = {len(data.lower): 1}
                        data.lower.append(t)
                        data.source.append((i, l))
                    up.append({k: -v for k, v in got.items()})
        rank = len(data.lower)
        if rank != expected:
            raise InternalInconsistency(
                "candidate rank disagrees with the multiplicity table "
                f"at degree {list(deg)}: the brackets [e_i, b] span {rank}, "
                f"multiplicities demand {expected}",
                degree=list(deg),
                rank=rank,
                expected=expected,
            )
        data.mult = rank
        return data

    def _candidate_tvec(self, i, deg, l):
        # T-images of the candidate [b_l, e_i] = [e_i, -b_l], b_l the l-th
        # basis vector at deg:
        # T_j [e_i, y] = [e_i, T_j y] + delta_ij <deg, alpha_i^v> y
        out = {}
        for j, t in self.degrees[deg].lower[l].items():
            acc = out[j] = {}
            if sum(deg) == 1:
                # T_j e_j = h_j and [e_i, h_j] = -a_ji e_i
                _add_scaled(acc, self.gcm.entries[j][i], {0: 1})
                continue
            up = self._degree(_plus(_minus(deg, j), i)).up.get(i)
            if up:
                for m, v in t.items():
                    _add_scaled(acc, -v, up[m])
        w = self._pairing(i, deg)
        if w:
            _add_scaled(out.setdefault(i, {}), -w, {l: 1})
        return {j: t for j, t in out.items() if t}

    def _pairing(self, m, deg):
        # <deg, alpha_m^v>, m 0-based
        row = self.gcm.entries[m]
        return sum(row[t] * deg[t] for t in range(len(deg)))

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
        return AlgElement(self, {("h", i + 1): _exact(c) for i, c in enumerate(coords) if c})

    def h(self, i: int) -> AlgElement:
        return AlgElement(self, {("h", i): 1})

    def e(self, i: int) -> AlgElement:
        deg = tuple(1 if t == i - 1 else 0 for t in range(self.gcm.n))
        return AlgElement(self, {("p", deg, 0): 1})

    def f(self, i: int) -> AlgElement:
        deg = tuple(1 if t == i - 1 else 0 for t in range(self.gcm.n))
        return AlgElement(self, {("n", deg, 0): 1})

    def positive_basis(self, beta: RootVec) -> list[AlgElement]:
        deg = beta.coeffs
        if len(deg) != self.gcm.n or min(deg) < 0 or not 1 <= sum(deg) <= self.height:
            raise HeightOutOfRange(
                f"degree {list(deg)} is outside the truncation",
                height=beta.height,
                table_height=self.height,
            )
        return [AlgElement(self, {("p", deg, k): 1}) for k in range(self._mult(deg))]

    def negative_basis(self, beta: RootVec) -> list[AlgElement]:
        return [self._mirror_elt(x) for x in self.positive_basis(beta)]

    def _mirror_elt(self, x: AlgElement) -> AlgElement:
        out = {}
        for k, v in x.terms.items():
            if k[0] == "h":
                raise ValueError("mirror is only defined on pure positive or negative parts")
            out[("n" if k[0] == "p" else "p",) + k[1:]] = v
        return AlgElement(self, out)

    # -- brackets ------------------------------------------------------------

    def bracket(self, x: AlgElement, y: AlgElement) -> AlgElement:
        x._same(y)
        if x.alg is not self:
            raise ValueError("elements belong to a different algebra")
        acc: dict = {}
        xh, xp, xn = x.split()
        yh, yp, yn = y.split()
        # [h_i, v] = <deg, alpha_i^v> v for v at deg, minus that for v at
        # -deg, and [v, h] = -[h, v]
        for hs, ps, ns, sign in ((xh, yp, yn, 1), (yh, xp, xn, -1)):
            for hk, hc in hs.items():
                for vs, s in ((ps, sign), (ns, -sign)):
                    for vk, vc in vs.items():
                        val = self._pairing(hk[1] - 1, vk[1])
                        if val:
                            _add_scaled(acc, hc * vc, {vk: s * val})
        # [p, p] and [n, n]
        for kind, xs, ys in (("p", xp, yp), ("n", xn, yn)):
            for ak, ac in xs.items():
                for bk, bc in ys.items():
                    coords = self._pp(ak[1], ak[2], bk[1], bk[2])
                    if coords:
                        deg = tuple(a + b for a, b in zip(ak[1], bk[1]))
                        _add_scaled(acc, ac * bc, {(kind, deg, k): v for k, v in coords.items()})
        # [p, n] and [n, p] = -[p, n], one homogeneous block of each side at a time
        for ps, ns, sign in ((xp, yn, 1), (yp, xn, -1)):
            if ps and ns:
                nb = _blocks(ns)
                for da, a in _blocks(ps).items():
                    for db, b in nb.items():
                        _add_scaled(acc, sign, self._mixed(da, a, db, b))
        return AlgElement(self, acc)

    def _pp(self, da, k, db, l):
        # bracket of two positive basis vectors as coordinates at da + db; a
        # product above the window raises HeightOutOfRange (and is not
        # memoized), but the square of a basis vector is zero at any height
        key = (da, k, db, l)
        got = self._pp_cache.get(key)
        if got is not None:
            return got
        deg = tuple(a + b for a, b in zip(da, db))
        if da == db and k == l:
            res = {}
        elif sum(deg) > self.height:
            raise HeightOutOfRange(
                f"bracket at degree {list(deg)} is above the window of height {self.height}",
                degree=list(deg),
                height=sum(deg),
                table_height=self.height,
            )
        elif not self._mult(deg):
            res = {}
        elif sum(da) == 1:
            res = self._degree(deg).up[da.index(1)][l]
        elif sum(db) == 1:
            res = {c: -v for c, v in self._degree(deg).up[db.index(1)][k].items()}
        else:
            # p_l = [b_m, e_i] for its source (i, m), and [x, [b, e_i]] =
            # [[e_i, x], b] - [e_i, [x, b]], reading ad e_i from the raising
            # matrices at da + alpha_i and at deg: every degree in between
            # lies below deg, so none leaves the window
            top = self._degree(deg).up
            i, m = self._degree(db).source[l]
            dx, dy = _plus(da, i), _minus(db, i)
            res = {}
            if self._mult(dx):
                for s, v in self._degree(dx).up[i][k].items():
                    _add_scaled(res, v, self._pp(dx, s, dy, m))
            for t, v in self._pp(da, k, dy, m).items():
                _add_scaled(res, -v, top[i][t])
        self._pp_cache[key] = res
        self._pp_cache[(db, l, da, k)] = {c: -v for c, v in res.items()}
        return res

    def _gram(self, deg):
        """G[k][l] = L (p_k | mirror p_l) at deg.  With p_l = [b_j, e_i]
        from its source (i, j), mirror p_l = [f_i, -mirror b_j] and G[k][l] =
        -(T_i p_k | mirror b_j), a form on the degree below."""
        data = self._degree(deg)
        if data.gram is None:
            m = data.mult
            if sum(deg) == 1:
                gram = [[self._form_unit // self.gcm.symmetrizer[deg.index(1)]]]
            else:
                gram = [[0] * m for _ in range(m)]
                for l, (i, j) in enumerate(data.source):
                    # the form of each basis vector below with -mirror b_j
                    w = [-row[j] for row in self._gram(_minus(deg, i))]
                    for k in range(m):
                        t = data.lower[k].get(i)
                        if t:
                            gram[k][l] += _dot(t, w)
                gram = [[_rational(v, 1) for v in row] for row in gram]  # ints stay int
            data.gram = gram
        return data.gram

    def _gram_span(self, deg):
        """The span of the rows of G at deg, made on the first solve there;
        a rank below the multiplicity means the form is degenerate."""
        data = self._degree(deg)
        if data.gram_span is None:
            span, _ = _span_of([dict(enumerate(row)) for row in self._gram(deg)])
            if len(span) != data.mult:
                raise InternalInconsistency(
                    f"the invariant form is degenerate at degree {list(deg)}",
                    degree=list(deg),
                    rank=len(span),
                    expected=data.mult,
                )
            data.gram_span = span
        return data.gram_span

    def _mixed(self, da, a, db, b):
        # [x, n] for x = sum_k a[k] p_k at da and n = sum_l b[l] mirror p_l
        # at -db, by the cases of the module docstring; as {key: coefficient}
        if sum(db) == 1:
            # n = b[0] f_j and [x, f_j] = T_j x, as the build recorded it
            j = db.index(1)
            lower = self._degree(da).lower
            acc = {}
            for k, ak in a.items():
                t = lower[k].get(j)
                if t:
                    _add_scaled(acc, b[0] * ak, t)
            if sum(da) == 1:
                return {("h", s + 1): v for s, v in acc.items()}
            gam = _minus(da, j)
            return {("p", gam, s): v for s, v in acc.items()}
        gam = tuple(map(sub, da, db))
        if min(gam) < 0:
            if max(gam) > 0:
                return {}
            # the automorphism e_i <-> f_i, h -> -h maps [x, n] to
            # [mirror x, mirror n] = -[mirror n, mirror x]
            return {("n",) + key[1:]: -v for key, v in self._mixed(db, b, da, a).items()}
        if not any(gam):
            gram = self._gram(da)
            c = sum(ak * bl * gram[k][l] for k, ak in a.items() for l, bl in b.items())
            d = self.gcm.symmetrizer
            return {("h", i + 1): _rational(c * m * d[i], self._form_unit)
                    for i, m in enumerate(da) if m}
        dim = self._degree(gam).mult
        if not dim:
            return {}
        # pairing with the mirror of p_t: c G_gam = ((x | mirror [n', p_t]))_t
        # for n' = sum_l b[l] p_l, and (x | mirror z) = <u, z> for u = a G_da
        gram = self._gram(da)
        u = [sum(ak * gram[k][s] for k, ak in a.items()) for s in range(len(gram))]
        rhs = {}
        for t in range(dim):
            r = 0
            for l, bl in b.items():
                r += bl * _dot(self._pp(db, l, gam, t), u)
            rhs[t] = r
        return {("p", gam, s): v for s, v in self._gram_span(gam).solve(rhs).items()}


# ---------------------------------------------------------------------------
# construction entry point

def build_truncated(g: GCM, height: int, mode: str = "strict",
                    cap: int | None = None) -> TruncatedAlgebra:
    """Build the truncation at the given height bound, every degree of the
    window included.

    Each degree is one elimination pass over its candidates [b, e_i], and
    its rank is cross-checked against the multiplicity table.  mode is
    "strict" or "fast"; both select the same construction.  The estimated
    dimension of the window must stay within the cap (resolve_cap).
    """
    alg = truncated_on_demand(g, height, mode, cap)
    for deg in _window(g.n, height):
        alg._degree(deg)
    return alg


def _window(n: int, height: int):
    # every degree of the window (nonnegative, height 1..height) by height
    level = [(0,) * n]
    for _ in range(height):
        level = sorted({_plus(d, i) for d in level for i in range(n)})
        yield from level


def truncated_on_demand(g: GCM, height: int, mode: str = "strict",
                        cap: int | None = None) -> TruncatedAlgebra:
    """The truncation of build_truncated, with the same arguments and checks,
    but each degree is built the first time a bracket needs it (together
    with every degree below it).  Basis and structure constants
    are the same whatever order the degrees are requested in."""
    if mode not in ("strict", "fast"):
        raise ValueError(f"mode must be 'strict' or 'fast', got {mode!r}")
    if height < 1:
        raise ValueError(f"height bound must be >= 1, got {height}")
    cap = resolve_cap(cap)
    alg = TruncatedAlgebra(g, height, peterson_multiplicities(g, height))
    if alg.dim > cap:
        raise ResourceCap(
            f"estimated dimension {alg.dim} exceeds the cap {cap}",
            estimated=alg.dim,
            cap=cap,
        )
    return alg


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
    uniformly).  If a term of the series leaves the height window before the
    series provably terminates, HeightOutOfRange is raised.  t is an int or a
    Fraction.
    """
    t = _exact(t)
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
        nxt = alg.bracket(x, term)
        if nxt.is_zero():
            return out
        term = (_rational(t, k) if type(t) is int else t / k) * nxt
        out = out + term
        k += 1
        if k > limit:
            raise InternalInconsistency(
                "adjoint series failed to terminate within the degree window"
            )


class NilpotencyResult(Value):
    """Outcome of one probe: the least N with ad(e)^N(probe) = 0, or None if
    the question could not be settled inside the truncation (reason "window":
    a bracket left the height window; reason "max_n": the step budget ran out
    with the iterate still nonzero)."""

    __slots__ = ("probe", "degree", "reason")

    def __init__(self, probe: int, degree: int | None, reason: str | None = None):
        self._init(probe, degree, reason)

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
            try:
                cur = alg.bracket(e, cur)
            except HeightOutOfRange:
                verdict = NilpotencyResult(idx, None, "window")
                break
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
    reflection operators following a greedy height descent.  Every root the
    descent passes is memoized on the algebra with its vector, and a later
    descent stops at the first memoized root: its greedy chain is a suffix
    of the current one, so the vector is the same as a fresh transport's.
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
    memo = alg._root_vectors
    cur = beta.coeffs
    chain = []  # (letter, root before the reflection down)
    while cur not in memo and sum(cur) > 1:
        step = _descent_step(g, cur)  # the step of roots.descend
        if step is None:
            raise InternalInconsistency(
                "height descent stalled on a positive real root",
                beta=list(cur),
            )
        chain.append((step[0], cur))
        cur = step[1]
    if cur in memo:
        vec = AlgElement(alg, memo[cur][0])
    else:
        vec = alg.e(cur.index(1) + 1)
        memo[cur] = [vec.terms, None]
    try:
        for i, root in reversed(chain):
            vec = simple_reflection(alg, i, vec)
            bad = [k for k in vec.terms if not (k[0] == "p" and k[1] == root)]
            if bad or vec.is_zero():
                raise InternalInconsistency(
                    "transported vector did not land in the expected root space",
                    beta=list(beta.coeffs),
                )
            memo[root] = [vec.terms, None]
    except HeightOutOfRange as exc:
        raise HeightOutOfRange(
            "transport to the root needs a taller truncation "
            f"(bound {alg.height} is not enough for {list(beta.coeffs)})",
            beta=list(beta.coeffs),
            height=beta.height,
            table_height=alg.height,
            degree=exc.context["degree"],
        ) from exc
    entry = memo[beta.coeffs]
    if entry[1] is None:
        entry[1] = companion_vector(alg, beta, vec).terms
    return AlgElement(alg, entry[0]), AlgElement(alg, entry[1])


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
        if target[i]:
            lam = _rational(br.terms.get(("h", i + 1), 0), target[i])
            break
    if lam is None or lam == 0:
        raise InternalInconsistency(
            "pairing of the root vector with its mirror vanished",
            beta=list(beta.coeffs),
        )
    for i in range(g.n):
        if br.terms.get(("h", i + 1), 0) != lam * target[i]:
            raise InternalInconsistency(
                "bracket with the mirrored vector is not proportional to the coroot",
                beta=list(beta.coeffs),
            )
    return _rational(1, lam) * comp
