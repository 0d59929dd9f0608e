"""Closed forms for the rank-2 hyperbolic case.

The off-diagonal product ab >= 5 puts the matrix on the indefinite side of
rank 2, where the real roots organize into four explicit families whose
coefficients obey coupled linear recursions.  Everything here is exact
integer arithmetic on those recursions, plus the complete classifier for a
graded slice of an inversion set and the conjugation repair that extends the
two exceptional slice configurations into honest triples.

Orientation: formulas are written for a >= b (a the entry below the diagonal,
negated).  Inputs with a < b are handled by swapping the two indices, and the
answer is swapped back, so every public function accepts either orientation.

Only the exceptional repair realizes anything; it imports ``realize`` and
``sl2`` itself, so the closed forms and the classifier run without them.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, pairwise
from typing import TYPE_CHECKING

from .errors import InternalInconsistency, NotHyperbolic, ZeroElement
from .gcm import GCM, validate_gcm
from .grading import check_finite_grading, phi_w_d
from .lattice import Coweight, RootVec, Value, WeylWord
from .pisystem import make_pi_system
from .weyl import reflect

if TYPE_CHECKING:
    from .realize import TruncatedAlgebra
    from .sl2 import RealizedTriple

__all__ = [
    "Rank2Label",
    "IntersectionVerdict",
    "InterleavingReport",
    "ab_of",
    "b_seq",
    "gamma_eta",
    "family_root",
    "defining_word",
    "check_interleavings",
    "classify_intersection",
    "build_exceptional_triple",
]

_FAMILIES = ("LL", "LU", "SU", "SL")


class Rank2Label(Value):
    """One of the four real-root families (LL, LU, SU, SL) at index j >= 0."""

    __slots__ = ("family", "j")

    def __init__(self, family: str, j: int):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected one of {_FAMILIES}")
        if j < 0:
            raise ValueError("family index must be nonnegative")
        self._init(family, j)


class IntersectionVerdict(Value):
    """Classification of a graded slice of an inversion set.

    kind is one of "Empty", "Single", "ExceptionalI", "ExceptionalII"; roots
    holds the slice sorted by height (empty, one, or the exceptional pair).
    swapped records that the exceptional pattern matched after the index swap
    1 <-> 2 (i.e. the matrix had a < b)."""

    __slots__ = ("kind", "roots", "swapped")

    def __init__(self, kind: str, roots: tuple[RootVec, ...], swapped: bool = False):
        self._init(kind, roots, swapped)

    @property
    def root(self) -> RootVec:
        if self.kind != "Single":
            raise ValueError(f"verdict {self.kind} does not carry a single root")
        return self.roots[0]

    @property
    def exceptional(self) -> bool:
        return self.kind in ("ExceptionalI", "ExceptionalII")


def ab_of(g: GCM) -> tuple[int, int]:
    """The pair (a, b) with a = -A_21 and b = -A_12, after the rank-2 check."""
    if g.n != 2:
        raise NotHyperbolic(f"matrix has rank {g.n}, the closed forms need rank 2", rank=g.n)
    a, b = -g.entries[1][0], -g.entries[0][1]
    if a * b < 5:
        raise NotHyperbolic(
            f"matrix is not hyperbolic: off-diagonal product {a * b} < 5", product=a * b
        )
    return a, b


def _swap_gcm(g: GCM) -> GCM:
    return validate_gcm([[2, g.entries[1][0]], [g.entries[0][1], 2]])


def _b_terms(a: int) -> Iterator[int]:
    # b_0, b_1, ... with no end; the input is checked at the call
    if a < 3:
        raise ValueError(f"the symmetric family needs a >= 3 (a^2 >= 5), got a = {a}")

    def terms():
        prev, cur = 0, 1
        while True:
            yield prev
            prev, cur = cur, a * cur - prev

    return terms()


def _gamma_eta_terms(a: int, b: int) -> Iterator[tuple[int, int]]:
    # (gamma_j, eta_j) for j = 0, 1, ... with no end; the input is checked
    # at the call
    if a * b < 5:
        raise ValueError(f"need ab >= 5, got ab = {a * b}")
    if a < 1 or b < 1:
        raise ValueError(f"need a, b >= 1, got (a, b) = ({a}, {b})")

    def terms():
        gam, eta = 0, 1
        while True:
            yield gam, eta
            gam = eta - gam
            eta = a * b * gam - eta

    return terms()


def b_seq(a: int, n: int) -> int:
    """n-th term of b_0 = 0, b_1 = 1, b_n = a*b_{n-1} - b_{n-2} (symmetric case)."""
    terms = _b_terms(a)
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    return next(islice(terms, n, None))


def gamma_eta(a: int, b: int, j: int) -> tuple[int, int]:
    """(gamma_j, eta_j) from gamma_0 = 0, eta_0 = 1 and the coupled steps
    gamma_j = eta_{j-1} - gamma_{j-1}, eta_j = ab*gamma_j - eta_{j-1}.

    The closed one-sequence recurrence X_j = (ab-2)X_{j-1} - X_{j-2} is a
    consequence and is tested as a property, never used to compute.
    """
    terms = _gamma_eta_terms(a, b)
    if j < 0:
        raise ValueError("sequence index must be nonnegative")
    return next(islice(terms, j, None))


def _b_seq_list(a: int, count: int) -> list[int]:
    # b_0..b_{count-1}
    return list(islice(_b_terms(a), count))


def _gamma_eta_lists(a: int, b: int, count: int) -> tuple[list[int], list[int]]:
    # gamma_0..gamma_count and eta_0..eta_count
    terms = list(islice(_gamma_eta_terms(a, b), count + 1))
    return [gam for gam, _ in terms], [eta for _, eta in terms]


def family_root(g: GCM, label: Rank2Label) -> RootVec:
    """Coefficient vector of the labelled family member.

    For a >= b: LL_j = eta_j*a1 + a*gamma_j*a2, LU_j = eta_j*a1 + a*gamma_{j+1}*a2,
    SU_j = b*gamma_j*a1 + eta_j*a2, SL_j = b*gamma_{j+1}*a1 + eta_j*a2.
    """
    return _family_root_lists(g, 1, label.j)[label.family][0]


def _member(family: str, a: int, b: int, gj: int, gj1: int, ej: int) -> RootVec:
    # the formulas of family_root (a >= b) from gamma_j, gamma_{j+1}, eta_j
    if family == "LL":
        return RootVec((ej, a * gj))
    if family == "LU":
        return RootVec((ej, a * gj1))
    if family == "SU":
        return RootVec((b * gj, ej))
    return RootVec((b * gj1, ej))  # SL


def _family_root_lists(g: GCM, count: int, j: int = 0) -> dict[str, list[RootVec]]:
    # family_root at j..j+count-1, per family, from one pass of the sequences
    a, b = ab_of(g)
    if a < b:
        swapped = _family_root_lists(_swap_gcm(g), count, j)
        return {fam: [RootVec((r.coeffs[1], r.coeffs[0])) for r in roots]
                for fam, roots in swapped.items()}
    terms = list(islice(_gamma_eta_terms(a, b), j, j + count + 1))
    return {fam: [_member(fam, a, b, gj, gj1, ej) for (gj, ej), (gj1, _) in pairwise(terms)]
            for fam in _FAMILIES}


def defining_word(g: GCM, label: Rank2Label) -> tuple[WeylWord, int]:
    """The reflection word and simple-root index that generate the member:
    LL_j = (s1 s2)^j a1, SL_j = (s1 s2)^j s1 a2, SU_j = (s2 s1)^j a2,
    LU_j = (s2 s1)^j s2 a1 (indices swapped when a < b)."""
    a, b = ab_of(g)
    if a < b:
        word, base = defining_word(_swap_gcm(g), label)
        return WeylWord(tuple(3 - i for i in word.letters)), 3 - base
    j = label.j
    if label.family == "LL":
        letters, base = (1, 2) * j, 1
    elif label.family == "SL":
        letters, base = (1, 2) * j + (1,), 2
    elif label.family == "SU":
        letters, base = (2, 1) * j, 2
    else:  # LU
        letters, base = (2, 1) * j + (2,), 1
    return WeylWord(letters), base


# ---------------------------------------------------------------------------
# interleaving inequalities

class InterleavingReport(Value):
    """Outcome of the exact chain checks up to index J.

    case "a" (a > b > 1) verifies four chains: both sequences strictly
    increasing up to index J, and eta interleaved with s*gamma for s = b, a as
    0 = s*gamma_0 < eta_0 < s*gamma_1 < eta_1 < ... < s*gamma_J < eta_J.  case
    "b" (a > b = 1) verifies the two monotone chains plus the shifted chain
    0 = gamma_0 < eta_0 = gamma_1 < gamma_2 < eta_1 < gamma_3 < ... < eta_J < gamma_{J+2}
    and the chain 0 < eta_0 < eta_1 < a*gamma_1 < eta_2 < ... < a*gamma_J < eta_{J+1}.
    first_violation names the first break, in chain order.
    """

    __slots__ = ("a", "b", "J", "case", "chains", "ok", "first_violation")

    def __init__(self, a: int, b: int, J: int, case: str, chains: tuple[str, ...],
                 ok: bool, first_violation: str | None = None):
        self._init(a, b, J, case, chains, ok, first_violation)


def check_interleavings(a: int, b: int, J: int) -> InterleavingReport:
    terms = _gamma_eta_terms(a, b)
    if not a > b:
        raise ValueError("orientation a > b required; swap the arguments by symmetry")
    if J < 2:
        raise ValueError("J must be at least 2")
    gam, eta = zip(*islice(terms, J + 3))
    G = [(f"gamma_{j}", x) for j, x in enumerate(gam)]
    E = [(f"eta_{j}", x) for j, x in enumerate(eta)]

    def scaled(s):
        return [(f"{s}*gamma_{j}", s * x) for j, x in enumerate(gam)]

    zero = ("0", 0)
    chains = {"gamma_monotone": G[:J + 1], "eta_monotone": E[:J + 1]}
    if b > 1:
        case = "a"
        chains["b_gamma_interleave"] = [zero, "=", *_interleave(scaled(b)[:J + 1], E[:J + 1])]
        chains["a_gamma_interleave"] = [zero, "=", *_interleave(scaled(a)[:J + 1], E[:J + 1])]
    else:
        case = "b"
        chains["gamma_eta_shifted"] = [
            zero, "=", G[0], E[0], "=", G[1], *_interleave(G[2:J + 3], E[1:J + 1])
        ]
        chains["a_gamma_interleave"] = [zero, E[0], *_interleave(E[1:J + 2], scaled(a)[1:J + 1])]
    for name, chain in chains.items():
        broken = _first_break(chain)
        if broken:
            return InterleavingReport(a, b, J, case, tuple(chains), False, f"{name}: {broken}")
    return InterleavingReport(a, b, J, case, tuple(chains), True)


def _interleave(xs: list, ys: list) -> list:
    # xs[0], ys[0], xs[1], ys[1], ...; xs has as many items as ys, or one more
    out = [None] * (len(xs) + len(ys))
    out[::2], out[1::2] = xs, ys
    return out


def _first_break(chain: list) -> str | None:
    # the first neighbour pair of (label, value) terms that does not strictly
    # increase, or is not equal across an "=" between them
    prev, equal = chain[0], False
    for term in chain[1:]:
        if term == "=":
            equal = True
        elif prev[1] == term[1] if equal else prev[1] < term[1]:
            prev, equal = term, False
        else:
            return f"{_shown(*prev)} {'!=' if equal else '!<'} {_shown(*term)}"
    return None


def _shown(label: str, value: int) -> str:
    # str(int) refuses a term past the interpreter's digit limit (3.11+)
    try:
        text = str(value)
    except ValueError:
        return f"{label} ({value.bit_length()} bits)"
    return text if text == label else f"{label} = {text}"


# ---------------------------------------------------------------------------
# the slice classifier

def classify_intersection(g: GCM, w: WeylWord, tau: Coweight, d: int) -> IntersectionVerdict:
    """Classify the degree-d slice of the inversion set of w.

    Size 0 -> Empty, size 1 -> Single.  A 2-element slice must be one of the
    two exceptional patterns (up to the index swap when a < b); anything else
    is an InternalInconsistency, because a third configuration would
    contradict the classification theorem this implements.
    """
    a, b = ab_of(g)
    if d < 1:
        raise ValueError("the graded degree d must be >= 1")
    if not check_finite_grading(g, tau):
        raise ValueError("the coweight does not induce a finite grading")
    roots = phi_w_d(g, w, tau, d)
    if not roots:
        return IntersectionVerdict("Empty", ())
    if len(roots) == 1:
        return IntersectionVerdict("Single", (roots[0],))
    pair = tuple(sorted(roots))
    coeffs = {r.coeffs for r in pair}
    letters = w.letters
    if len(roots) == 2:
        if b == 1:
            if letters[0] == 1 and len(letters) >= 2 and coeffs == {(1, 0), (1, 1)}:
                return IntersectionVerdict("ExceptionalI", pair)
            if letters[0] == 2 and len(letters) >= 3 and coeffs == {(1, a - 1), (1, a)}:
                return IntersectionVerdict("ExceptionalII", pair)
        if a == 1:
            if letters[0] == 2 and len(letters) >= 2 and coeffs == {(0, 1), (1, 1)}:
                return IntersectionVerdict("ExceptionalI", pair, swapped=True)
            if letters[0] == 1 and len(letters) >= 3 and coeffs == {(b - 1, 1), (b, 1)}:
                return IntersectionVerdict("ExceptionalII", pair, swapped=True)
    raise InternalInconsistency(
        "graded slice fell outside the classified configurations",
        word=list(letters),
        tau=list(tau.values),
        d=d,
        slice=[list(r.coeffs) for r in roots],
    )


# ---------------------------------------------------------------------------
# the exceptional repair

def _space_ratio(u, v) -> Fraction:
    # u = r*v inside one root space of multiplicity one; anything else is a bug
    if u.is_zero() or v.is_zero():
        raise InternalInconsistency("reflection image of a root vector vanished")
    key = next(iter(v.terms))
    if key not in u.terms:
        raise InternalInconsistency("reflection image missed the expected root space")
    r = Fraction(u.terms[key], v.terms[key])  # two ints would divide to a float
    if u != r * v:
        raise InternalInconsistency("vectors in a 1-dimensional root space are not proportional")
    return r


def _singleton_triple(alg: TruncatedAlgebra, beta: RootVec, c: Fraction) -> RealizedTriple:
    # the standard triple on the one-member pi-system {beta}, scaled by c
    from .sl2 import build_triple, realize_triple

    sigma = make_pi_system(alg.gcm, [beta])
    return realize_triple(build_triple(sigma, (c,)), alg)


def _conjugated_triple(alg, beta, adj, x, y) -> RealizedTriple:
    # standard triple for x*e_beta, conjugated by exp((y/x) ad e_adj)
    from .realize import exp_ad
    from .sl2 import RealizedTriple

    base = _singleton_triple(alg, beta, x)
    t = y / x
    conj = alg.e(adj)
    return RealizedTriple(
        e=exp_ad(alg, conj, base.e, t),
        h=exp_ad(alg, conj, base.h, t),
        f=exp_ad(alg, conj, base.f, t),
    )


def build_exceptional_triple(g: GCM, verdict: IntersectionVerdict, x, y,
                             alg: TruncatedAlgebra) -> RealizedTriple:
    """Extend x*e_lower + y*e_upper to a realized triple, for an exceptional
    slice {lower, upper} (upper = lower + the adjusting simple root, whose
    root vector is normalized as e_upper = [e_adj, e_lower]).

    Case II conjugates the standard triple of the lower root by
    exp((y/x) ad e_adj); the series terminates exactly because one more step
    leaves the root lattice.  Case I rides the reflection operator into the
    case II configuration, builds there, and rides back.  Either coefficient
    may be zero (not both), collapsing to a plain real-root triple.  Each is
    an int or a Fraction; anything else raises TypeError.
    """
    from .realize import _exact, real_root_vector, simple_reflection
    from .sl2 import RealizedTriple

    a, b = ab_of(g)
    if g != alg.gcm:
        raise ValueError("the algebra was built for a different matrix")
    if not verdict.exceptional:
        raise ValueError(f"verdict {verdict.kind} does not need the exceptional repair")
    x = Fraction(_exact(x))
    y = Fraction(_exact(y))
    if x == 0 and y == 0:
        raise ZeroElement("x = y = 0 does not give a nilpotent to extend")
    lower, upper = sorted(verdict.roots)
    adj = 1 if verdict.swapped else 2
    if y == 0:
        return _singleton_triple(alg, lower, x)
    if x == 0:
        return _singleton_triple(alg, upper, y)
    if verdict.kind == "ExceptionalII":
        return _conjugated_triple(alg, lower, adj, x, y)
    # Case I: the reflection at the adjusting index carries the pair
    # {lower, upper} onto case II's pair {s(upper), s(lower)} -- note the
    # height order flips -- so express the reflected element in case II's
    # normalization, build there, and pull back through the inverse operator.
    low_gen = alg.e(2 if verdict.swapped else 1)
    up_vec = alg.bracket(alg.e(adj), low_gen)
    lower2 = reflect(g, adj, upper)
    upper2 = reflect(g, adj, lower)
    if lower2.height >= upper2.height:
        raise InternalInconsistency("reflected exceptional pair is not height-ordered")
    base2, _ = real_root_vector(alg, lower2)
    up2 = alg.bracket(alg.e(adj), base2)
    q = _space_ratio(simple_reflection(alg, adj, low_gen), up2)
    p = _space_ratio(simple_reflection(alg, adj, up_vec), base2)
    t2 = _conjugated_triple(alg, lower2, adj, y * p, x * q)
    return RealizedTriple(
        e=simple_reflection(alg, adj, t2.e, inverse=True),
        h=simple_reflection(alg, adj, t2.h, inverse=True),
        f=simple_reflection(alg, adj, t2.f, inverse=True),
    )
