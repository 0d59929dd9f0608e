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

from fractions import Fraction
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


def _require_rank2_hyperbolic(g: GCM):
    if g.n != 2:
        raise NotHyperbolic(f"matrix has rank {g.n}, the closed forms need rank 2", rank=g.n)
    product = g.entries[0][1] * g.entries[1][0]
    if product < 5:
        raise NotHyperbolic(
            f"matrix is not hyperbolic: off-diagonal product {product} < 5", product=product
        )


def ab_of(g: GCM) -> tuple[int, int]:
    """The pair (a, b) with a = -A_21 and b = -A_12, after the rank-2 check."""
    _require_rank2_hyperbolic(g)
    return -g.entries[1][0], -g.entries[0][1]


def _swap_gcm(g: GCM) -> GCM:
    return validate_gcm([[2, g.entries[1][0]], [g.entries[0][1], 2]])


def b_seq(a: int, n: int) -> int:
    """n-th term of b_0 = 0, b_1 = 1, b_n = a*b_{n-1} - b_{n-2} (symmetric case)."""
    if a < 3:
        raise ValueError(f"the symmetric family needs a >= 3 (a^2 >= 5), got a = {a}")
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    prev, cur = 0, 1
    if n == 0:
        return 0
    for _ in range(n - 1):
        prev, cur = cur, a * cur - prev
    return cur


def gamma_eta(a: int, b: int, j: int) -> tuple[int, int]:
    """(gamma_j, eta_j) from gamma_0 = 0, eta_0 = 1 and the coupled steps
    gamma_j = eta_{j-1} - gamma_{j-1}, eta_j = ab*gamma_j - eta_{j-1}.

    The closed one-sequence recurrence X_j = (ab-2)X_{j-1} - X_{j-2} is a
    consequence and is tested as a property, never used to compute.
    """
    if a * b < 5:
        raise ValueError(f"need ab >= 5, got ab = {a * b}")
    if j < 0:
        raise ValueError("sequence index must be nonnegative")
    gam, eta = 0, 1
    for _ in range(j):
        gam, eta = eta - gam, a * b * (eta - gam) - eta
    return gam, eta


def _b_seq_list(a: int, count: int) -> list[int]:
    # b_0..b_{count-1} in one pass
    if a < 3:
        raise ValueError(f"the symmetric family needs a >= 3 (a^2 >= 5), got a = {a}")
    out = [0, 1][:count]
    while len(out) < count:
        out.append(a * out[-1] - out[-2])
    return out


def _gamma_eta_lists(a: int, b: int, count: int) -> tuple[list[int], list[int]]:
    # gamma_0..gamma_count and eta_0..eta_count in one pass
    if a * b < 5:
        raise ValueError(f"need ab >= 5, got ab = {a * b}")
    gams, etas = [0], [1]
    for _ in range(count):
        gams.append(etas[-1] - gams[-1])
        etas.append(a * b * gams[-1] - etas[-1])
    return gams, etas


def family_root(g: GCM, label: Rank2Label) -> RootVec:
    """Coefficient vector of the labelled family member.

    For a >= b: LL_j = eta_j*a1 + a*gamma_j*a2, LU_j = eta_j*a1 + a*gamma_{j+1}*a2,
    SU_j = b*gamma_j*a1 + eta_j*a2, SL_j = b*gamma_{j+1}*a1 + eta_j*a2.
    """
    a, b = ab_of(g)
    if a < b:
        sw = family_root(_swap_gcm(g), label)
        return RootVec((sw.coeffs[1], sw.coeffs[0]))
    gj, ej = gamma_eta(a, b, label.j)
    gj1, _ = gamma_eta(a, b, label.j + 1)
    return _member(label.family, a, b, gj, gj1, ej)


def _member(family: str, a: int, b: int, gj: int, gj1: int, ej: int) -> RootVec:
    # the formulas of family_root (a >= b) from gamma_j, gamma_{j+1}, eta_j
    if family == "LL":
        return RootVec((ej, a * gj))
    if family == "LU":
        return RootVec((ej, a * gj1))
    if family == "SU":
        return RootVec((b * gj, ej))
    return RootVec((b * gj1, ej))  # SL


def _family_root_lists(g: GCM, count: int) -> dict[str, list[RootVec]]:
    # family_root at j = 0..count-1, per family, from one pass of the
    # sequences
    a, b = ab_of(g)
    if a < b:
        swapped = _family_root_lists(_swap_gcm(g), count)
        return {fam: [RootVec((r.coeffs[1], r.coeffs[0])) for r in roots]
                for fam, roots in swapped.items()}
    gams, etas = _gamma_eta_lists(a, b, count)
    return {fam: [_member(fam, a, b, gams[j], gams[j + 1], etas[j]) for j in range(count)]
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
    increasing, and eta interleaved with b*gamma and with a*gamma.  case "b"
    (a > b = 1) verifies the two monotone chains plus the shifted chain
    0 = gamma_0 < eta_0 = gamma_1 < gamma_2 < eta_1 < gamma_3 < ... (with the
    equality) and the chain 0 < eta_0 < eta_1 < a*gamma_1 < eta_2 < a*gamma_2 < ...
    """

    __slots__ = ("a", "b", "J", "case", "chains", "ok", "first_violation")

    def __init__(self, a: int, b: int, J: int, case: str, chains: tuple[str, ...],
                 ok: bool, first_violation: str | None = None):
        self._init(a, b, J, case, chains, ok, first_violation)


def check_interleavings(a: int, b: int, J: int) -> InterleavingReport:
    if a * b < 5:
        raise ValueError(f"ab = {a * b} is below the hyperbolic range (need ab >= 5)")
    if not a > b:
        raise ValueError("orientation a > b required; swap the arguments by symmetry")
    if J < 2:
        raise ValueError("J must be at least 2")
    gam, eta = _gamma_eta_lists(a, b, J + 2)
    case = "b" if b == 1 else "a"
    checks: list[tuple[str, bool, str]] = []

    for j in range(J):
        checks.append((
            "gamma_monotone", gam[j] < gam[j + 1],
            f"gamma_{j} = {gam[j]} !< gamma_{j + 1} = {gam[j + 1]}",
        ))
        checks.append((
            "eta_monotone", eta[j] < eta[j + 1],
            f"eta_{j} = {eta[j]} !< eta_{j + 1} = {eta[j + 1]}",
        ))

    if case == "a":
        for scale, name in ((b, "b_gamma_interleave"), (a, "a_gamma_interleave")):
            checks.append((name, scale * gam[0] == 0, f"{scale}*gamma_0 != 0"))
            for j in range(J + 1):
                checks.append((
                    name, scale * gam[j] < eta[j],
                    f"{scale}*gamma_{j} = {scale * gam[j]} !< eta_{j} = {eta[j]}",
                ))
                if j <= J - 1:
                    checks.append((
                        name, eta[j] < scale * gam[j + 1],
                        f"eta_{j} = {eta[j]} !< {scale}*gamma_{j + 1} = {scale * gam[j + 1]}",
                    ))
        chains = ("gamma_monotone", "eta_monotone", "b_gamma_interleave", "a_gamma_interleave")
    else:
        name = "gamma_eta_shifted"
        checks.append((name, gam[0] == 0, "gamma_0 != 0"))
        checks.append((name, 0 < eta[0], "eta_0 is not positive"))
        checks.append((name, eta[0] == gam[1], f"eta_0 = {eta[0]} != gamma_1 = {gam[1]}"))
        for j in range(1, J + 1):
            checks.append((
                name, gam[j + 1] < eta[j],
                f"gamma_{j + 1} = {gam[j + 1]} !< eta_{j} = {eta[j]}",
            ))
            checks.append((
                name, eta[j] < gam[j + 2],
                f"eta_{j} = {eta[j]} !< gamma_{j + 2} = {gam[j + 2]}",
            ))
        name = "a_gamma_interleave"
        checks.append((name, 0 < eta[0], "eta_0 is not positive"))
        checks.append((name, eta[0] < eta[1], f"eta_0 = {eta[0]} !< eta_1 = {eta[1]}"))
        for j in range(1, J + 1):
            checks.append((
                name, eta[j] < a * gam[j],
                f"eta_{j} = {eta[j]} !< a*gamma_{j} = {a * gam[j]}",
            ))
            checks.append((
                name, a * gam[j] < eta[j + 1],
                f"a*gamma_{j} = {a * gam[j]} !< eta_{j + 1} = {eta[j + 1]}",
            ))
        chains = ("gamma_monotone", "eta_monotone", "gamma_eta_shifted", "a_gamma_interleave")

    for name, good, msg in checks:
        if not good:
            return InterleavingReport(a, b, J, case, chains, False, f"{name}: {msg}")
    return InterleavingReport(a, b, J, case, chains, True)


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
