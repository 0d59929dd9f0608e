"""Building the distinguished triple over a pi-system.

Writing h = sum mu_k beta_k^vee and asking every member to pair to 2 against
h turns the defining conditions into the linear system B^T mu = (2,...,2)
over the induced matrix; the triple is then e = sum c_k e_k, f = sum
(mu_k / c_k) f_k for any nonzero weights c_k, since cross brackets between
distinct members vanish (their difference is not a root).  Verification
comes in two flavors: a symbolic check on root data alone, and a realized
check inside a truncated algebra, where each member's root vector comes from
reflection-operator transport, or, for a member whose transport leaves the
window, straight from the graded basis of its root space.
"""

from __future__ import annotations

from ._linalg import _rational, _span_of
from .errors import HeightOutOfRange, SingularB, ZeroElement
from .lattice import Value
from .pisystem import PiSystem
from .realize import (
    AlgElement,
    TruncatedAlgebra,
    _exact,
    companion_vector,
    real_root_vector,
)
from .roots import coroot_coords

__all__ = [
    "SL2Triple",
    "RealizedTriple",
    "solve_mu",
    "build_triple",
    "verify_symbolic",
    "realize_triple",
    "verify_triple_elements",
    "verify_realized",
]


def solve_mu(b_entries) -> tuple:
    """Solve B^T mu = (2, ..., 2), that is sum_k mu_k B[k] = (2, ..., 2) over
    the rows of B, each mu_k an int when it is integral, else a Fraction;
    raises SingularB when B is singular."""
    m = len(b_entries)
    span, _ = _span_of([dict(enumerate(row)) for row in b_entries])
    if len(span) < m:
        raise SingularB(
            "the induced matrix is singular, no grading element exists",
            b=[list(r) for r in b_entries],
        )
    mu = span.solve(dict.fromkeys(range(m), 2))
    return tuple(_exact(mu.get(k, 0)) for k in range(m))


class SL2Triple(Value):
    __slots__ = ("sigma", "coeffs", "mu", "h_coords")

    # every entry is an int when it is integral, else a Fraction
    def __init__(self, sigma: PiSystem, coeffs: tuple, mu: tuple, h_coords: tuple):
        self._init(sigma, coeffs, mu, h_coords)  # h_coords: over the simple coroots

    @property
    def f_coeffs(self) -> tuple:
        return tuple(_rational(m, c) for m, c in zip(self.mu, self.coeffs))


class RealizedTriple(Value):
    __slots__ = ("e", "h", "f")

    def __init__(self, e: AlgElement, h: AlgElement, f: AlgElement):
        self._init(e, h, f)


def build_triple(sigma: PiSystem, coeffs=None) -> SL2Triple:
    # the weights are ints or Fractions (all 1 when not given)
    m = sigma.size
    if coeffs is None:
        cs = (1,) * m
    else:
        cs = tuple(_exact(c) for c in coeffs)
        if len(cs) != m:
            raise ValueError(f"need {m} weights, got {len(cs)}")
        for k, c in enumerate(cs):
            if c == 0:
                raise ZeroElement(
                    f"weight {k + 1} is zero; every member must appear in e",
                    index=k + 1,
                )
    mu = solve_mu(sigma.b_matrix)
    g = sigma.gcm
    h = [0] * g.n
    for k, b in enumerate(sigma.roots):
        cc = coroot_coords(g, b)
        for i in range(g.n):
            h[i] += mu[k] * cc[i]
    return SL2Triple(sigma=sigma, coeffs=cs, mu=mu, h_coords=tuple(map(_exact, h)))


def verify_symbolic(triple: SL2Triple) -> bool:
    """Check the triple relations on root data alone: every member must pair
    to 2 against h, and h must agree with the mu-weighted coroot sum."""
    sigma = triple.sigma
    g = sigma.gcm
    a = g.entries
    for b in sigma.roots:
        # beta(h) with h = sum_i t_i alpha_i^vee
        val = sum(
            triple.h_coords[i] * sum(a[i][j] * b.coeffs[j] for j in range(g.n))
            for i in range(g.n)
        )
        if val != 2:
            return False
    bt = sigma.b_matrix
    m = sigma.size
    for j in range(m):
        if sum(bt[k][j] * triple.mu[k] for k in range(m)) != 2:
            return False
    return True


def _member_vectors(triple: SL2Triple, alg: TruncatedAlgebra):
    pairs = []
    for b in triple.sigma.roots:
        try:
            pairs.append(real_root_vector(alg, b))
        except HeightOutOfRange:
            vec = alg.positive_basis(b)[0]
            pairs.append((vec, companion_vector(alg, b, vec)))
    return pairs


def realize_triple(triple: SL2Triple, alg: TruncatedAlgebra) -> RealizedTriple:
    pairs = _member_vectors(triple, alg)
    e = alg.zero()
    f = alg.zero()
    for c, fc, (ep, em) in zip(triple.coeffs, triple.f_coeffs, pairs):
        e = e + c * ep
        f = f + fc * em
    return RealizedTriple(e=e, h=alg.cartan(triple.h_coords), f=f)


def verify_triple_elements(alg: TruncatedAlgebra, t: RealizedTriple) -> bool:
    if alg.bracket(t.h, t.e) != 2 * t.e:
        return False
    if alg.bracket(t.h, t.f) != -2 * t.f:
        return False
    return alg.bracket(t.e, t.f) == t.h


def verify_realized(triple: SL2Triple, alg: TruncatedAlgebra) -> bool:
    """Realize the triple inside the truncation and check the three bracket
    relations exactly."""
    return verify_triple_elements(alg, realize_triple(triple, alg))
