"""Root enumeration and multiplicities.

Three independent routes into the root system:

* real_roots_up_to_height — breadth-first closure of the simple roots under
  the simple reflections (real roots only, multiplicity 1);
* descend — membership of one vector by reflection descent, no table: each
  s_i permutes the positive roots other than alpha_i (Kac, Lemma 3.7), and
  the positive imaginary roots are the W-orbit of the chamber vectors with
  connected support (Kac, Thm 5.4);
* peterson_multiplicities — the full multiplicity table from the recurrence
      (beta | beta - 2 rho) c_beta = sum_{b'+b''=beta} (b'|b'') c_b' c_b''
  with c_beta = sum_{k | beta} mult(beta/k)/k, processed by increasing height
  and inverted by subtracting lower terms. (rho|alpha_i) = (alpha_i|alpha_i)/2
  gives (beta|2rho) = 2 * sum_i beta_i d_i, so the forms are integers, and
  every k above divides L = lcm(1..height): the recurrence runs on the
  integers C_beta = L c_beta, whose right-hand side is L^2 times the one above.

  The convolution never evaluates the form on a pair.  Each vector is packed
  into one int, its coordinates the digits in base height + 1; a sum of two
  vectors inside the window has no digit above height, so keys add without a
  carry and, within one height, order as the vectors do (lex).  The norm
  identity 2 (b'|b'') = N(beta) - N(b') - N(b''), N(b) = (b|b), turns the
  right-hand side into N(beta) A_beta - B_beta plus N(b) C_b^2 at beta = 2b,
  where A = sum C'C'' and B = sum (N' + N'') C'C'' run over the unordered
  pairs b' != b''.  Per pair that is one key addition and two multiply-adds
  into A and B; the norm is stored once per vector with nonzero C, and the
  form is evaluated once per vector the convolution reaches.  The whole
  table is computed by the call, and a check that fails raises from it.

The resulting MultTable is the multiplicity oracle the other modules consume:
mult(beta) = 0 exactly for non-roots, real roots have mult 1 and positive norm.
A question of membership alone (pi-systems) goes to descend instead.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import gcm as gcm_mod
from ._linalg import _rational
from .errors import (
    DegenerateDenominator,
    HeightOutOfRange,
    InternalInconsistency,
    NotRealRoot,
)
from .gcm import GCM, bilinear_form, norm
from .lattice import Coweight, RootVec, Value, simple_root
from .weyl import reflect

__all__ = [
    "MultTable",
    "RootVec",
    "Coweight",
    "real_roots_up_to_height",
    "descend",
    "peterson_multiplicities",
    "is_root",
    "coroot_pairing",
    "coroot_coords",
]


def real_roots_up_to_height(g: GCM, height: int) -> list[RootVec]:
    """All positive real roots of height <= height, sorted (height, lex).

    BFS from the simple roots: every positive real root has a simple
    reflection lowering its height through positive roots, so exploring
    reflections inside the height window is exhaustive.
    """
    if height < 1:
        return []
    n = g.n
    found = {simple_root(n, i) for i in range(1, n + 1)}
    queue = list(found)
    while queue:
        beta = queue.pop()
        for i in range(1, n + 1):
            cand = reflect(g, i, beta)
            if cand.is_positive and cand.height <= height and cand not in found:
                found.add(cand)
                queue.append(cand)
    return sorted(found)


def _descent_step(g: GCM, v: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """The first i (1-based) with <v, alpha_i^vee> > 0 and s_i(v), or None
    when v pairs to <= 0 with every simple coroot."""
    for i, row in enumerate(g.entries):
        pairing = sum(map(mul, row, v))
        if pairing > 0:
            new = list(v)
            new[i] -= pairing
            return i + 1, tuple(new)
    return None


def descend(g: GCM, v: RootVec) -> str | None:
    """Whether v is a root, decided without a table: "real", "imaginary" or
    None for a non-root.

    A negative vector is negated first; zero and mixed-sign vectors are not
    roots.  A positive v other than alpha_i is a root exactly when s_i(v) is,
    and s_i(v) is then positive (Kac, Lemma 3.7), so each step reflects by the
    first i with <v, alpha_i^vee> > 0, which lowers the height, and a
    negative coordinate ends the descent at a non-root.  A simple root is
    real.  A vector pairing to <= 0 with every coroot is a root, imaginary,
    exactly when its support is connected (Kac, Thm 5.4).  The cost is
    O(height * n^2).
    """
    if len(v.coeffs) != g.n:
        raise ValueError(f"vector has rank {len(v.coeffs)}, GCM rank is {g.n}")
    sign = v.sign
    if sign in ("mixed", "zero"):
        return None
    cur = v.coeffs if sign == "positive" else (-v).coeffs
    while sum(cur) > 1:
        step = _descent_step(g, cur)
        if step is None:
            support = [i for i, c in enumerate(cur) if c]
            return "imaginary" if len(gcm_mod._components(g.entries, support)) == 1 else None
        cur = step[1]
        if min(cur) < 0:
            return None
    return "real"


class MultTable(Value):
    """Root multiplicities of g(A) for positive roots of height <= height.

    The one mutable value type, and so the one that is not hashable."""

    __slots__ = ("gcm", "height", "mult")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, gcm: GCM, height: int, mult: dict[RootVec, int] | None = None):
        self._init(gcm, height, {} if mult is None else mult)

    def roots(self) -> list[RootVec]:
        return sorted(self.mult)

    def multiplicity(self, v: RootVec) -> int:
        if v.sign == "negative":
            v = -v
        return self.mult.get(v, 0)


def peterson_multiplicities(g: GCM, height: int) -> MultTable:
    """Multiplicity table for all positive roots of height <= height.

    The content of ``mult`` is fixed; its insertion order is not part of the
    contract: every consumer sorts it, looks vectors up in it or is otherwise
    order-free.  Vectors are visited in (height, lex) order, so a failed
    check reports the first vector at which the recurrence breaks.
    """
    if height < 1:
        return MultTable(g, max(height, 0), {})
    n = g.n
    sym = gcm_mod.symmetrized(g)
    two_d = [2 * di for di in g.symmetrizer]
    scale = lcm(*range(1, height + 1))
    # N(v) = sum of q v_i v_j over i <= j
    norm_terms = [
        (i, j, sym[i][j] if i == j else 2 * sym[i][j]) for i in range(n) for j in range(i, n)
    ]
    # packed key: the digits of v in base height + 1, v_1 most significant
    weights = [(height + 1) ** (n - 1 - i) for i in range(n)]

    def unpack(key: int) -> tuple[int, ...]:
        v = []
        for w in weights:
            digit, key = divmod(key, w)
            v.append(digit)
        return tuple(v)

    mult: dict[int, int] = {}  # by packed key, roots only
    # live[h]: (key, C, N) for each vector of height h with C != 0, N its norm
    live: list[list[tuple[int, int, int]]] = [[] for _ in range(height + 1)]
    for i in range(n):
        mult[weights[i]] = 1
        live[1].append((weights[i], scale, sym[i][i]))

    for h in range(2, height + 1):
        # the sums A and B of the module docstring, by key of b' + b''
        pair_a: defaultdict[int, int] = defaultdict(int)
        pair_b: defaultdict[int, int] = defaultdict(int)
        for h1 in range(1, h // 2 + 1):
            upper = live[h - h1]
            for i1, (k1, c1, n1) in enumerate(live[h1]):
                partners = upper
                if h1 == h - h1:
                    # the pair (b', b') counts once, as N' C'^2
                    pair_b[k1 + k1] -= n1 * c1 * c1
                    partners = upper[i1 + 1 :]
                for k2, c2, n2 in partners:
                    key = k1 + k2
                    p = c1 * c2
                    pair_a[key] += p
                    pair_b[key] += p * (n1 + n2)
        # every vector with a root among its proper divisors is reached: 2u
        # by the pair (u, u), ku for k >= 3 by (u, (k-1)u)
        for key in sorted(pair_b):
            v = unpack(key)
            nv = sum(q * v[i] * v[j] for i, j, q in norm_terms)
            r = nv * pair_a[key] - pair_b[key]
            # contribution of proper divisors to the scaled c-value at v
            divpart = 0
            gv = gcd(*v)
            for k in range(2, gv + 1):
                if gv % k == 0:
                    divpart += mult.get(key // k, 0) * (scale // k)
            if r == 0 and divpart == 0:
                continue
            denom = nv - sum(map(mul, two_d, v))
            if denom == 0:
                # The recurrence is vacuous here (0 = 0).  At height >= 2 this
                # happens only off the root system (roots keep (b|b) < (b|2rho)
                # strictly), so no multiplicity is introduced at v and the
                # c-value is exactly what the divisors below it contribute.
                if r != 0:
                    raise DegenerateDenominator(
                        "(beta|beta-2rho) = 0 with nonzero recurrence RHS "
                        f"at beta = {list(v)}",
                        beta=list(v),
                    )
                cv, rem = divpart, 0
            else:
                cv, rem = divmod(r, scale * denom)
            # invert c into mult: strip the divisor contributions
            m, rem_m = divmod(cv - divpart, scale)
            if rem or rem_m or m < 0:
                scaled = Fraction(r, scale * denom) if rem else Fraction(cv)
                raise InternalInconsistency(
                    f"multiplicity of {list(v)} came out {(scaled - divpart) / scale}",
                    beta=list(v),
                )
            if m:
                mult[key] = m
            if cv:
                live[h].append((key, cv, nv))
    return MultTable(g, height, {RootVec(unpack(k)): m for k, m in mult.items()})


def is_root(table: MultTable, v: RootVec) -> bool:
    """Membership test against the table; mixed-sign vectors are never roots."""
    sign = v.sign
    if sign in ("mixed", "zero"):
        return False
    if sign == "negative":
        v = -v
    if v.height > table.height:
        raise HeightOutOfRange(
            f"root membership for height {v.height} exceeds table height {table.height}",
            height=v.height,
            table_height=table.height,
        )
    return v in table.mult


def coroot_pairing(g: GCM, beta: RootVec, gamma: RootVec) -> Fraction:
    """gamma(beta^vee) = 2 (gamma|beta) / (beta|beta); beta must have positive norm."""
    nb = norm(g, beta)
    if nb <= 0:
        raise NotRealRoot(
            f"coroot pairing needs (beta|beta) > 0, got {nb} for {list(beta.coeffs)}",
            beta=list(beta.coeffs),
        )
    return Fraction(2 * bilinear_form(g, gamma, beta), nb)


def coroot_coords(g: GCM, beta: RootVec) -> tuple:
    """Coordinates of beta^vee over the simple coroots: 2 d_i beta_i / (beta|beta),
    each an int when it is integral, else a Fraction."""
    nb = norm(g, beta)
    if nb <= 0:
        raise NotRealRoot(
            f"coroot of a non-positive-norm vector {list(beta.coeffs)}", beta=list(beta.coeffs)
        )
    return tuple(_rational(2 * g.symmetrizer[i] * beta.coeffs[i], nb) for i in range(g.n))
