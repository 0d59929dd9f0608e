"""Root enumeration and multiplicities.

Two independent routes into the root system:

* real_roots_up_to_height — breadth-first closure of the simple roots under
  the simple reflections (real roots only, multiplicity 1);
* peterson_multiplicities — the full multiplicity table from the recurrence
      (beta | beta - 2 rho) c_beta = sum_{b'+b''=beta} (b'|b'') c_b' c_b''
  with c_beta = sum_{k | beta} mult(beta/k)/k, processed by increasing height
  and inverted by subtracting lower terms. (rho|alpha_i) = (alpha_i|alpha_i)/2
  gives (beta|2rho) = 2 * sum_i beta_i d_i, so the forms are integers, and
  every k above divides L = lcm(1..height): the recurrence runs on the
  integers C_beta = L c_beta, whose right-hand side is L^2 times the one above.

The resulting MultTable is the membership oracle the other modules consume:
mult(beta) = 0 exactly for non-roots, real roots have mult 1 and positive norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from . import gcm as gcm_mod
from .errors import (
    DegenerateDenominator,
    HeightOutOfRange,
    InternalInconsistency,
    NotRealRoot,
)
from .gcm import GCM, bilinear_form, norm
from .lattice import Coweight, RootVec, simple_root

__all__ = [
    "MultTable",
    "RootVec",
    "Coweight",
    "real_roots_up_to_height",
    "peterson_multiplicities",
    "is_root",
    "coroot_pairing",
    "coroot_coords",
    "root_norm",
]

root_norm = norm


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
            # s_i(beta) = beta - beta(alpha_i^vee) alpha_i
            pairing = sum(beta.coeffs[j] * g.entries[i - 1][j] for j in range(n))
            new = list(beta.coeffs)
            new[i - 1] -= pairing
            cand = RootVec(tuple(new))
            if cand.is_positive and cand.height <= height and cand not in found:
                found.add(cand)
                queue.append(cand)
    return sorted(found)


@dataclass
class MultTable:
    """Root multiplicities of g(A) for positive roots of height <= height."""

    gcm: GCM
    height: int
    mult: dict[RootVec, int] = field(default_factory=dict)

    def roots(self) -> list[RootVec]:
        return sorted(self.mult)

    def multiplicity(self, v: RootVec) -> int:
        if v.sign == "negative":
            v = -v
        return self.mult.get(v, 0)


def _positive_vectors_by_height(n: int, height: int):
    # all nonzero vectors in Z^n_{>=0} of height h, for h = 1..height
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(height + 1)]

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            levels_entry = prefix + (remaining,)
            levels[sum(levels_entry)].append(levels_entry)
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, slots - 1)

    for h in range(1, height + 1):
        rec((), h, n)
    return levels


def peterson_multiplicities(g: GCM, height: int) -> MultTable:
    """Multiplicity table for all positive roots of height <= height."""
    if height < 1:
        return MultTable(g, max(height, 0), {})
    n = g.n
    sym = gcm_mod.symmetrized(g)
    two_d = [2 * di for di in g.symmetrizer]
    scale = lcm(*range(1, height + 1))

    levels = _positive_vectors_by_height(n, height)
    # scaled c-values C = scale * c (scale is L above), kept only when nonzero
    c: dict[tuple[int, ...], int] = {}
    mult: dict[RootVec, int] = {}
    sym_image: dict[tuple[int, ...], tuple[int, ...]] = {}

    def s_dot(v: tuple[int, ...]) -> tuple[int, ...]:
        img = sym_image.get(v)
        if img is None:
            img = tuple(sum(sym[i][j] * v[j] for j in range(n)) for i in range(n))
            sym_image[v] = img
        return img

    for i in range(1, n + 1):
        a = simple_root(n, i)
        c[a.coeffs] = scale
        mult[a] = 1

    # rhs[beta] accumulated by convolving lower levels of nonzero c
    live_by_height: list[list[tuple[int, ...]]] = [[] for _ in range(height + 1)]
    for i in range(1, n + 1):
        live_by_height[1].append(simple_root(n, i).coeffs)

    for h in range(2, height + 1):
        rhs: dict[tuple[int, ...], int] = {}
        for h1 in range(1, h):
            h2 = h - h1
            if h2 < h1:
                break
            for b1 in live_by_height[h1]:
                s1 = s_dot(b1)
                c1 = c[b1]
                for b2 in live_by_height[h2]:
                    if h1 == h2 and b2 < b1:
                        continue
                    pairing = sum(map(mul, s1, b2))
                    if pairing == 0:
                        continue
                    term = pairing * c1 * c[b2]
                    if h1 != h2 or b1 != b2:
                        term *= 2  # both orderings
                    key = tuple(map(add, b1, b2))
                    rhs[key] = rhs.get(key, 0) + term
        for v in levels[h]:
            r = rhs.get(v, 0)
            # contribution of proper divisors to the scaled c-value at v
            divpart = 0
            gv = gcd(*v)
            for k in range(2, gv + 1):
                if gv % k == 0:
                    sub = RootVec(tuple(x // k for x in v))
                    divpart += mult.get(sub, 0) * (scale // k)
            if r == 0 and divpart == 0:
                continue
            denom = sum(s_dot(v)[j] * v[j] for j in range(n)) - sum(
                two_d[j] * v[j] for j in range(n)
            )
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
                mult[RootVec(v)] = m
            if cv:
                c[v] = cv
                live_by_height[h].append(v)
    return MultTable(g, height, mult)


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
    return 2 * bilinear_form(g, gamma, beta) / nb


def coroot_coords(g: GCM, beta: RootVec) -> tuple[Fraction, ...]:
    """Coordinates of beta^vee over the simple coroots: 2 d_i beta_i / (beta|beta)."""
    nb = norm(g, beta)
    if nb <= 0:
        raise NotRealRoot(
            f"coroot of a non-positive-norm vector {list(beta.coeffs)}", beta=list(beta.coeffs)
        )
    return tuple(Fraction(2 * g.symmetrizer[i] * beta.coeffs[i], 1) / nb for i in range(g.n))
