"""Generalized Cartan matrices: validation, symmetrizer, type classification,
and the invariant bilinear form (alpha_i|alpha_j) = d_i A_ij.

All arithmetic is exact (int / Fraction). The symmetrizer is normalized to
minimal positive integers on each connected component of the diagram, so the
form is integral and bilinear_form returns an int.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from ._linalg import _rational, leading_principal_minors
from .errors import NotGCM, NotSymmetrizable
from .lattice import RootVec, Value


class GCM(Value):
    """A validated generalized Cartan matrix with its minimal integer symmetrizer.

    Construct via validate_gcm(); direct construction skips the checks.
    """

    __slots__ = ("entries", "symmetrizer")

    def __init__(self, entries: tuple[tuple[int, ...], ...], symmetrizer: tuple[int, ...]):
        self._init(entries, symmetrizer)

    @property
    def n(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __repr__(self):
        return f"GCM({self.rows()})"


class TypeTag(Value):
    __slots__ = ("kind", "hyperbolic")

    def __init__(self, kind: str, hyperbolic: bool = False):
        self._init(kind, hyperbolic)  # kind: "finite" | "affine" | "indefinite"

    def __str__(self):
        return self.kind + ("+hyperbolic" if self.hyperbolic else "")


FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


def validate_gcm(matrix: Sequence[Sequence[int]]) -> GCM:
    """Check the GCM axioms and compute the minimal positive integer symmetrizer.

    The matrix is a nonempty square list or tuple of rows, each a list or
    tuple of int entries; a bool, a float (even an integral one) or a string
    is not read as an integer.  Raises NotGCM on a malformed matrix or an
    axiom violation (with the offending entry), and NotSymmetrizable when the
    cycle conditions d_i A_ij = d_j A_ji cannot be met.
    """
    if not isinstance(matrix, (list, tuple)) or not matrix:
        raise NotGCM(f"a GCM is a nonempty square matrix of integers, got {matrix!r}")
    n = len(matrix)
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise NotGCM(f"row {i + 1} is not a list: {row!r}", row=i + 1)
        if len(row) != n:
            raise NotGCM(f"row {i + 1} has length {len(row)}, expected {n}", row=i + 1)
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotGCM(
                    f"entry A_{i + 1}{j + 1} = {x!r} is not an integer", i=i + 1, j=j + 1
                )
    entries = tuple(tuple(row) for row in matrix)
    for i in range(n):
        if entries[i][i] != 2:
            raise NotGCM(f"diagonal entry A_{i + 1}{i + 1} = {entries[i][i]} != 2", i=i + 1, j=i + 1)
        for j in range(n):
            if i == j:
                continue
            if entries[i][j] > 0:
                raise NotGCM(
                    f"off-diagonal entry A_{i + 1}{j + 1} = {entries[i][j]} > 0", i=i + 1, j=j + 1
                )
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotGCM(
                    f"zero-symmetry violated at ({i + 1},{j + 1})", i=i + 1, j=j + 1
                )
    d = _symmetrizer(entries)
    return GCM(entries=entries, symmetrizer=d)


def _components(entries: tuple[tuple[int, ...], ...], idx) -> list[list[int]]:
    # The connected components of the diagram on the 0-based indices idx, the
    # package's one walk of it.  Each component is listed in the order a
    # depth-first walk from its least index visits it: neighbours are pushed
    # in increasing index and the last one pushed is taken first.
    idx = sorted(idx)
    seen = set()
    comps = []
    for start in idx:
        if start in seen:
            continue
        seen.add(start)
        comp = []
        stack = [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in idx:
                if j not in seen and entries[i][j]:
                    seen.add(j)
                    stack.append(j)
        comps.append(comp)
    return comps


def _symmetrizer(entries: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    # Propagate d along diagram edges (d_j = d_i * A_ij / A_ji) in the order
    # _components visits each component, checking every edge as it is met,
    # then scale each component to minimal positive integers.
    n = len(entries)
    d = [None] * n
    for comp in _components(entries, range(n)):
        d[comp[0]] = 1
        for i in comp:
            for j in range(n):
                if j == i or entries[i][j] == 0:
                    continue
                val = _rational(d[i] * entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = val
                elif d[j] != val:
                    raise NotSymmetrizable(
                        f"cycle condition d_i A_ij = d_j A_ji fails at edge ({i + 1},{j + 1})",
                        i=i + 1,
                        j=j + 1,
                    )
        denom = lcm(*[d[k].denominator for k in comp])
        scaled = [int(d[k] * denom) for k in comp]  # exact: denom clears d[k]
        g = gcd(*scaled)
        for k, x in zip(comp, scaled):
            d[k] = x // g
    return tuple(d)


def _classify_block(entries: tuple[tuple[int, ...], ...], idx: list[int]) -> str:
    # Leading principal minors of the integer block have the same signs as the
    # symmetrized block's (D positive diagonal), so Sylvester applies:
    # all > 0  <=> positive definite  <=> finite;
    # first k-1 > 0 and det = 0  <=> PSD of corank 1 (Cauchy interlacing) <=> affine.
    # A zero minor before the last rules out both, so the block is
    # indefinite; the elimination stops at that zero and leaves the later
    # minors unknown (None), which no case below needs.
    block = [[entries[i][j] for j in idx] for i in idx]
    *head, last = leading_principal_minors(block)
    if all(m > 0 for m in head):
        if last > 0:
            return FINITE
        if last == 0:
            return AFFINE
    return INDEFINITE


def _classify(entries: tuple[tuple[int, ...], ...], idx) -> TypeTag:
    # The type of the principal submatrix on the 0-based indices idx, a
    # principal submatrix of a validated GCM and so a GCM itself.  Rank 2 is
    # indefinite exactly when A_12 * A_21 >= 5, the hyperbolic range.
    kinds = [_classify_block(entries, sorted(comp)) for comp in _components(entries, idx)]
    if all(k == FINITE for k in kinds):
        kind = FINITE
    elif all(k in (FINITE, AFFINE) for k in kinds):
        kind = AFFINE
    else:
        kind = INDEFINITE
    return TypeTag(kind, kind == INDEFINITE and len(idx) == 2)


def classify(g: GCM) -> TypeTag:
    """Finite/affine/indefinite trichotomy (exact), with the rank-2 hyperbolic flag.

    Decomposable matrices: finite iff every block is finite; affine iff all
    blocks are finite-or-affine with at least one affine; else indefinite.
    """
    return _classify(g.entries, range(g.n))


def classify_principal(g: GCM, idx_1based: Sequence[int]) -> TypeTag:
    """classify() of the principal submatrix on the given 1-based index set."""
    for i in idx_1based:
        if not 1 <= i <= g.n:
            raise ValueError(f"index {i} out of range 1..{g.n}")
    return _classify(g.entries, {i - 1 for i in idx_1based})


def symmetrized(g: GCM) -> list[list[int]]:
    """The symmetric matrix S = diag(d) * A, S_ij = (alpha_i|alpha_j)."""
    return [[g.symmetrizer[i] * g.entries[i][j] for j in range(g.n)] for i in range(g.n)]


def bilinear_form(g: GCM, beta: RootVec, gamma: RootVec) -> int:
    """(beta|gamma) = sum_ij beta_i gamma_j d_i A_ij, an int: the symmetrizer
    is integral."""
    if beta.n != g.n or gamma.n != g.n:
        raise ValueError(f"rank mismatch: form on rank {g.n}, got {beta.n} and {gamma.n}")
    total = 0
    for i, bi in enumerate(beta.coeffs):
        if bi == 0:
            continue
        di = g.symmetrizer[i]
        row = g.entries[i]
        total += bi * di * sum(cj * row[j] for j, cj in enumerate(gamma.coeffs) if cj != 0)
    return total


def norm(g: GCM, beta: RootVec) -> int:
    """(beta|beta)."""
    return bilinear_form(g, beta, beta)
