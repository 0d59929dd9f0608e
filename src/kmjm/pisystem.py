"""Pi-systems: finite sets of positive real roots whose pairwise differences
are not roots.  Such a set carries an induced GCM (the matrix of coroot
pairings) and the linear map sending its simple roots onto the given roots
preserves the invariant forms on the nose."""

from __future__ import annotations

from fractions import Fraction

from ._linalg import _span_of
from .errors import InternalInconsistency, NotPiSystem
from .gcm import GCM, TypeTag, bilinear_form, classify, norm
from .lattice import RootVec, Value
from .roots import descend

__all__ = ["PiSystem", "make_pi_system", "pi_image", "classify_pi_type"]


class PiSystem(Value):
    __slots__ = ("gcm", "roots", "induced")

    def __init__(self, gcm: GCM, roots: tuple[RootVec, ...], induced: GCM):
        # induced: the coroot-pairing matrix with its induced symmetrizer
        self._init(gcm, roots, induced)

    @property
    def size(self) -> int:
        return len(self.roots)

    @property
    def b_matrix(self) -> tuple[tuple[int, ...], ...]:
        return self.induced.entries


def make_pi_system(g: GCM, roots: list[RootVec]) -> PiSystem:
    """Validate the candidate set and package it with its induced GCM.

    Members and their differences are decided by reflection descent, so no
    multiplicity table is needed or built.
    """
    if not roots:
        raise NotPiSystem("a pi-system must contain at least one root")
    for k, b in enumerate(roots):
        if len(b.coeffs) != g.n:
            raise ValueError(f"member {k + 1} has rank {len(b.coeffs)}, GCM rank is {g.n}")
    seen = set()
    for k, b in enumerate(roots):
        if b in seen:
            raise NotPiSystem(
                f"member {k + 1} repeats an earlier root", member=list(b.coeffs)
            )
        seen.add(b)
        if not b.is_positive:
            raise NotPiSystem(f"member {k + 1} is not positive", member=list(b.coeffs))
        kind = descend(g, b)
        if kind is None:
            raise NotPiSystem(f"member {k + 1} is not a root", member=list(b.coeffs))
        if kind == "imaginary":
            raise NotPiSystem(
                f"member {k + 1} is imaginary, pi-systems take real roots only",
                member=list(b.coeffs),
            )
    # beta - gamma is a root exactly when gamma - beta is, so each unordered
    # pair is tested once; the first (k, j) found is the first ordered one
    for k in range(len(roots)):
        for j in range(k + 1, len(roots)):
            if descend(g, roots[k] - roots[j]) is not None:
                raise NotPiSystem(
                    f"difference of members {k + 1} and {j + 1} is a root",
                    first=list(roots[k].coeffs),
                    second=list(roots[j].coeffs),
                )
    span, _ = _span_of([dict(enumerate(b.coeffs)) for b in roots])
    if len(span) != len(roots):
        raise NotPiSystem("members are linearly dependent")
    m = len(roots)
    norms = [norm(g, b) for b in roots]
    entries = []
    for k in range(m):
        row = []
        for j in range(m):
            # the coroot pairing <beta_j, beta_k^vee> = 2 (beta_j|beta_k) / (beta_k|beta_k)
            twice = 2 * bilinear_form(g, roots[j], roots[k])
            p, rem = divmod(twice, norms[k])
            if rem:
                raise InternalInconsistency(
                    "coroot pairing of real roots came out non-integral: "
                    f"{Fraction(twice, norms[k])}",
                    first=list(roots[k].coeffs),
                    second=list(roots[j].coeffs),
                )
            row.append(p)
        entries.append(tuple(row))
    # induced symmetrizer: half the norms.  (beta|beta) is always even, and
    # d^B_k B_kj = (beta_k|beta_j) makes form preservation an identity.
    sym = []
    for b, nb in zip(roots, norms):
        if nb % 2 != 0:
            raise InternalInconsistency(
                f"odd norm {nb} for real root {list(b.coeffs)}"
            )
        sym.append(nb // 2)
    for k in range(m):
        if entries[k][k] != 2:
            raise InternalInconsistency(
                f"induced matrix has diagonal {entries[k][k]} at {k + 1}"
            )
        for j in range(m):
            if k != j and entries[k][j] > 0:
                raise InternalInconsistency(
                    f"induced matrix has positive off-diagonal at ({k + 1},{j + 1}); "
                    "the difference test should have excluded this",
                    value=entries[k][j],
                )
            if (entries[k][j] == 0) != (entries[j][k] == 0):
                raise InternalInconsistency(
                    f"induced matrix breaks zero symmetry at ({k + 1},{j + 1})"
                )
    induced = GCM(entries=tuple(entries), symmetrizer=tuple(sym))
    return PiSystem(gcm=g, roots=tuple(roots), induced=induced)


def pi_image(sigma: PiSystem, v: RootVec) -> RootVec:
    """Push a vector written over the pi-system's own simple roots into the
    ambient root lattice: v maps to sum_k v_k beta_k."""
    if len(v.coeffs) != sigma.size:
        raise ValueError(
            f"vector has {len(v.coeffs)} coordinates, pi-system has {sigma.size} members"
        )
    n = sigma.gcm.n
    out = [0] * n
    for k, c in enumerate(v.coeffs):
        if c == 0:
            continue
        for i in range(n):
            out[i] += c * sigma.roots[k].coeffs[i]
    return RootVec(tuple(out))


def classify_pi_type(sigma: PiSystem) -> TypeTag:
    return classify(sigma.induced)
