"""Pi-systems: finite sets of positive real roots whose pairwise differences
are not roots.  Such a set carries an induced GCM (the matrix of coroot
pairings) and the linear map sending its simple roots onto the chosen roots
preserves the invariant forms on the nose."""

from __future__ import annotations

from ._linalg import _span_of
from .errors import InternalInconsistency, NotPiSystem, OracleTooShort
from .gcm import GCM, TypeTag, classify, norm
from .lattice import RootVec, Value
from .roots import MultTable, coroot_pairing, is_root, peterson_multiplicities

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


def make_pi_system(g: GCM, roots: list[RootVec], table: MultTable | None = None) -> PiSystem:
    """Validate the candidate set against the multiplicity oracle and package
    it with its induced GCM.

    The oracle must extend to twice the largest candidate height.  Without a
    table, one of exactly that height is computed; a given table that is
    shorter raises OracleTooShort rather than risking a wrong verdict.
    """
    if table is not None and table.gcm is not g and table.gcm != g:
        raise ValueError("oracle table was built for a different GCM")
    if not roots:
        raise NotPiSystem("a pi-system must contain at least one root")
    for k, b in enumerate(roots):
        if len(b.coeffs) != g.n:
            raise ValueError(f"member {k + 1} has rank {len(b.coeffs)}, GCM rank is {g.n}")
    hmax = max(b.height for b in roots)
    if table is None:
        table = peterson_multiplicities(g, 2 * hmax)
    elif table.height < 2 * hmax:
        raise OracleTooShort(
            f"oracle reaches height {table.height}, need {2 * hmax} "
            f"(twice the largest member height {hmax})",
            table_height=table.height,
            needed=2 * hmax,
        )
    seen = set()
    for k, b in enumerate(roots):
        if b in seen:
            raise NotPiSystem(
                f"member {k + 1} repeats an earlier root", member=list(b.coeffs)
            )
        seen.add(b)
        if not b.is_positive:
            raise NotPiSystem(f"member {k + 1} is not positive", member=list(b.coeffs))
        if not is_root(table, b):
            raise NotPiSystem(f"member {k + 1} is not a root", member=list(b.coeffs))
        if norm(g, b) <= 0:
            raise NotPiSystem(
                f"member {k + 1} is imaginary, pi-systems take real roots only",
                member=list(b.coeffs),
            )
    for k in range(len(roots)):
        for j in range(len(roots)):
            if k == j:
                continue
            diff = roots[k] - roots[j]
            if is_root(table, diff):
                raise NotPiSystem(
                    f"difference of members {k + 1} and {j + 1} is a root",
                    first=list(roots[k].coeffs),
                    second=list(roots[j].coeffs),
                )
    span, _ = _span_of([dict(enumerate(b.coeffs)) for b in roots])
    if len(span) != len(roots):
        raise NotPiSystem("members are linearly dependent")
    m = len(roots)
    entries = []
    for k in range(m):
        row = []
        for j in range(m):
            p = coroot_pairing(g, roots[k], roots[j])
            if p.denominator != 1:
                raise InternalInconsistency(
                    f"coroot pairing of real roots came out non-integral: {p}",
                    first=list(roots[k].coeffs),
                    second=list(roots[j].coeffs),
                )
            row.append(int(p))
        entries.append(tuple(row))
    # induced symmetrizer: half the norms.  (beta|beta) is always even, and
    # d^B_k B_kj = (beta_k|beta_j) makes form preservation an identity.
    sym = []
    for b in roots:
        nb = norm(g, b)
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
