"""Weyl group action: simple reflections on roots and coweights, inversion
sets of reduced words, reducedness testing, and word reduction (reduce_word,
an exchange-condition helper exported for library callers; inversion_set
rejects a non-reduced word outright)."""

from __future__ import annotations

from .errors import NotReduced
from .gcm import GCM
from .lattice import Coweight, RootVec, WeylWord

__all__ = [
    "WeylWord",
    "reflect",
    "reflect_coweight",
    "apply_word",
    "apply_word_coweight",
    "inversion_set",
    "is_reduced",
    "reduce_word",
]


def reflect(g: GCM, i: int, v: RootVec) -> RootVec:
    """s_i(v) = v - v(alpha_i^vee) alpha_i, with v(alpha_i^vee) = sum_j v_j A_ij."""
    row = g.entries[i - 1]
    pairing = sum(c * row[j] for j, c in enumerate(v.coeffs) if c != 0)
    if pairing == 0:
        return v
    new = list(v.coeffs)
    new[i - 1] -= pairing
    return RootVec(tuple(new))


def reflect_coweight(g: GCM, i: int, tau: Coweight) -> Coweight:
    """The contragredient action, defined by beta(s_i . tau) = (s_i beta)(tau)."""
    ti = tau.values[i - 1]
    if ti == 0:
        return tau
    return Coweight(
        tuple(tau.values[j] - g.entries[i - 1][j] * ti for j in range(g.n))
    )


def apply_word(g: GCM, word: WeylWord, v: RootVec) -> RootVec:
    """w(v) for w = s_{i1} ... s_{il}: rightmost letter acts first."""
    for i in reversed(word.letters):
        v = reflect(g, i, v)
    return v


def apply_word_coweight(g: GCM, word: WeylWord, tau: Coweight) -> Coweight:
    for i in reversed(word.letters):
        tau = reflect_coweight(g, i, tau)
    return tau


def _unit_images(n: int) -> list[list[int]]:
    # the simple roots alpha_1, ..., alpha_n as coefficient lists: w = 1 below
    return [[int(j == k) for k in range(n)] for j in range(n)]


def _times_simple(g: GCM, images: list[list[int]], i: int) -> None:
    """Pass the images w(alpha_j) of the simple roots from w to w s_i, in
    place: w(alpha_j) -= A_ij w(alpha_i) for j != i, and w(alpha_i) becomes
    -w(alpha_i).  An image is a root, never zero, so it is positive exactly
    when its least coordinate is >= 0."""
    wi = images[i - 1]
    for j, a in enumerate(g.entries[i - 1]):
        if a and j != i - 1:
            images[j] = [x - a * y for x, y in zip(images[j], wi)]
    images[i - 1] = [-y for y in wi]


def _inversion_list(g: GCM, word: WeylWord) -> list[RootVec]:
    # beta_k = s_{i1} ... s_{i_{k-1}} (alpha_{i_k}); no reducedness assumptions.
    images = _unit_images(g.n)
    out = []
    for i in word.letters:
        out.append(RootVec(tuple(images[i - 1])))
        _times_simple(g, images, i)
    return out


def inversion_set(g: GCM, word: WeylWord) -> list[RootVec]:
    """Phi_w = {beta in Phi+ : w^{-1} beta < 0} listed in reflection order.

    Raises NotReduced (with the offending position) unless the word is reduced,
    i.e. all partial images are distinct positive roots.
    """
    word.validate(g.n)
    betas = _inversion_list(g, word)
    seen = set()
    for k, beta in enumerate(betas):
        if not beta.is_positive:
            raise NotReduced(
                f"word is not reduced: inversion {k + 1} is not positive",
                position=k + 1,
                word=list(word.letters),
            )
        if beta in seen:
            raise NotReduced(
                f"word is not reduced: repeated inversion at position {k + 1}",
                position=k + 1,
                word=list(word.letters),
            )
        seen.add(beta)
    return betas


def is_reduced(g: GCM, word: WeylWord) -> bool:
    try:
        inversion_set(g, word)
        return True
    except NotReduced:
        return False


def reduce_word(g: GCM, word: WeylWord) -> WeylWord:
    """A reduced word for the same group element, by repeated exchange-condition
    deletion: when appending letter k turns a reduced prefix non-reduced, the
    prefix sends alpha_{i_k} to minus some earlier inversion beta_j, and
    deleting positions j and k preserves the element."""
    word.validate(g.n)
    letters = list(word.letters)
    changed = True
    while changed:
        changed = False
        betas: list[RootVec] = []
        images = _unit_images(g.n)
        for k, i in enumerate(letters):
            beta = RootVec(tuple(images[i - 1]))
            if beta.is_positive and beta not in betas:
                betas.append(beta)
                _times_simple(g, images, i)
                continue
            # exchange: locate j with beta_j = -beta (negative case) or the
            # earlier duplicate (which cannot occur while prefixes stay reduced)
            target = -beta if not beta.is_positive else beta
            j = betas.index(target)
            del letters[k]
            del letters[j]
            changed = True
            break
    return WeylWord(tuple(letters))
