"""Weyl group action: simple reflections on roots and coweights, inversion
sets of reduced words, reducedness testing, and word reduction (an exchange-
condition helper used by the CLI; the library surface rejects non-reduced
words outright)."""

from __future__ import annotations

from .errors import NotReduced
from .gcm import GCM
from .lattice import Coweight, RootVec, WeylWord, simple_root

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


def _inversion_list(g: GCM, word: WeylWord) -> list[RootVec]:
    # beta_k = s_{i1} ... s_{i_{k-1}} (alpha_{i_k}); no reducedness assumptions.
    out = []
    for k in range(len(word)):
        beta = simple_root(g.n, word.letters[k])
        for m in range(k - 1, -1, -1):
            beta = reflect(g, word.letters[m], beta)
        out.append(beta)
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
        for k in range(len(letters)):
            beta = simple_root(g.n, letters[k])
            for m in range(k - 1, -1, -1):
                beta = reflect(g, letters[m], beta)
            if beta.is_positive and beta not in betas:
                betas.append(beta)
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
