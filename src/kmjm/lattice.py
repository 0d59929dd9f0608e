"""Root-lattice vectors, coweights and Weyl words (shared value types)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RootVec:
    """Integer vector in the root lattice, coordinates over the simple roots.

    Ordering is (height, coeffs) so sorted() gives the deterministic
    height-then-lex order used everywhere.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def sign(self) -> str:
        pos = any(c > 0 for c in self.coeffs)
        neg = any(c < 0 for c in self.coeffs)
        if pos and neg:
            return "mixed"
        if pos:
            return "positive"
        if neg:
            return "negative"
        return "zero"

    @property
    def is_positive(self) -> bool:
        return self.sign == "positive"

    def support(self) -> tuple[int, ...]:
        """1-based indices of nonzero coordinates."""
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c != 0)

    def __add__(self, other: "RootVec") -> "RootVec":
        return RootVec(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "RootVec") -> "RootVec":
        return RootVec(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "RootVec":
        return RootVec(tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "RootVec":
        return RootVec(tuple(k * a for a in self.coeffs))

    def __repr__(self):
        return f"RootVec({list(self.coeffs)})"

    # canonical listing order everywhere: height first, then lex on coords
    def sort_key(self):
        return (self.height, self.coeffs)

    def __lt__(self, other):
        if not isinstance(other, RootVec):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        if not isinstance(other, RootVec):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        if not isinstance(other, RootVec):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        if not isinstance(other, RootVec):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


def rootvec(coeffs: Iterable[int]) -> RootVec:
    return RootVec(tuple(coeffs))


def simple_root(n: int, i: int) -> RootVec:
    """alpha_i as a RootVec of rank n (i is 1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"simple root index {i} out of range 1..{n}")
    return RootVec(tuple(1 if j == i - 1 else 0 for j in range(n)))


@dataclass(frozen=True)
class Coweight:
    """Integral coweight tau, stored by its values tau_i = alpha_i(tau)."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_dominant(self) -> bool:
        return all(v >= 0 for v in self.values)

    def zero_support(self) -> tuple[int, ...]:
        """1-based indices i with alpha_i(tau) = 0."""
        return tuple(i + 1 for i, v in enumerate(self.values) if v == 0)

    def __repr__(self):
        return f"Coweight({list(self.values)})"


@dataclass(frozen=True)
class WeylWord:
    """Word in the simple reflections; letters are 1-based indices."""

    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def validate(self, n: int) -> "WeylWord":
        for x in self.letters:
            if not 1 <= x <= n:
                raise ValueError(f"word letter {x} out of range 1..{n}")
        return self

    @staticmethod
    def of(letters: Sequence[int]) -> "WeylWord":
        return WeylWord(tuple(letters))

    def __repr__(self):
        return f"WeylWord({list(self.letters)})"
