"""Root-lattice vectors, coweights and Weyl words (shared value types).

Every kmjm value type derives from `Value`: a plain class whose fields are its
``__slots__`` and whose ``__init__`` holds the defaults.  `Value` gives what a
frozen dataclass did: equality within one class, the hash of the field tuple,
the ``Name(field=value, ...)`` repr, AttributeError on assignment or deletion,
and a ``__reduce__`` through ``__init__`` for pickle and copy.  kmjm does not
import ``dataclasses``: with ``inspect`` and the generated classes it cost
about 20 ms at every start of the CLI.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Value:
    """Immutable record whose fields are the subclass's ``__slots__``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class RootVec(Value):
    """Integer vector in the root lattice, coordinates over the simple roots.

    Ordering is (height, coeffs) so sorted() gives the deterministic
    height-then-lex order used everywhere.  The constructor takes a tuple of
    ints as it is; `rootvec` converts outside input.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not RootVec:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

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


def _ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    # the package's integer rule for outside input: only an int is an entry,
    # and a bool, a float (even an integral one) or a string raises TypeError
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"{what} {v!r} is not an integer")
    return values


def rootvec(coeffs: Iterable[int]) -> RootVec:
    """A RootVec from any iterable of integers, checked by _ints."""
    return RootVec(_ints(coeffs, "root coefficient"))


def simple_root(n: int, i: int) -> RootVec:
    """alpha_i as a RootVec of rank n (i is 1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"simple root index {i} out of range 1..{n}")
    return RootVec(tuple(1 if j == i - 1 else 0 for j in range(n)))


class Coweight(Value):
    """Integral coweight tau, stored by its values tau_i = alpha_i(tau), each
    an int (checked by _ints)."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        self._init(_ints(values, "coweight value"))

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


class WeylWord(Value):
    """Word in the simple reflections; letters are 1-based int indices
    (checked by _ints)."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int]):
        self._init(_ints(letters, "word letter"))

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
