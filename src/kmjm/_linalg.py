"""The package's one exact elimination: fraction-free, on integers.

_Span is a sparse integer row echelon.  Rational vectors are added one at a
time and scaled to integers; each row is kept divided by the gcd of its
entries, so the entries do not grow.  Every exact linear question the
package asks goes through it: the independence of pi-system members, the
grading element of a triple (pi-system B matrices), the nonsingularity
check of the reg-grade suite, and the root spaces, brackets and invariant
form of the truncated algebra.  Fractions appear only in the coordinates it
returns.

The package's scalar rule lives here too: a scalar is an int when it is
integral and a Fraction when it is not.  _rational divides by that rule, and
_exact checks an outside scalar against it.

leading_principal_minors is Bareiss's fraction-free elimination (Bareiss
1968) on a square integer matrix: the pivot of step k is the k-th leading
principal minor, so one pass gives all of them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence


def _sub_multiple(vec, c, row):
    # vec -= c * row in place, dropping zero coefficients
    for w, rc in row.items():
        v = vec.get(w, 0) - c * rc
        if v:
            vec[w] = v
        else:
            vec.pop(w, None)


def _rational(num, den):
    # num / den as an int when it is one: the build's coordinates are mostly
    # integers, and int arithmetic is far cheaper than Fraction arithmetic
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _exact(x):
    # x as an int when it is integral, else as a Fraction.  A scalar is an int
    # or a Fraction: a bool is refused, and so is a float, which Fraction()
    # would read as its binary value (0.1 is not 1/10)
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        raise TypeError(f"a scalar must be an int or a Fraction, got {x!r}")
    return x.numerator if x.denominator == 1 else x


class _Span:
    """The span of rational vectors (dict column -> int or Fraction), added
    one at a time, as an integer row echelon.

    Input k is stored scaled to integers, u_k = scales[k] * input_k; each row
    is an integer vector with the integer combination of the u_k it equals,
    and its pivot is its least column.  Rows are divided by the gcd of their
    entries, with the sign that makes the pivot positive, so the elimination
    stays fraction-free without growing."""

    def __init__(self):
        self.rows = {}  # pivot column -> (vector, combination)
        self.scales = []

    def __len__(self):
        return len(self.scales)

    def _reduce(self, vec):
        # (den, rest, comb, s) with s * den * vec = rest + sum_k comb[k] u_k
        if all(type(v) is int for v in vec.values()):
            den = 1
            rest = {c: v for c, v in vec.items() if v}
        else:
            den = lcm(*(v.denominator for v in vec.values()))
            rest = {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}
        comb = {}
        s = 1
        rows = self.rows
        # pivots in ascending order; a row only reaches columns above its own
        todo = [c for c in rest if c in rows]
        heapify(todo)
        while todo:
            piv = heappop(todo)
            c = rest.get(piv)
            if not c:
                continue
            rvec, rcomb = rows[piv]
            for k in rvec:
                if k != piv and k in rows and k not in rest:
                    heappush(todo, k)
            a = rvec[piv]
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                rest = {k: a * v for k, v in rest.items()}
                if comb:
                    comb = {k: a * v for k, v in comb.items()}
                s *= a
            _sub_multiple(rest, c, rvec)
            _sub_multiple(comb, -c, rcomb)
        return den, rest, comb, s

    def _coords(self, den, comb, s):
        scales = self.scales
        return {k: _rational(v * scales[k], s * den) for k, v in comb.items()}

    def add(self, vec):
        """Add a vector.  None when it is independent of those before it (it
        becomes input len(self) - 1), else its coordinates over them."""
        den, rest, comb, s = self._reduce(vec)
        if not rest:
            return self._coords(den, comb, s)
        # rest = s u_new - sum_k comb[k] u_k, with u_new = den * vec
        comb = {k: -v for k, v in comb.items()}
        comb[len(self.scales)] = s
        self.scales.append(den)
        piv = min(rest)
        g = gcd(*rest.values(), *comb.values())
        if rest[piv] < 0:
            g = -g
        if g != 1:
            rest = {k: v // g for k, v in rest.items()}
            comb = {k: v // g for k, v in comb.items()}
        self.rows[piv] = (rest, comb)
        return None

    def solve(self, vec):
        """Coordinates of the vector over the inputs, as a dict input index ->
        int or Fraction, or None when it is outside their span."""
        den, rest, comb, s = self._reduce(vec)
        if rest:
            return None
        return self._coords(den, comb, s)


def _span_of(vecs):
    # the span of the vectors, with the position of each of its inputs
    span = _Span()
    keys = [c for c, vec in enumerate(vecs) if span.add(vec) is None]
    return span, keys


def leading_principal_minors(mat: Sequence[Sequence[int]]) -> list[int | None]:
    """[det(A_1), ..., det(A_n)] for the leading blocks of a square integer
    matrix, in one Bareiss pass.  The pass has no pivot to divide by after a
    zero minor, so it stops there: the minors after it are None (unknown)."""
    a = [list(row) for row in mat]
    n = len(a)
    minors: list[int | None] = [None] * n
    prev = 1
    for k in range(n):
        piv = a[k][k]
        minors[k] = piv
        if not piv:
            break
        # the division by the previous pivot is exact (Sylvester's identity)
        for i in range(k + 1, n):
            aik = a[i][k]
            row, top = a[i], a[k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - aik * top[j]) // prev
        prev = piv
    return minors
