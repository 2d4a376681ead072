"""Exact real weights of the form q * sqrt(r).

An entry of the k-th power of a rational graph is a rational times one
square root, S_ij / (L^k * sqrt(D_i * D_j)) with D the orbit sizes, so this
value type is enough to compare such entries bit for bit.  It is built,
compared, hashed and printed, and carries no arithmetic.  Values are
normalized to a canonical form: ``q`` rational and ``r`` a square-free
positive integer (``r == 1`` for plain rationals, and ``q == 0, r == 1`` for
zero), so that equal values have equal fields, and a rational one equals and
hashes as the int or ``Fraction`` it is.

Normalization factors ``r`` by trial division, which is fine for the orbit
counts this package produces (at most (k!)^2 for small k) but would crawl on
adversarial 60-bit semiprimes.  :func:`sqrt_token` is the one writer of the
``q*sqrt(r)`` text: ``str`` calls it, and so does ``power --exact`` on ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def square_free_split(r: int) -> tuple[int, int]:
    """Return (s, d) with r = s*s*d and d square-free, for r >= 1."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    s, d, m = 1, 1, r
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * m  # leftover m is 1 or prime


def sqrt_token(a: int, b: int, r: int) -> str:
    """a/b * sqrt(r) (b >= 1, r square-free) in lowest terms: a, a/b, sqrt(r), a*sqrt(r) or a/b*sqrt(r)."""
    g = math.gcd(a, b)
    q = str(a // g) if b == g else f"{a // g}/{b // g}"
    return q if r == 1 else f"sqrt({r})" if q == "1" else f"{q}*sqrt({r})"


@dataclass(frozen=True, eq=False)
class ExactWeight:
    """Canonical q * sqrt(r).  Construct via :meth:`make` or the helpers."""

    q: Fraction
    r: int

    @staticmethod
    def make(q, r=1) -> "ExactWeight":
        """Normalize q * sqrt(r) with q, r rational and r >= 0."""
        q = Fraction(q)
        r = Fraction(r)
        if r < 0:
            raise ValueError(f"radicand must be nonnegative, got {r}")
        if q == 0 or r == 0:
            return ExactWeight(Fraction(0), 1)
        # sqrt(a/b) = sqrt(a*b) / b
        q = q / r.denominator
        s, d = square_free_split(r.numerator * r.denominator)
        return ExactWeight(q * s, d)

    @staticmethod
    def of(q) -> "ExactWeight":
        return ExactWeight.make(q, 1)

    @staticmethod
    def sqrt(r) -> "ExactWeight":
        return ExactWeight.make(1, r)

    def __float__(self) -> float:
        if self.r == 1:
            return float(self.q)
        return float(self.q) * self.r**0.5

    def __bool__(self) -> bool:
        return self.q != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactWeight):
            return (self.q, self.r) == (other.q, other.r)
        if isinstance(other, (int, Fraction)):
            return self.r == 1 and self.q == other
        return NotImplemented

    def __hash__(self) -> int:
        # a rational hashes as the int or Fraction it equals
        return hash(self.q) if self.r == 1 else hash((self.q, self.r))

    def __str__(self) -> str:
        return sqrt_token(self.q.numerator, self.q.denominator, self.r)

    def __repr__(self) -> str:
        return f"ExactWeight({self.q!r}, {self.r})"
