"""Exact real weights of the form q * sqrt(r).

Power matrices of 0/1 graphs have entries that are rational multiples of a
single square root, so this tiny number type is enough to compare them
bit-for-bit.  Values are normalized to a canonical form: ``q`` rational and
``r`` a square-free positive integer (``r == 1`` for plain rationals, and
``q == 0, r == 1`` for zero).  Multiplication is closed; addition is closed
only when both operands share the same square-root class, and otherwise
degrades to an ordinary float carried with ``exact=False``.

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
    """Canonical q * sqrt(r).  Construct via :meth:`make` or the helpers.

    When ``exact`` is False the value went through a float fallback; ``q``
    then holds the exact binary value of that float and ``r`` is 1.
    """

    q: Fraction
    r: int
    exact: bool = True

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

    @staticmethod
    def inexact(value: float) -> "ExactWeight":
        return ExactWeight(Fraction(value), 1, exact=False)

    def __float__(self) -> float:
        if self.r == 1:
            return float(self.q)
        return float(self.q) * self.r**0.5

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    def __bool__(self) -> bool:
        return self.q != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactWeight):
            return (self.q, self.r, self.exact) == (other.q, other.r, other.exact)
        if isinstance(other, (int, Fraction)):
            return self.exact and self.r == 1 and self.q == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.r, self.exact))

    def __neg__(self) -> "ExactWeight":
        return ExactWeight(-self.q, self.r, self.exact)

    def __mul__(self, other) -> "ExactWeight":
        if isinstance(other, (int, Fraction)):
            other = ExactWeight.of(other)
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if not (self.exact and other.exact):
            return ExactWeight.inexact(float(self) * float(other))
        if self.q == 0 or other.q == 0:
            return ExactWeight(Fraction(0), 1)
        # r1, r2 square-free: their product has square part gcd(r1, r2)^2
        g = math.gcd(self.r, other.r)
        return ExactWeight(self.q * other.q * g, (self.r // g) * (other.r // g))

    __rmul__ = __mul__

    def __add__(self, other) -> "ExactWeight":
        if isinstance(other, (int, Fraction)):
            other = ExactWeight.of(other)
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if self.exact and other.exact:
            if self.q == 0:
                return other
            if other.q == 0:
                return self
            if self.r == other.r:
                s = self.q + other.q
                return ExactWeight(s, self.r) if s else ExactWeight(Fraction(0), 1)
        # incompatible square-root classes: exactness is lost and recorded
        return ExactWeight.inexact(float(self) + float(other))

    __radd__ = __add__

    def __sub__(self, other) -> "ExactWeight":
        if isinstance(other, (int, Fraction)):
            other = ExactWeight.of(other)
        if not isinstance(other, ExactWeight):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        return sqrt_token(self.q.numerator, self.q.denominator, self.r) if self.exact else repr(float(self.q))

    def __repr__(self) -> str:
        flag = "" if self.exact else ", exact=False"
        return f"ExactWeight({self.q!r}, {self.r}{flag})"
