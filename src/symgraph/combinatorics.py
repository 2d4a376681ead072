"""Enumeration, ranking, and counting of nondecreasing index tuples.

A nondecreasing k-tuple over {1..n} doubles as a size-k multiset of
vertices; these tuples index the rows and columns of every symmetric-power
matrix built by this package.  Two listing orders are supported:

* ``lex``   -- plain lexicographic order;
* ``paper`` -- the constant tuples (1,..,1), (2,..,2), ..., (n,..,n) first,
  then every remaining tuple in lexicographic order.

Ranking and unranking use combinadic arithmetic, never a walk over the full
enumeration: :func:`rank` and lex :func:`unrank` take O(n + k) loop steps,
one binomial each, and paper-order :func:`unrank` tries up to n first
entries at O(n + k) steps each, O(n * (n + k)) in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

ORDERS = ("lex", "paper")

# Counts beyond this are refused: every consumer allocates O(N) or O(N^2)
# structures, so an astronomically large count is always a mistake upstream.
COUNT_LIMIT = 2**63


class CountLimitError(OverflowError):
    """A requested count does not fit the supported 63-bit range."""


@dataclass(frozen=True)
class VertexMultiset:
    """A nondecreasing k-tuple of 1-based vertex indices over {1..n}."""

    entries: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        if len(self.entries) < 1:
            raise ValueError("tuple length must be >= 1")
        prev = 1
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError(f"entries must be ints, got {e!r}")
            if e < prev:
                raise ValueError(f"entries must be nondecreasing and >= 1: {self.entries}")
            prev = e
        if prev > self.n:
            raise ValueError(f"entry {prev} exceeds vertex count {self.n}")

    @property
    def k(self) -> int:
        return len(self.entries)

    def multiplicity(self) -> "MultiplicityVector":
        return multiplicity_vector(self)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


@dataclass(frozen=True)
class MultiplicityVector:
    """Occurrence counts of each vertex 1..n inside a k-tuple; sums to k."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 1:
            raise ValueError("counts must have length >= 1")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be nonnegative: {self.counts}")
        if sum(self.counts) < 1:
            raise ValueError("total count k must be >= 1")

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def k(self) -> int:
        return sum(self.counts)


def _check_order(order: str) -> None:
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {ORDERS}")


def multiset_count(n: int, k: int) -> int:
    """Number of nondecreasing k-tuples over {1..n}: binomial(n+k-1, k)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    count = math.comb(n + k - 1, k)
    if count >= COUNT_LIMIT:
        raise CountLimitError(
            f"multiset_count(n={n}, k={k}) = {count} exceeds the supported limit 2**63"
        )
    return count


def _sorted_tuples(n: int, k: int, order: str) -> list[tuple[int, ...]]:
    """The entries of ``enumerate_multisets(n, k, order)`` as plain tuples."""
    _check_order(order)
    multiset_count(n, k)  # validates arguments and the size guard
    tuples = list(combinations_with_replacement(range(1, n + 1), k))  # lex order
    if order == "paper":
        # nondecreasing, so constant iff first == last
        tuples = [(v,) * k for v in range(1, n + 1)] + [t for t in tuples if t[0] != t[-1]]
    return tuples


def enumerate_multisets(n: int, k: int, order: str = "paper") -> list[VertexMultiset]:
    """All N nondecreasing k-tuples over {1..n}, each exactly once.

    ``lex`` lists them lexicographically.  ``paper`` lists the n constant
    tuples first (in increasing vertex order) and then the remaining tuples
    lexicographically; this is the order used for printed power matrices.
    """
    return [VertexMultiset(t, n) for t in _sorted_tuples(n, k, order)]


def _lex_rank(entries: tuple[int, ...], n: int) -> int:
    """Lexicographic rank of a nondecreasing tuple among all such tuples."""
    k = len(entries)
    r = 0
    prev = 1
    for p, e in enumerate(entries):
        # tuples that agree up to position p and then take a smaller value v;
        # each leaves a nondecreasing (k-p-1)-tuple over {v..n} to fill in
        for v in range(prev, e):
            r += math.comb(n - v + k - p - 1, k - p - 1)
        prev = e
    return r


def _lex_unrank(r: int, n: int, k: int) -> tuple[int, ...]:
    entries = []
    prev = 1
    for p in range(k):
        v = prev
        while True:
            block = math.comb(n - v + k - p - 1, k - p - 1)
            if r < block:
                break
            r -= block
            v += 1
        entries.append(v)
        prev = v
    return tuple(entries)


def rank(t: VertexMultiset, order: str = "paper") -> int:
    """Position of ``t`` in ``enumerate_multisets(t.n, t.k, order)``."""
    _check_order(order)
    lex = _lex_rank(t.entries, t.n)
    if order == "lex":
        return lex
    if t.entries[0] == t.entries[-1]:  # constant tuple
        return t.entries[0] - 1
    # constants preceding t lexicographically are exactly (i,..,i) for i <= t[0]
    return t.n + lex - t.entries[0]


def unrank(r: int, n: int, k: int, order: str = "paper") -> VertexMultiset:
    """Inverse of :func:`rank` for the given order."""
    _check_order(order)
    count = multiset_count(n, k)
    if not 0 <= r < count:
        raise ValueError(f"rank {r} out of range [0, {count}) for n={n}, k={k}")
    if order == "lex":
        return VertexMultiset(_lex_unrank(r, n, k), n)
    if r < n:
        return VertexMultiset((r + 1,) * k, n)
    # invert the shift: lex rank is r - n + c where c is the first entry
    for c in range(1, n + 1):
        lex = r - n + c
        if not 0 <= lex < count:
            continue
        entries = _lex_unrank(lex, n, k)
        if entries[0] == c and entries[0] != entries[-1]:
            return VertexMultiset(entries, n)
    raise AssertionError(f"unrank failed for r={r}, n={n}, k={k}")  # pragma: no cover


def multiplicity_vector(t: VertexMultiset) -> MultiplicityVector:
    """Count how many times each vertex 1..n occurs in ``t``."""
    counts = [0] * t.n
    for e in t.entries:
        counts[e - 1] += 1
    return MultiplicityVector(tuple(counts))


def orbit_size(m: MultiplicityVector) -> int:
    """Number of distinct rearrangements of a tuple with these multiplicities.

    Computed as a product of binomials rather than a ratio of factorials, so
    intermediate values never exceed the final multinomial coefficient.
    """
    total = 0
    result = 1
    for c in m.counts:
        total += c
        result *= math.comb(total, c)
        if result >= COUNT_LIMIT:
            raise CountLimitError(
                f"orbit size for multiplicities {m.counts} exceeds the supported limit 2**63"
            )
    return result


def _distinct_permutations(counts: list[int]) -> list[tuple[int, ...]]:
    """All distinct sequences with counts[v] copies of vertex v+1, each once."""
    k = sum(counts)
    out: list[tuple[int, ...]] = []
    seq: list[int] = []

    def extend() -> None:
        if len(seq) == k:
            out.append(tuple(seq))
            return
        for v, c in enumerate(counts):
            if c:
                counts[v] = c - 1
                seq.append(v + 1)
                extend()
                seq.pop()
                counts[v] = c
    extend()
    return out


def enumerate_orbit(t: VertexMultiset) -> list[tuple[int, ...]]:
    """All distinct rearrangements of ``t.entries``, each exactly once.

    The result length equals ``orbit_size(multiplicity_vector(t))``; cost is
    proportional to that length, which grows like k! for all-distinct tuples.
    """
    return _distinct_permutations(list(multiplicity_vector(t).counts))
