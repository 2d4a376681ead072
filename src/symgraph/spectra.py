"""Eigenvalues of symmetric matrices and spectral checks for graph powers.

Eigenvalues come from ``numpy.linalg.eigvalsh`` (LAPACK's symmetric solver),
behind the size budget and a symmetry check of any matrix passed in.
Alongside it live the spectral predictors for powers: the product multiset,
the complete homogeneous trace formula, and the determinant power law, plus an
exact fraction-free determinant used as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, NamedTuple

import numpy as np

from .combinatorics import multiset_count
from .graphs import dense_matrix
from .power import _check_budget

DEFAULT_TOL = 1e-8


class JacobiConvergenceError(RuntimeError):
    """The eigensolver did not converge (LAPACK raised ``LinAlgError``)."""


@dataclass(frozen=True)
class Spectrum:
    """A multiset of real eigenvalues, stored sorted ascending."""

    values: tuple[float, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))
        if self.tol < 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tol}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def trace(self) -> float:
        return float(sum(self.values))

    def matches(self, other: "Spectrum") -> bool:
        return spectra_match(self, other)


class SignLogDet(NamedTuple):
    """A determinant as (sign, log of absolute value); sign 0 means zero."""

    sign: int
    logabs: float

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.logabs)

    def close_to(self, other: "SignLogDet", rel_tol: float = 1e-6) -> bool:
        if self.sign != other.sign:
            return False
        if self.sign == 0:
            return True
        return math.isclose(self.logabs, other.logabs, rel_tol=rel_tol, abs_tol=rel_tol)


def eigenvalues_symmetric(matrix, tol: float = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues of a dense symmetric matrix, by ``numpy.linalg.eigvalsh``.

    The entries must be finite, with |a_ij - a_ji| <= 1e-12 * max(1, max |a_ij|);
    such a matrix is solved as (A + A^T) / 2, which is A itself wherever A
    is symmetric.  A solver that fails to converge raises
    :class:`JacobiConvergenceError` rather than returning garbage.
    """
    a = np.asarray(matrix, dtype=np.float64)  # a float64 array is read, not copied
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    _check_budget(f"matrix dimension {a.shape[0]}", a.shape[0])
    if a.size == 0:
        return Spectrum((), tol)
    top, bottom = a.max(), a.min()  # nan and +-inf reach one of them
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # a gap past the float64 range is inf, and refused
        gap = a.T - a
    asym = max(gap.max(), -gap.min())
    if asym > 1e-12 * max(1.0, top, -bottom):
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    # A + (A^T - A) / 2: A's own bits where it is symmetric, and no overflow near the limit
    gap /= 2
    gap += a
    return _solved(gap, tol)


def eigenvalues_edges(n: int, blocks: Iterable[tuple]) -> Spectrum:
    """The eigenvalues of the n-vertex graph with weight w at each 1-based
    pair (u, v) of the blocks (u, v, w), refused past the budget before the
    matrix is built.  It is symmetric as built, so eigvalsh solves it as it is."""
    _check_budget(f"matrix dimension {n}", n)
    return _solved(dense_matrix(n, blocks, np.float64), DEFAULT_TOL)


def _solved(a: np.ndarray, tol: float) -> Spectrum:
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise JacobiConvergenceError(f"eigenvalue solver failed: {exc}") from exc
    return Spectrum(tuple(values.tolist()), tol)


def predicted_power_spectrum(spectrum: Spectrum, k: int) -> Spectrum:
    """Eigenvalues a power must have: all k-fold nondecreasing products.

    The result has multiset_count(n, k) entries for an n-point spectrum.
    """
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    values = []
    for combo in combinations_with_replacement(spectrum.values, k):
        prod = 1.0
        for x in combo:
            prod *= x
        values.append(prod)
    assert len(values) == multiset_count(len(spectrum.values), k)
    return Spectrum(tuple(values), spectrum.tol)


def trace_formula(spectrum: Spectrum, k: int) -> float:
    """Trace of the k-th power: the degree-k complete homogeneous polynomial.

    Evaluated by the Newton-style recurrence h_k = (1/k) * sum_j p_j h_{k-j}
    with power sums p_j of the input spectrum, which avoids enumerating the
    multiset_count(n, k) products.
    """
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    p = [0.0] * (k + 1)
    for j in range(1, k + 1):
        p[j] = float(sum(v**j for v in spectrum.values))
    h = [1.0] + [0.0] * k
    for m in range(1, k + 1):
        h[m] = sum(p[j] * h[m - j] for j in range(1, m + 1)) / m
    return h[k]


def det_formula(det_a: float, n: int, k: int) -> SignLogDet:
    """Determinant of the k-th power: det(A) raised to binomial(n+k-1, n).

    Returned in sign/log-magnitude form since the exponent is huge already
    for modest n and k.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    e = math.comb(n + k - 1, n)
    if det_a == 0:
        return SignLogDet(0, float("-inf"))
    sign = 1 if det_a > 0 else -1
    return SignLogDet(sign**e if sign < 0 else 1, e * math.log(abs(det_a)))


def sign_log_det(spectrum: Spectrum) -> SignLogDet:
    """Determinant of the matrix behind a spectrum, as sign and log-magnitude."""
    sign = 1
    logabs = 0.0
    for v in spectrum.values:
        if v == 0:
            return SignLogDet(0, float("-inf"))
        if v < 0:
            sign = -sign
        logabs += math.log(abs(v))
    return SignLogDet(sign, logabs)


def spectra_match(a: Spectrum, b: Spectrum) -> bool:
    """Multiset equality after sorting, at the looser of the two tolerances.

    Entries x, y match when |x - y| <= tol * max(1, |x|, |y|); the max(1, .)
    floor keeps tiny eigenvalues from demanding absurd relative accuracy.
    """
    if len(a) != len(b):
        return False
    tol = max(a.tol, b.tol)
    return all(abs(x - y) <= tol * max(1.0, abs(x), abs(y)) for x, y in zip(a.values, b.values))


def exact_determinant(matrix: Iterable[Iterable]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Accepts ints and Fractions: the rows are scaled to integers by the
    common denominator L of the entries, eliminated with exact integer
    division, and the result is divided by L^n.  Serves as the independent
    oracle for the determinant power law on rational inputs.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)  # the empty product
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    m = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            pivot = next((r for r in range(c + 1, n) if m[r][c] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return Fraction(sign * m[n - 1][n - 1], scale**n)
