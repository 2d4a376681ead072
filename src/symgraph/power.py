"""Symmetric tensor powers of weighted graphs and of permutations.

The power of a graph on n vertices at exponent k is a graph on the
N = binomial(n+k-1, k) sorted k-tuples of vertices.  Its adjacency matrix is
kept in factored form: an N x N ndarray core S, a common denominator L^k and
a vector D of orbit sizes; the materialized entry is
S[i, j] / (L^k * sqrt(D[i] * D[j])).  Keeping the three apart means 0/1 and
rational inputs stay exact all the way through.

Two independent kernels fill the core:

* ``orbit``     -- the defining double sum over all rearrangements of the two
                   index tuples.  Cost per entry is |orbit(i)| * |orbit(j)| * k;
                   slow and unimpeachable, so it serves as the reference.  It
                   tabulates all n^k ordered tuples and refuses with
                   :class:`SizeBudgetError` when n^k exceeds 2,000,000.
* ``permanent`` -- the symmetric power acting on degree-k polynomials (Bhatia,
                   *Matrix Analysis*, I.5): S[i][j] = D[i] times the coefficient
                   of x^m(j) in prod_a (sum_v A[i_a, v] x_v), where m(j) counts
                   the vertices of j.  The products are expanded one degree at
                   a time for all rows at once, n numpy updates per degree.
                   The method is named for the identity S[i][j] =
                   D[i] * D[j] / k! * perm(A[i_a, j_b]);
                   ``ryser_permanent`` and ``entry_permanent`` evaluate that
                   permanent per entry and serve as the oracle.

Rational input is scaled to integers by the common denominator L first, and
either kernel runs on the scaled matrix in int64 while a bound on every
intermediate stays below 2^62, on Python ints (``dtype=object``) past it.  The
``permanent`` bound is D_max * r^k, r being the largest absolute row sum of the
scaled matrix: no degree-d partial sum can exceed r^d.  The ``orbit`` bound is
D_max^2 * w_max^k.  Float input runs in float64; nonnegative weights then give
exact zeros in the ``permanent`` core wherever the exact power is zero, since
nothing is subtracted.  ``SymPowerMatrix.path`` says which of int64, object or
float64 ran.  Results are deterministic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .combinatorics import (
    VertexMultiset,
    enumerate_multisets,
    enumerate_orbit,
    multiset_count,
    orbit_size,
    rank,
)
from .exact import ExactWeight
from .graphs import WeightedGraph, dense_matrix, edge_arrays, symmetric_rows

METHODS = ("orbit", "permanent")

PERMANENT_CAP_DEFAULT = 20  # Ryser walks 2^k subsets; beyond this, refuse
DEFAULT_MAX_DIM = 5000
MAX_DIM_ENV = "SYMTENSOR_MAX_N"

# the orbit kernel tabulates all n^k ordered tuples; past this size it refuses
# before allocating, as its double sum would take over (n^k)^2 / 2 products
_ORDERED_TABLE_CAP = 2_000_000

_INT64_SAFE = 2**62

# elements in each temporary of one linear-form update: 128 KiB at 8 bytes,
# small enough to stay in cache, which measured faster than whole levels
_BLOCK_ELEMS = 1 << 14

# core entries scanned at a time for the nonzero upper-triangle pairs
_SUPPORT_BLOCK = 1 << 15

# bytes per object core entry: a Python int took about 68 at n=10, k=5
# (N=2002) with weights from 10^5 to 10^6
_OBJECT_ENTRY_BYTES = 68


class SizeBudgetError(ValueError):
    """The requested power dimension exceeds the configured budget."""


class PermanentCapError(ValueError):
    """The permanent's size exceeds Ryser's subset-enumeration cap."""


def _max_dim() -> int:
    return int(os.environ.get(MAX_DIM_ENV, str(DEFAULT_MAX_DIM)))


# ---------------------------------------------------------------------------
# index tables (cached per n, k, order)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _index_data(n: int, k: int, order: str) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Sorted tuples in the given order and their orbit sizes."""
    msets = enumerate_multisets(n, k, order)
    tuples = tuple(t.entries for t in msets)
    sizes = tuple(orbit_size(t.multiplicity()) for t in msets)
    return tuples, sizes


@lru_cache(maxsize=8)
def _orbit_arrays(n: int, k: int, order: str) -> tuple[np.ndarray, ...]:
    """0-based orbit index arrays, one (D_i, k) array per sorted tuple."""
    tuples, _ = _index_data(n, k, order)
    return tuple(
        np.array(enumerate_orbit(VertexMultiset(t, n)), dtype=np.int64) - 1 for t in tuples
    )


@lru_cache(maxsize=4)
def _ordered_table(n: int, k: int, order: str) -> tuple[np.ndarray, np.ndarray]:
    """All n^k ordered tuples (0-based) and the rank of each tuple's sorted form."""
    tuples, _ = _index_data(n, k, order)
    rank_by_tuple = {t: i for i, t in enumerate(tuples)}
    ordered = np.empty((n**k, k), dtype=np.int64)
    ranks = np.empty(n**k, dtype=np.int64)
    for idx, q in enumerate(product(range(1, n + 1), repeat=k)):
        ordered[idx] = q
        ranks[idx] = rank_by_tuple[tuple(sorted(q))]
    ordered -= 1
    return ordered, ranks


@lru_cache(maxsize=8)
def _linear_form_tables(n: int, k: int, order: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """Index arrays (parent, last, up) of the linear-form kernel, for d = 2..k.

    Rows and monomials of degree d are both ranked as the sorted d-tuples of
    ``_index_data(n, d, order)``.  Row r of degree d extends row ``parent[r]``
    of degree d-1 by the 0-based vertex ``last[r]``; ``up[m, u]`` is the rank
    of monomial m of degree d-1 times x_u.
    """
    levels = []
    prev = {t: i for i, t in enumerate(_index_data(n, 1, order)[0])}
    for d in range(2, k + 1):
        cur = {t: i for i, t in enumerate(_index_data(n, d, order)[0])}
        parent = np.array([prev[t[:-1]] for t in cur], dtype=np.intp)
        last = np.array([t[-1] - 1 for t in cur], dtype=np.intp)
        up = np.array(
            [[cur[tuple(sorted(t + (u,)))] for u in range(1, n + 1)] for t in prev],
            dtype=np.intp,
        )
        levels.append((parent, last, up))
        prev = cur
    return tuple(levels)


# ---------------------------------------------------------------------------
# Ryser permanents
# ---------------------------------------------------------------------------


def _ryser(rows: Sequence[Sequence]):
    """Permanent by inclusion-exclusion over column subsets, Gray-code order."""
    k = len(rows)
    sums = [0] * k
    total = 0
    prev = 0
    for g in range(1, 1 << k):
        gray = g ^ (g >> 1)
        j = (gray ^ prev).bit_length() - 1
        if gray & (gray ^ prev):
            for i in range(k):
                sums[i] += rows[i][j]
        else:
            for i in range(k):
                sums[i] -= rows[i][j]
        prev = gray
        prod = 1
        for s in sums:
            if not s:
                prod = 0
                break
            prod *= s
        if gray.bit_count() & 1:
            total -= prod
        else:
            total += prod
    return total if k % 2 == 0 else -total


def ryser_permanent(matrix, cap: int = PERMANENT_CAP_DEFAULT):
    """Permanent of a square matrix; refuses k > cap (2^k subset walk)."""
    rows = [list(r) for r in matrix]
    k = len(rows)
    if k == 0 or any(len(r) != k for r in rows):
        raise ValueError("permanent needs a nonempty square matrix")
    if k > cap:
        raise PermanentCapError(f"matrix size {k} exceeds the permanent cap {cap}")
    return _ryser(rows)


# ---------------------------------------------------------------------------
# per-entry kernels (the public oracle/fast pair)
# ---------------------------------------------------------------------------


def _rows_rational(rows: list[list]) -> bool:
    return all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for r in rows for x in r)


def _check_pair(rows: list[list], i: VertexMultiset, j: VertexMultiset) -> None:
    if i.n != j.n or i.k != j.k:
        raise ValueError(f"index tuples disagree: n={i.n} vs {j.n}, k={i.k} vs {j.k}")
    if len(rows) != i.n:
        raise ValueError(f"matrix is {len(rows)}x{len(rows)} but tuples are over n={i.n}")


def entry_orbit_sum(matrix, i: VertexMultiset, j: VertexMultiset):
    """One power-matrix entry by the defining double sum (the reference kernel).

    Sums the product of matrix entries over every pair of rearrangements of
    ``i`` and ``j``, then divides by sqrt of the two orbit sizes.  Cost is
    |orbit(i)| * |orbit(j)| * k.  Returns an :class:`ExactWeight` when the
    matrix is rational, a float otherwise.
    """
    rows = symmetric_rows(matrix)
    _check_pair(rows, i, j)
    total = 0
    for p in enumerate_orbit(i):
        for q in enumerate_orbit(j):
            prod = 1
            for x, y in zip(p, q):
                w = rows[x - 1][y - 1]
                if not w:
                    break
                prod *= w
            else:
                total += prod
    d = orbit_size(i.multiplicity()) * orbit_size(j.multiplicity())
    if _rows_rational(rows):
        return ExactWeight.make(Fraction(total, d), d)
    return total / math.sqrt(d)


def entry_permanent(matrix, i: VertexMultiset, j: VertexMultiset, cap: int = PERMANENT_CAP_DEFAULT):
    """One power-matrix entry via a k x k permanent (the fast kernel).

    Equals ``entry_orbit_sum`` exactly on rational inputs: the double sum
    collapses to perm(B) / sqrt(prod of multiplicity factorials), where
    B[a][b] = matrix[i_a][j_b].
    """
    rows = symmetric_rows(matrix)
    _check_pair(rows, i, j)
    k = i.k
    if k > cap:
        raise PermanentCapError(
            f"k={k} exceeds the permanent cap {cap}; use the orbit kernel instead"
        )
    sub = [[rows[x - 1][y - 1] for y in j.entries] for x in i.entries]
    perm = _ryser(sub)
    m = 1
    for c in i.multiplicity().counts:
        m *= math.factorial(c)
    for c in j.multiplicity().counts:
        m *= math.factorial(c)
    if _rows_rational(rows):
        return ExactWeight.make(Fraction(perm, m), m)
    return perm / math.sqrt(m)


# ---------------------------------------------------------------------------
# full-matrix cores
# ---------------------------------------------------------------------------


def _core_orbit_numpy(a_mat: np.ndarray, n: int, k: int, order: str, chunk: int = 8192):
    """Literal double sum for all entries, chunked per row.

    For row i the kernel materializes the product of k matrix entries for
    every (p, q) with p a rearrangement of tuple i and q ANY ordered tuple
    whose sorted form has rank >= i, then folds the q-axis by that rank.
    Work and memory are exactly the upper-triangle double-sum terms.  Runs in
    the dtype of ``a_mat``: int64, object or float64.
    """
    dtype = a_mat.dtype
    big = multiset_count(n, k)
    ordered, ranks = _ordered_table(n, k, order)
    orbits = _orbit_arrays(n, k, order)
    core = np.zeros((big, big), dtype=dtype)
    for a in range(big):
        orb = orbits[a]
        cols = np.nonzero(ranks >= a)[0]
        row_acc = np.zeros(big, dtype=dtype)
        for start in range(0, len(cols), chunk):
            sel = cols[start : start + chunk]
            q_idx = ordered[sel]
            terms = a_mat[orb[:, None, :], q_idx[None, :, :]]
            sums = terms.prod(axis=2).sum(axis=0)
            np.add.at(row_acc, ranks[sel], sums)
        core[a, a:] = row_acc[a:]
    core = core + np.triu(core, 1).T
    return core


def _core_linear_forms(a: np.ndarray, n: int, k: int, order: str) -> np.ndarray:
    """Core by expanding the product of linear forms, one degree at a time.

    Row t of the degree-d matrix holds the coefficients, over the degree-d
    monomials, of prod_a (sum_v a[t_a, v] x_v) for the sorted d-tuple t.  At
    d = k the coefficient of x^{m(j)} sums prod_a a[i_a, q_a] over the
    rearrangements q of j, so S_ij is D_i times it.  Every value is a sum of
    products of entries of ``a`` with no subtraction added, so the absolute
    values in a degree-d row sum to at most r^d (r the largest absolute row
    sum of ``a``), which bounds every intermediate, and nonnegative input
    keeps exact zeros in float64.  Runs in the dtype of ``a``: int64, object or float64.
    """
    coef = a.copy()
    for parent, last, up in _linear_form_tables(n, k, order):
        nxt = np.zeros((len(parent), len(parent)), dtype=a.dtype)
        # row blocks bound the three temporaries of the update below
        step = max(1, _BLOCK_ELEMS // coef.shape[1])
        for lo in range(0, len(parent), step):
            src = coef[parent[lo : lo + step]]
            weights = a[last[lo : lo + step]]
            out = nxt[lo : lo + step]
            for u in range(n):
                out[:, up[:, u]] += src * weights[:, u : u + 1]
        coef = nxt
    _, sizes = _index_data(n, k, order)
    coef *= np.array(sizes, dtype=a.dtype)[:, None]
    if coef.dtype == np.float64:
        # rounding differs between D_i c_ij and D_j c_ji: keep the upper triangle
        for i in range(1, len(sizes)):
            coef[i, :i] = coef[:i, i]
    return coef


def _int64_bound(method: str, k: int, scaled: np.ndarray, d_max: int) -> int:
    """Largest absolute value any int64 intermediate of the core can reach,
    for the integer matrix ``scaled`` held as Python ints."""
    magnitude = np.abs(scaled)
    if method == "orbit":
        # d_max^2 rearrangement pairs per entry, each a product of k weights
        return d_max * d_max * (magnitude.max() or 1) ** k
    # linear forms: a degree-d row's coefficients sum to at most r^d in absolute value
    return d_max * magnitude.sum(axis=1).max() ** k


@dataclass(frozen=True, eq=False)
class SymPowerMatrix:
    """The N x N power matrix in factored form: core, denominator, orbit sizes.

    ``core`` is an N x N ndarray whose dtype is ``path``: ``"int64"``,
    ``"object"`` (Python ints past the int64 bound) or ``"float64"``.  When
    ``exact`` (rational input weights) it holds integers and the core entry
    S[i][j] is core[i, j] / ``denominator``, ``denominator`` being L^k for the
    common denominator L of the input weights; float input has
    ``denominator`` 1.  The materialized entry is S[i][j] / sqrt(D[i] * D[j]).
    """

    n: int
    k: int
    order: str
    method: str
    exact: bool
    path: str
    denominator: int
    tuples: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]
    core: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.orbit_sizes)

    def core_entry(self, i: int, j: int):
        """S[i][j] as a Python int or Fraction when exact, else a float."""
        x = self.core.item(i, j)
        return x if self.denominator == 1 else Fraction(x, self.denominator)

    def entry(self, i: int, j: int) -> float:
        d = self.orbit_sizes[i] * self.orbit_sizes[j]
        return float(self.core_entry(i, j)) / math.sqrt(d)

    def entry_exact(self, i: int, j: int) -> ExactWeight:
        if not self.exact:
            raise ValueError("matrix was computed in float mode; exact entries unavailable")
        d = self.orbit_sizes[i] * self.orbit_sizes[j]
        return ExactWeight.make(Fraction(self.core.item(i, j), self.denominator * d), d)

    def _float_core(self, core: np.ndarray) -> np.ndarray:
        """Core entries as float64 S values, dividing by ``denominator`` exactly."""
        try:
            if self.denominator == 1:
                return core.astype(np.float64)
            # Python int division rounds once; float64 division would round
            # the numerator or L^k first once either passes 2^53
            return (core.astype(object) / self.denominator).astype(np.float64)
        except OverflowError:
            raise ValueError("a power entry is past the float64 range; entry_exact (power --exact) holds it") from None

    def to_dense(self) -> np.ndarray:
        """Materialize the float matrix E = S / sqrt(D outer D)."""
        d = np.array(self.orbit_sizes, dtype=np.float64)
        return self._float_core(self.core) / np.sqrt(np.outer(d, d))

    def upper_blocks(self, edges: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
        """0-based (rows, cols, weights) of the nonzero core entries with row <=
        col in (row, col) order, a block per about ``_SUPPORT_BLOCK`` entries
        scanned from the diagonal on, so no temporary grows with the N x N
        core.  Without ``edges`` the weights are None; with ``edges`` they are
        float64, bit-equal to ``to_dense()[rows, cols]``, and pairs whose
        weight underflows to 0.0 (no edge in ``to_dense``) are left out.
        An entry past the float64 range raises ValueError here, before the
        first block."""
        if edges and self.path == "object":
            self._float_core(np.array([self.core.min(), self.core.max()], dtype=object))
        return self._upper_blocks(edges)

    def _upper_blocks(self, edges: bool):
        d = np.array(self.orbit_sizes, dtype=np.float64)
        step = max(1, _SUPPORT_BLOCK // self.dim)
        for lo in range(0, self.dim, step):
            rows, cols = np.nonzero(self.core[lo : lo + step, lo:])
            upper = cols >= rows
            rows, cols = rows[upper] + lo, cols[upper] + lo
            if not edges:
                yield rows, cols, None
                continue
            weights = self._float_core(self.core[rows, cols]) / np.sqrt(d[rows] * d[cols])
            keep = weights != 0.0
            yield rows[keep], cols[keep], weights[keep]

    def upper_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero pairs of the float matrix with row <= col and their
        weights: the blocks of ``upper_blocks(edges=True)`` joined.

        Rows and cols are 0-based and sorted by (row, col), the order of
        ``WeightedGraph.edges()``, without building the N x N float matrix.
        """
        return tuple(map(np.concatenate, zip(*self.upper_blocks(edges=True))))

    def vertex_labels(self) -> tuple[str, ...]:
        return tuple(",".join(map(str, t)) for t in self.tuples)

    def to_graph(self) -> WeightedGraph:
        rows, cols, weights = self.upper_edges()
        edges = zip((rows + 1).tolist(), (cols + 1).tolist(), weights.tolist())
        return WeightedGraph(self.dim, edges, self.vertex_labels())


def sym_power(
    graph: WeightedGraph,
    k: int,
    method: str = "permanent",
    order: str = "paper",
    max_dim: int | None = None,
) -> SymPowerMatrix:
    """Adjacency matrix of the k-th symmetric tensor power of ``graph``.

    Rational input weights produce an exact core; any float weight switches
    the whole core to float64.  The result is deterministic for fixed
    arguments.  Raises :class:`SizeBudgetError` before allocating when the
    power dimension exceeds ``max_dim`` (default: the SYMTENSOR_MAX_N
    environment variable, else 5000), when the core would take more bytes
    than an int64 core of that dimension (8 bytes per int64 or float64
    entry, about 68 per object entry), and for ``method="orbit"`` when n^k
    exceeds 2,000,000.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    n = graph.n
    big = multiset_count(n, k)
    cap = _max_dim() if max_dim is None else max_dim
    if big > cap:
        raise SizeBudgetError(
            f"power dimension N={big} (n={n}, k={k}) exceeds the budget {cap}; "
            f"raise {MAX_DIM_ENV} to override"
        )
    if method == "orbit" and n**k > _ORDERED_TABLE_CAP:
        raise SizeBudgetError(
            f"the orbit kernel tabulates n^k = {n**k} ordered tuples (n={n}, k={k}), "
            f"more than its cap {_ORDERED_TABLE_CAP}; use the permanent kernel"
        )
    tuples, sizes = _index_data(n, k, order)
    u, v, w = edge_arrays(graph)
    exact = graph.is_rational
    denominator = 1
    if exact:
        scale = math.lcm(*(x.denominator for x in w))
        denominator = scale**k
        a = dense_matrix(n, u, v, w * scale // 1, object)  # Fraction // 1 is an int
        fits = _int64_bound(method, k, a, max(sizes)) < _INT64_SAFE
        path = "int64" if fits else "object"
        a = a.astype(path)
    else:
        path = "float64"
        a = dense_matrix(n, u, v, w, np.float64)
    # the bytes of an int64 core at the dimension budget bound every core;
    # only an object core, past 8 bytes an entry, can take more
    need, allowed = _OBJECT_ENTRY_BYTES * big * big, 8 * cap * cap
    if path == "object" and need > allowed:
        raise SizeBudgetError(f"the {path} core of N={big} (n={n}, k={k}) would take about {need:,} bytes, more than "
                              f"the {allowed:,} of an int64 core at the budget {cap}; raise {MAX_DIM_ENV} to override")
    kernel = _core_linear_forms if method == "permanent" else _core_orbit_numpy

    return SymPowerMatrix(
        n=n,
        k=k,
        order=order,
        method=method,
        exact=exact,
        path=path,
        denominator=denominator,
        tuples=tuples,
        orbit_sizes=sizes,
        core=kernel(a, n, k, order),
    )


def sym_power_graph(
    graph: WeightedGraph,
    k: int,
    method: str = "permanent",
    order: str = "paper",
    max_dim: int | None = None,
) -> WeightedGraph:
    """The power as a graph: one vertex per sorted tuple, labeled "i1,i2,...";
    edges are the nonzero matrix entries, diagonal entries become loops."""
    return sym_power(graph, k, method=method, order=order, max_dim=max_dim).to_graph()


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def _check_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    images = tuple(sigma)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
    return images


@dataclass(frozen=True)
class SymPermutation:
    """The permutation a vertex permutation induces on sorted-tuple ranks."""

    n: int
    k: int
    order: str
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection on ranks")

    @property
    def dim(self) -> int:
        return len(self.mapping)

    def apply(self, r: int) -> int:
        return self.mapping[r]

    def matrix(self) -> np.ndarray:
        """0/1 matrix M with M[x, mapping[x]] = 1."""
        m = np.zeros((self.dim, self.dim), dtype=np.int64)
        for x, y in enumerate(self.mapping):
            m[x, y] = 1
        return m


def sym_power_permutation(sigma: Sequence[int], k: int, order: str = "paper") -> SymPermutation:
    """Rank permutation sending each sorted tuple to the sorted image tuple.

    ``sigma`` lists 1-based images: vertex v maps to sigma[v-1].  The matrix
    of the result equals the symmetric power of the permutation matrix with
    entry (i, j) = 1 iff j = sigma(i).
    """
    images = _check_permutation(sigma)
    n = len(images)
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    msets = enumerate_multisets(n, k, order)
    mapping = []
    for t in msets:
        image = VertexMultiset(tuple(sorted(images[e - 1] for e in t.entries)), n)
        mapping.append(rank(image, order))
    return SymPermutation(n=n, k=k, order=order, mapping=tuple(mapping))


def permutation_matrix(sigma: Sequence[int]) -> list[list[int]]:
    """The (generally asymmetric) permutation matrix as nested lists."""
    images = _check_permutation(sigma)
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(images):
        rows[i][j - 1] = 1
    return rows


def relabel(graph: WeightedGraph, sigma: Sequence[int]) -> WeightedGraph:
    """Rename vertices: the new weight of (sigma(u), sigma(v)) is weight(u, v)."""
    images = _check_permutation(sigma)
    if len(images) != graph.n:
        raise ValueError(f"permutation length {len(images)} != vertex count {graph.n}")
    weights = {}
    for u, v, w in graph.edges():
        weights[(images[u - 1], images[v - 1])] = w
    labels = None
    if graph.labels is not None:
        out = [""] * graph.n
        for v in range(1, graph.n + 1):
            out[images[v - 1] - 1] = graph.labels[v - 1]
        labels = tuple(out)
    return WeightedGraph(graph.n, weights, labels)


# ---------------------------------------------------------------------------
# nesting across consecutive powers
# ---------------------------------------------------------------------------


def loop_injection(t: VertexMultiset, loop_vertex: int, k2: int) -> VertexMultiset:
    """Pad with copies of a looped vertex to lift a tuple from power k to k2."""
    if k2 < t.k:
        raise ValueError(f"target exponent {k2} below tuple length {t.k}")
    return VertexMultiset(tuple(sorted([*t.entries, *(loop_vertex,) * (k2 - t.k)])), t.n)


def edge_injection(t: VertexMultiset, u: int, v: int, steps: int) -> VertexMultiset:
    """Pad with ``steps`` copies of an adjacent pair, lifting k to k + 2*steps."""
    return VertexMultiset(tuple(sorted([*t.entries, *(u, v) * steps])), t.n)
