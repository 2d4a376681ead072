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
                   tabulates all n^k ordered tuples, the orbits of
                   ``enumerate_orbit`` back to back, and refuses with
                   :class:`SizeBudgetError` when n^k exceeds 2,000,000.
* ``permanent`` -- the symmetric power acting on degree-k polynomials (Bhatia,
                   *Matrix Analysis*, I.5): S[i][j] = D[i] times the coefficient
                   of x^m(j) in prod_a (sum_v A[i_a, v] x_v), where m(j) counts
                   the vertices of j.  The products are expanded one degree at
                   a time for all rows at once: each entry of degree d gathers
                   its at most min(d, n) terms from degree d-1.  The last
                   degree comes out a block of rows at a time, and when A is
                   symmetric each block holds only the columns from its
                   first row on.  ``sym_power`` fills one core with the
                   blocks and mirrors its upper triangle;
                   ``sym_power_upper_blocks`` turns each block into edges as
                   it comes, so ``power`` never holds the N x N core.  The
                   expansion starts at k = 2: Sym^1 is the scaled matrix.
                   The method is named for the identity S[i][j] =
                   D[i] * D[j] / k! * perm(A[i_a, j_b]);
                   ``ryser_permanent`` and ``entry_permanent`` evaluate that
                   permanent per entry and serve as the oracle.

The per-entry oracles ``entry_orbit_sum`` and ``entry_permanent`` take any
square matrix, symmetric or not, since Sym^k(A) is defined for every square
A; the permutation suite feeds them permutation matrices.  The one size
setting, ``SYMTENSOR_MAX_N`` (default 5000), is read by ``_check_budget``
alone: it caps N, and what an object-path kernel holds (``_object_bytes``)
at the bytes of an int64 core at that N.

Rational input is scaled to integers by the common denominator L first, and
either kernel runs on the scaled matrix in int64 while a bound on every
intermediate stays below 2^62, on Python ints (``dtype=object``) past it.  The
bound is D_max * r^k for both (``_core_bound``), r being the largest absolute
row sum of the scaled matrix.  Float input runs in float64; nonnegative weights
then give exact zeros in the ``permanent`` core wherever the exact power is
zero, since nothing is subtracted.  ``SymPowerMatrix.path`` says which of
int64, object or float64 ran.  Results are deterministic.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .combinatorics import COUNT_LIMIT, VertexMultiset, _sorted_tuples, enumerate_orbit, multiset_count, orbit_size
from .exact import ExactWeight, sqrt_token, square_free_split
from .graphs import WeightedGraph, all_rational, dense_matrix, edge_arrays, square_rows

METHODS = ("orbit", "permanent")

PERMANENT_CAP = 20  # Ryser walks 2^k subsets; beyond this, refuse

# the orbit kernel tabulates all n^k ordered tuples; past this size it refuses
# before allocating, as its double sum would take over (n^k)^2 / 2 products
_ORDERED_TABLE_CAP = 2_000_000

# ordered tuples the orbit kernel pairs with one row's orbit at a time
_ORBIT_CHUNK = 8192

_INT64_SAFE = 2**62

# a streamed power skips its float64-range check pass when the kernel's bound
# on every core entry, over L^k, is below this; the margin under 2^1024
# covers float64 rounding
_FLOAT_SAFE = 2**1000

# elements in each temporary of one linear-form update: 128 KiB at 8 bytes,
# small enough to stay in cache, which measured faster than whole levels
_BLOCK_ELEMS = 1 << 14

# rows per tile of the mirror that copies a symmetric core's upper triangle
# over its lower one: each transposed read takes 64 entries of a row
_MIRROR_TILE = 64

# core entries scanned at a time for the nonzero upper-triangle pairs
_SUPPORT_BLOCK = 1 << 15


class SizeBudgetError(ValueError):
    """A size past the SYMTENSOR_MAX_N budget or the orbit kernel's table cap."""


class PermanentCapError(ValueError):
    """The permanent's size exceeds Ryser's subset-enumeration cap."""


def _check_budget(what: str, dim: int = 0, held: int = 0) -> None:
    """Refuse ``what`` with :class:`SizeBudgetError` when its dimension
    ``dim`` passes SYMTENSOR_MAX_N (default 5000), or when the ``held`` bytes
    it would hold pass the 8 * SYMTENSOR_MAX_N^2 bytes of an int64 core there."""
    cap = int(os.environ.get("SYMTENSOR_MAX_N", "5000"))
    if dim > cap or held > 8 * cap * cap:
        over = (f"exceeds the budget {cap}" if dim > cap else f"would take about {held:,} bytes, more than the "
                f"{8 * cap * cap:,} of an int64 core at the budget {cap}")
        raise SizeBudgetError(f"{what} {over}; raise SYMTENSOR_MAX_N to override")


# ---------------------------------------------------------------------------
# index tables (cached per n, k, order)
# ---------------------------------------------------------------------------


def _ranks(t: np.ndarray, n: int, order: str) -> np.ndarray:
    """Ranks of the rows of ``t``, sorted 0-based d-tuples over n vertices,
    in ``enumerate_multisets(n, d, order)``.

    The lex rank is the combinadic sum of ``combinatorics.rank`` a column at
    a time: below[p, x] counts the tuples that agree with a row before
    position p and hold a value under x there.
    """
    d = t.shape[1]
    below = np.zeros((d, n + 1), dtype=np.int64)
    for p in range(d):
        rest = d - p - 1
        below[p, 1:] = np.cumsum([math.comb(n - x + rest - 1, rest) for x in range(n)])
    lex = below[np.arange(d), t].sum(axis=1) - below[np.arange(1, d), t[:, :-1]].sum(axis=1)
    if order == "lex":
        return lex
    first = t[:, 0]
    # paper order: the n constant tuples, then the rest in lex order
    return np.where(first == t[:, -1], first, n - 1 + lex - first)


@lru_cache(maxsize=64)
def _index_tables(n: int, k: int, order: str) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], np.ndarray]:
    """The sorted tuples of ``enumerate_multisets(n, k, order)``, their orbit
    sizes, and the tuples as an (N, k) array of 0-based vertices.  A size may
    pass ``COUNT_LIMIT``: the power refuses it (``_scaled``), while a
    permutation power reads the tuples alone."""
    tuples = _sorted_tuples(n, k, order)
    table = np.fromiter(chain.from_iterable(tuples), dtype=np.intp, count=len(tuples) * k).reshape(-1, k) - 1
    # k! / prod(m_v!) as a product over positions: position p brings a factor
    # (p + 1) / run, run counting the copies of its vertex at positions <= p.
    # Each partial product is an orbit size of a prefix, at most min(k!, n^k);
    # Python ints hold them when k times that could pass int64
    dtype = np.int64 if min(math.factorial(k), n**k) * k < COUNT_LIMIT else object
    sizes = np.ones(len(tuples), dtype=dtype)
    run = np.ones(len(tuples), dtype=dtype)
    for p in range(1, k):
        run = np.where(table[:, p] == table[:, p - 1], run + 1, 1).astype(dtype)
        sizes = sizes * (p + 1) // run
    return tuple(tuples), tuple(sizes.tolist()), table


@lru_cache(maxsize=4)
def _ordered_table(n: int, k: int, order: str) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """All n^k ordered tuples (0-based), the rank of each tuple's sorted form,
    and the orbit of each rank, a (D_i, k) view of the tuples: the tuples
    are the orbits of ``enumerate_orbit`` back to back in rank order."""
    tuples, sizes, _ = _index_tables(n, k, order)
    listed = chain.from_iterable(enumerate_orbit(VertexMultiset(t, n)) for t in tuples)
    ordered = np.fromiter(chain.from_iterable(listed), dtype=np.int64, count=n**k * k).reshape(-1, k) - 1
    ranks = np.repeat(np.arange(len(tuples)), sizes)
    return ordered, ranks, tuple(np.split(ordered, np.cumsum(sizes)[:-1]))


@lru_cache(maxsize=64)
def _linear_form_tables(n: int, d: int, order: str) -> tuple[np.ndarray, ...]:
    """Index arrays (parent, last, pred, vert) of the linear-form kernel at degree d >= 2.

    Rows and monomials of degree d are both ranked as the sorted d-tuples of
    ``_index_tables(n, d, order)``.  Row r extends row ``parent[r]`` of degree
    d-1 by the 0-based vertex ``last[r]``.  Monomial j is x_u times the
    degree-(d-1) monomial ``pred[s, j]`` for its s-th distinct vertex
    u = ``vert[s, j]``, in ascending u; its slots past its distinct vertices
    hold the sentinels N_{d-1} and n, a zero column of each operand.  One
    ``_ranks`` call ranks every removal of a distinct vertex from every row.
    """
    t = _index_tables(n, d, order)[2]
    # a run's first position stands for its vertex: removing any copy gives the same tuple
    starts = np.ones(t.shape, dtype=bool)
    starts[:, 1:] = t[:, 1:] != t[:, :-1]
    counts = np.cumsum(starts, axis=1)
    rows, pos = np.nonzero(starts)  # row by row, positions ascending
    slot = counts[rows, pos] - 1
    rest = np.arange(d - 1)
    removed = _ranks(t[rows[:, None], rest + (rest >= pos[:, None])], n, order)
    # a row's last removal takes a copy of its last vertex, which leaves the row it extends
    parent = removed[np.cumsum(counts[:, -1]) - 1]
    pred = np.full((min(d, n), len(t)), multiset_count(n, d - 1), dtype=np.intp)
    vert = np.full((min(d, n), len(t)), n, dtype=np.intp)
    pred[slot, rows] = removed
    vert[slot, rows] = t[rows, pos]
    return parent, t[:, -1], pred, vert


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


def ryser_permanent(matrix):
    """Permanent of a square matrix; refuses k > PERMANENT_CAP (2^k subset walk)."""
    rows = [list(r) for r in matrix]
    k = len(rows)
    if k == 0 or any(len(r) != k for r in rows):
        raise ValueError("permanent needs a nonempty square matrix")
    if k > PERMANENT_CAP:
        raise PermanentCapError(f"matrix size {k} exceeds the permanent cap {PERMANENT_CAP}")
    return _ryser(rows)


# ---------------------------------------------------------------------------
# per-entry kernels (the public oracle/fast pair)
# ---------------------------------------------------------------------------


def _check_pair(rows: list[list], i: VertexMultiset, j: VertexMultiset) -> None:
    if i.n != j.n or i.k != j.k:
        raise ValueError(f"index tuples disagree: n={i.n} vs {j.n}, k={i.k} vs {j.k}")
    if len(rows) != i.n:
        raise ValueError(f"matrix is {len(rows)}x{len(rows)} but tuples are over n={i.n}")


def _read_matrix(matrix) -> tuple[list[list], bool]:
    """The rows of a square matrix as Python numbers and whether all of them
    are rational: what the per-entry kernels read, once per matrix."""
    rows = square_rows(matrix)
    return rows, all_rational(chain.from_iterable(rows))


def entry_orbit_sum(matrix, i: VertexMultiset, j: VertexMultiset):
    """One entry of Sym^k(matrix) by the defining double sum (the reference kernel).

    Sums the product of matrix entries over every pair of rearrangements of
    ``i`` and ``j``, then divides by sqrt of the two orbit sizes.  The
    matrix may be any square matrix, symmetric or not.  Cost is
    |orbit(i)| * |orbit(j)| * k.  Returns an :class:`ExactWeight` when the
    matrix is rational, a float otherwise.
    """
    return _entry_orbit_sum(*_read_matrix(matrix), i, j)


def _entry_orbit_sum(rows: list[list], rational: bool, i: VertexMultiset, j: VertexMultiset):
    """``entry_orbit_sum`` on the rows and rationality of ``_read_matrix``."""
    _check_pair(rows, i, j)
    total = 0
    orbit_j = enumerate_orbit(j)
    for p in enumerate_orbit(i):
        for q in orbit_j:
            prod = 1
            for x, y in zip(p, q):
                w = rows[x - 1][y - 1]
                if not w:
                    break
                prod *= w
            else:
                total += prod
    d = orbit_size(i.multiplicity()) * orbit_size(j.multiplicity())
    if rational:
        return ExactWeight.make(Fraction(total, d), d)
    return total / math.sqrt(d)


def entry_permanent(matrix, i: VertexMultiset, j: VertexMultiset):
    """One entry of Sym^k(matrix) via a k x k permanent (the per-entry oracle).

    Equals ``entry_orbit_sum`` exactly on rational square matrices: the
    double sum collapses to perm(B) / sqrt(prod of multiplicity factorials),
    where B[a][b] = matrix[i_a][j_b].  Refuses k > PERMANENT_CAP.
    """
    return _entry_permanent(*_read_matrix(matrix), i, j)


def _entry_permanent(rows: list[list], rational: bool, i: VertexMultiset, j: VertexMultiset):
    """``entry_permanent`` on the rows and rationality of ``_read_matrix``."""
    _check_pair(rows, i, j)
    k = i.k
    if k > PERMANENT_CAP:
        raise PermanentCapError(
            f"k={k} exceeds the permanent cap {PERMANENT_CAP}; use the orbit kernel instead"
        )
    sub = [[rows[x - 1][y - 1] for y in j.entries] for x in i.entries]
    perm = _ryser(sub)
    m = 1
    for c in i.multiplicity().counts:
        m *= math.factorial(c)
    for c in j.multiplicity().counts:
        m *= math.factorial(c)
    if rational:
        return ExactWeight.make(Fraction(perm, m), m)
    return perm / math.sqrt(m)


# ---------------------------------------------------------------------------
# full-matrix cores
# ---------------------------------------------------------------------------


def _core_orbit_numpy(a_mat: np.ndarray, n: int, k: int, order: str):
    """Literal double sum for all entries, chunked per row.

    For row i the kernel materializes the product of k matrix entries for
    every (p, q) with p a rearrangement of tuple i and q ANY ordered tuple
    whose sorted form has rank >= i (the tuples from orbit(i) on), sums over
    p and folds the q-axis by rank, so entry (i, j) adds its terms in the
    order of orbit(j).  Work and memory are exactly the upper-triangle
    double-sum terms.  Each row is written to both triangles, which share an
    object core's ints.  Runs in the dtype of ``a_mat``: int64, object or
    float64.
    """
    ordered, ranks, orbits = _ordered_table(n, k, order)
    big = len(orbits)
    core = np.zeros((big, big), dtype=a_mat.dtype)
    start = 0
    for a, orb in enumerate(orbits):
        row = np.zeros(big, dtype=a_mat.dtype)
        for lo in range(start, len(ordered), _ORBIT_CHUNK):
            terms = a_mat[orb[:, None, :], ordered[None, lo : lo + _ORBIT_CHUNK, :]]
            np.add.at(row, ranks[lo : lo + _ORBIT_CHUNK], terms.prod(axis=2).sum(axis=0))
        core[a, a:] = core[a:, a] = row[a:]
        start += len(orb)
    return core


def _is_symmetric(a: np.ndarray) -> bool:
    return bool((a == a.T).all())


def _gather(out: np.ndarray, coef: np.ndarray, weights: np.ndarray, tables: tuple[np.ndarray, ...], lo: int,
            first: int, terms: np.ndarray, factors: np.ndarray) -> None:
    """Add rows lo:lo+len(out) of the next degree, columns from ``first`` on,
    to ``out``: entry (r, j) gains coef[parent[r], pred[s, j]] *
    weights[last[r], vert[s, j]] for each slot s in turn.  ``terms`` and
    ``factors`` hold the two temporaries."""
    parent, last, pred, vert = tables
    hi = lo + len(out)
    src, row_weights = coef[parent[lo:hi]], weights[last[lo:hi]]
    got, factor = terms[: out.size].reshape(out.shape), factors[: out.size].reshape(out.shape)
    for s in range(len(pred)):
        # every index is in range; "clip" lets take write into out unbuffered
        src.take(pred[s, first:], axis=1, out=got, mode="clip")
        row_weights.take(vert[s, first:], axis=1, out=factor, mode="clip")
        np.multiply(got, factor, out=got)
        np.add(out, got, out=out)


def _linear_form_blocks(a: np.ndarray, n: int, k: int, order: str,
                        whole: Callable[[np.ndarray], None] | None = None) -> Iterator[tuple[int, int, np.ndarray]]:
    """The core S of Sym^k(a), k >= 2, by expanding the product of linear
    forms, one degree at a time, yielded as the last degree's row blocks
    (lo, first, block): rows lo:lo+len(block) of S, columns from ``first`` on.

    Row t of the degree-d matrix holds the coefficients, over the degree-d
    monomials, of prod_a (sum_v a[t_a, v] x_v) for the sorted d-tuple t.  At
    d = k the coefficient of x^{m(j)} sums prod_a a[i_a, q_a] over the
    rearrangements q of j, so S_ij is D_i times it.  Each entry of degree d
    gathers its terms from its predecessors (``_linear_form_tables``):
    entry (r, j) sums coef[parent[r], j / x_u] * a[last[r], u] over the
    distinct vertices u of j, ascending, onto +0.0.  When ``a`` equals its
    transpose, S is symmetric and each block starts at its first row
    (first = lo); otherwise it holds every column (first = 0).

    Every value is a sum of products of entries of ``a`` with no subtraction
    added, so the absolute values in a degree-d row sum to at most r^d (r the
    largest absolute row sum of ``a``), which bounds every intermediate, and
    nonnegative input keeps exact zeros in float64.  Runs in the dtype of
    ``a``: int64, object or float64.

    The lower degrees are held whole, the last one a block at a time: each
    block is scratch, overwritten by the next one, unless ``whole`` is given.
    Then the N x N last degree is allocated once the lower degrees are done,
    handed to ``whole``, and every block is a view of it.
    """
    upper = _is_symmetric(a)
    # a with a zero column: the degree-1 coefficients, and the weights of every degree
    coef = np.zeros((n, n + 1), dtype=a.dtype)
    coef[:, :n] = a
    weights = coef
    sizes = np.array(_index_tables(n, k, order)[1], dtype=a.dtype)[:, None]
    big = len(sizes)
    # the update's temporaries: a row block of _BLOCK_ELEMS entries, or one
    # row, and never more than the whole last degree
    room = min(max(_BLOCK_ELEMS, big), big**2)
    terms, factors = np.empty(room, dtype=a.dtype), np.empty(room, dtype=a.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(2, k):
            tables = _linear_form_tables(n, d, order)
            size = len(tables[0])
            # a zero column past the monomials serves the next degree's padding
            nxt = np.zeros((size, size + 1), dtype=a.dtype)
            # the rows gathered from the degree below stay within the bound too
            step = max(1, _BLOCK_ELEMS // max(size, coef.shape[1]))
            for lo in range(0, size, step):
                _gather(nxt[lo : lo + step, :size], coef, weights, tables, lo, 0, terms, factors)
            coef = nxt
    tables = _linear_form_tables(n, k, order)
    if whole is None:
        scratch = np.empty(room, dtype=a.dtype)
    else:
        top = np.zeros((big, big), dtype=a.dtype)
        whole(top)
    lo = 0
    while lo < big:
        first = lo if upper else 0
        width = big - first
        hi = min(big, lo + max(1, _BLOCK_ELEMS // max(width, coef.shape[1])))
        if whole is None:
            block = scratch[: (hi - lo) * width].reshape(hi - lo, width)
            block.fill(0)
        else:
            block = top[lo:hi, first:]
        with np.errstate(over="ignore", invalid="ignore"):
            _gather(block, coef, weights, tables, lo, first, terms, factors)
            np.multiply(block, sizes[lo:hi], out=block)  # S_ij = D_i times the coefficient
        yield lo, first, block
        lo = hi


def _core_linear_forms(a: np.ndarray, n: int, k: int, order: str) -> np.ndarray:
    """The whole core of ``_linear_form_blocks``: its blocks are filled in
    place in one N x N array.  When ``a`` is symmetric the upper triangle is
    then mirrored, which in float64 also keeps D_i c_ij over D_j c_ji.  At
    k = 1 the core is ``a`` itself: S = A, every orbit size being 1."""
    if k == 1:
        return a
    top: list[np.ndarray] = []
    for _ in _linear_form_blocks(a, n, k, order, top.append):
        pass
    (core,) = top
    if _is_symmetric(a):
        _mirror_upper(core)
    return core


def _mirror_upper(core: np.ndarray) -> None:
    """Copy the upper triangle of a square matrix over its lower one, in
    tiles of _MIRROR_TILE rows so that the transposed reads stay contiguous."""
    size = len(core)
    lower = np.tri(min(size, _MIRROR_TILE), k=-1, dtype=bool)
    for lo in range(0, size, _MIRROR_TILE):
        hi = min(lo + _MIRROR_TILE, size)
        if lo:
            core[lo:hi, :lo] = core[:lo, lo:hi].T
        tile = core[lo:hi, lo:hi]
        np.copyto(tile, tile.T, where=lower[: hi - lo, : hi - lo])


def _core_bound(k: int, n: int, blocks: Iterable[tuple], d_max: int, dtype):
    """D_max * r^k in ``dtype`` (object for Python ints, or float64), r the largest absolute
    row sum of the scaled n x n matrix with each block's w at its 1-based (u, v) and (v, u):
    each |w| is added to both ends of its pair, a loop's once, so no n x n array is read.
    No intermediate of either kernel is larger in absolute value.
    A degree-d row of linear-form coefficients sums to at most r^d in
    absolute value.  Every intermediate of the orbit kernel (a k-fold
    product, a sum over p for one q, a partial sum of ``np.add.at``) is a
    partial sum of S_ij's terms, so at most S_ij(|scaled|) =
    D_i * coef_ij(|scaled|) <= D_max * r^k."""
    sums = np.zeros(n, dtype=dtype)
    for u, v, w in blocks:
        size = np.abs(w.astype(dtype, copy=False))
        np.add.at(sums, u - 1, size)
        size[u == v] = 0
        np.add.at(sums, v - 1, size)
    return d_max * sums.max() ** k


def _float_values(values: np.ndarray, denominator: int) -> np.ndarray:
    """Core entries as float64 S values, dividing by ``denominator`` exactly."""
    try:
        if denominator == 1:
            return values.astype(np.float64)
        # Python int division rounds once; float64 division would round
        # the numerator or L^k first once either passes 2^53
        return (values.astype(object) / denominator).astype(np.float64)
    except OverflowError:
        raise ValueError("a power entry is past the float64 range; entry_exact (power --exact) holds it") from None


def _check_float_range(pieces: Iterable[tuple[int, int, np.ndarray]], path: str, denominator: int,
                       bound=math.inf) -> None:
    """Refuse core entries whose S value is past the float64 range: an exact
    entry too large for a float, or a float inf or nan.  The pieces are read
    unless the core is int64 or ``bound`` on every entry, over L^k, rules it out."""
    if path == "int64" or bound < _FLOAT_SAFE * denominator:
        return
    for _, _, values in pieces:
        ends = _float_values(np.array([values.min(), values.max()], dtype=object), denominator)
        if not np.isfinite(ends).all():
            raise ValueError("a power entry is past the float64 range")


def _edge_blocks(pieces: Iterable[tuple[int, int, np.ndarray]], sizes: tuple[int, ...], denominator: int,
                 exact: bool) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | tuple]]:
    """The nonzero entries with row <= col of a core given as pieces (lo, first, block): rows
    lo:lo+len(block), columns from ``first`` on, in row order, as the graph file's blocks (u, v, w),
    u and v naming the 1-based vertices of row and col.  A piece is read before the next one is
    asked for, and consecutive pieces are joined while they scan at most ``_SUPPORT_BLOCK``
    entries together, so every block is one writer block.  A vertex is its row or col plus 1,
    added where the pieces are joined, and ``d`` and ``radicand`` are indexed by vertex, slot 0 unused.

    The weights are float64 S_ij / sqrt(D_i * D_j), bit-equal to ``SymPowerMatrix.to_dense()``,
    with the pairs whose weight underflows to 0.0 left out; with ``exact`` they are (index,
    texts): the ``str(entry_exact)`` of each distinct (S_ij, D_i * D_j) of a block, from the ints
    S_ij / (L^k * s * f) and f, where D_i * D_j = s^2 * f with f square-free, split once a block.
    """
    d = np.array((1, *sizes), dtype=np.float64)
    radicand = np.array((1, *sizes), dtype=np.int64 if max(sizes) ** 2 < 2**63 else object)  # D_i * D_j must not wrap

    def weighted(rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        if exact:
            radicands = radicand[rows] * radicand[cols]
            _, s_at = np.unique(values, return_inverse=True)
            d_values, d_at = np.unique(radicands, return_inverse=True)
            _, first, index = np.unique(s_at * len(d_values) + d_at, return_index=True, return_inverse=True)
            radicals = [(denominator * s * f, f) for s, f in map(square_free_split, d_values.tolist())]
            texts = [sqrt_token(x, *radicals[at]) for x, at in zip(values[first].tolist(), d_at[first].tolist())]
            return rows, cols, (index, texts)
        w = _float_values(values, denominator)
        root = d[rows]
        root *= d[cols]
        w /= np.sqrt(root, out=root)
        keep = w != 0.0
        if keep.all():
            return rows, cols, w
        return rows[keep], cols[keep], w[keep]

    parts, scanned = [], 0
    for lo, first, block in chain(pieces, [(0, 0, None)]):
        if parts and (block is None or scanned + block.size > _SUPPORT_BLOCK):
            rows, cols, values = (np.concatenate(x) for x in zip(*parts))
            parts, scanned = [], 0
            yield weighted(rows, cols, values)
        if block is not None:
            rows, cols = np.nonzero(block)
            upper = cols + first >= rows + lo
            rows, cols = rows[upper], cols[upper]
            parts.append((rows + (lo + 1), cols + (first + 1), block[rows, cols]))
            scanned += block.size


def _upper_pieces(core: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """The upper part of a symmetric N x N core as ``_edge_blocks`` pieces of
    about ``_SUPPORT_BLOCK`` entries from the diagonal on."""
    step = max(1, _SUPPORT_BLOCK // len(core))
    for lo in range(0, len(core), step):
        yield lo, lo, core[lo : lo + step, lo:]


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
        """``to_dense()[i, j]``, bit for bit, without building the matrix."""
        d = self.orbit_sizes[i] * self.orbit_sizes[j]
        return float(_float_values(self.core[i, j : j + 1], self.denominator)[0]) / math.sqrt(d)

    def entry_exact(self, i: int, j: int) -> ExactWeight:
        if not self.exact:
            raise ValueError("matrix was computed in float mode; exact entries unavailable")
        d = self.orbit_sizes[i] * self.orbit_sizes[j]
        return ExactWeight.make(Fraction(self.core.item(i, j), self.denominator * d), d)

    def to_dense(self) -> np.ndarray:
        """Materialize the float matrix E = S / sqrt(D outer D)."""
        d = np.array(self.orbit_sizes, dtype=np.float64)
        return _float_values(self.core, self.denominator) / np.sqrt(np.outer(d, d))

    def upper_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The graph file's blocks (u, v, w) of the nonzero core entries with
        row <= col, u and v the 1-based vertices, in (u, v) order, a block per
        about ``_SUPPORT_BLOCK`` entries scanned from the diagonal on, so no
        temporary grows with the N x N core.  The weights are float64, bit-equal
        to ``to_dense()[u - 1, v - 1]``, and pairs whose weight underflows to
        0.0 (no edge in ``to_dense``) are left out.  An entry past the float64
        range, or a float core's inf or nan, raises ValueError here, before the
        first block."""
        _check_float_range([(0, 0, self.core)], self.path, self.denominator)
        return _edge_blocks(_upper_pieces(self.core), self.orbit_sizes, self.denominator, exact=False)

    def to_graph(self) -> WeightedGraph:
        """The power as a graph on the vertices 1..N labeled "i1,i2,...": the
        pairs of ``upper_blocks()`` as they come."""
        edges = chain.from_iterable(zip(u.tolist(), v.tolist(), w.tolist()) for u, v, w in self.upper_blocks())
        return WeightedGraph(self.dim, edges, tuple(",".join(map(str, t)) for t in self.tuples))


class _Scaled(NamedTuple):
    """The kernel's input matrix and what was decided before any kernel runs."""

    a: np.ndarray  # the weights scaled by L, in the dtype of path
    exact: bool
    path: str  # "int64", "object" or "float64"
    denominator: int  # L^k
    tuples: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    bound: object  # _core_bound of the scaled weights: a Python int, or a float64 on the float path


def _scaled(n: int, blocks: Sequence[tuple], k: int, method: str, order: str) -> _Scaled:
    """Check the arguments, N, the orbit table cap and the orbit sizes' count
    limit, choose the exact or float path, scale rational weights to integers
    by their common denominator L, take the bound on every intermediate from
    the pairs, and scatter the weights once into the dtype it picks."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    big = multiset_count(n, k)
    _check_budget(f"power dimension N={big} (n={n}, k={k})", dim=big)
    if method == "orbit" and n**k > _ORDERED_TABLE_CAP:
        raise SizeBudgetError(
            f"the orbit kernel tabulates n^k = {n**k} ordered tuples (n={n}, k={k}), "
            f"more than its cap {_ORDERED_TABLE_CAP}; use the permanent kernel"
        )
    tuples, sizes, _ = _index_tables(n, k, order)
    d_max = max(sizes)
    if d_max >= COUNT_LIMIT:
        first = next(t for t, size in zip(tuples, sizes) if size >= COUNT_LIMIT)
        orbit_size(VertexMultiset(first, n).multiplicity())  # raises CountLimitError
    exact = all(all_rational(map(w.item, range(len(w)))) for _, _, w in blocks)  # Python numbers, read lazily
    if not exact:
        a = dense_matrix(n, blocks, np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # dense_matrix refused any int past float64
            bound = _core_bound(k, n, blocks, d_max, np.float64)
        return _Scaled(a, False, "float64", 1, tuples, sizes, bound)
    scale = math.lcm(*(x.denominator for _, _, w in blocks for x in w.tolist()))
    # Python ints, which the scaling cannot wrap as int64 would (Fraction // 1 is an int)
    blocks = [(u, v, w.astype(object) * scale // 1) for u, v, w in blocks]
    bound = _core_bound(k, n, blocks, d_max, object)
    path = "int64" if bound < _INT64_SAFE else "object"
    return _Scaled(dense_matrix(n, blocks, path), True, path, scale**k, tuples, sizes, bound)


def _object_bytes(s: _Scaled, n: int, k: int, method: str, whole: bool) -> int:
    """The most bytes a kernel holds at once on the object path, an entry
    priced as a pointer and an int of the bound's size: the orbit kernel's
    core and a chunk of k-fold products; the linear-form kernel's lower
    degrees, temporaries and whole core, or else its scratch block and the
    pairs that ``_edge_blocks`` joins."""
    entry, big = sys.getsizeof(s.bound) + 8, len(s.sizes)
    if method == "orbit":
        return big * big * entry + max(s.sizes) * min(_ORBIT_CHUNK, n**k) * (8 * k + entry)
    room = min(max(_BLOCK_ELEMS, big), big**2)  # as in _linear_form_blocks
    # a joined pair holds its value and, for exact output, a numerator as large
    last = big * big if whole else room + 2 * min(_SUPPORT_BLOCK, big * big)
    return entry * (sum(m * (m + 1) for m in map(partial(multiset_count, n), range(1, k))) + 2 * room + last)


def _whole_power(s: _Scaled, n: int, k: int, method: str, order: str) -> SymPowerMatrix:
    if s.path == "object":
        _check_budget(f"the object core of N={len(s.sizes)} (n={n}, k={k})", held=_object_bytes(s, n, k, method, True))
    kernel = _core_linear_forms if method == "permanent" else _core_orbit_numpy
    # upper_blocks reports a float core past the float64 range (inf or nan) as one error
    with np.errstate(over="ignore", invalid="ignore"):
        core = kernel(s.a, n, k, order)
    return SymPowerMatrix(n=n, k=k, order=order, method=method, exact=s.exact, path=s.path,
                          denominator=s.denominator, tuples=s.tuples, orbit_sizes=s.sizes, core=core)


def sym_power(graph: WeightedGraph, k: int, method: str = "permanent", order: str = "paper") -> SymPowerMatrix:
    """Adjacency matrix of the k-th symmetric tensor power of ``graph``.

    Rational input weights give an exact core, any float weight a float64
    one; the result is deterministic.  Raises :class:`SizeBudgetError`
    before any kernel runs when N passes SYMTENSOR_MAX_N (default 5000), when
    an object core and its kernel's temporaries would take more bytes than
    an int64 core of that N, and for ``method="orbit"`` when n^k exceeds
    2,000,000."""
    return _whole_power(_scaled(graph.n, [edge_arrays(graph)], k, method, order), graph.n, k, method, order)


def sym_power_upper_blocks(n: int, blocks: Sequence[tuple], k: int, method: str = "permanent", order: str = "paper",
                           exact: bool = False) -> tuple[int, Iterator]:
    """The dimension N of the power of the n-vertex graph whose pairs come as a list of blocks
    (u, v, w) of 1-based arrays, as the file parser makes them, and the power's pairs in that
    form: the 1-based (u, v) with u <= v of its nonzero entries, with float64 weights as
    ``SymPowerMatrix.upper_blocks()`` gives them, or with ``exact`` (index, texts), one
    ``q*sqrt(r)`` text per distinct (S_ij, D_i * D_j) of a block.

    ``method="permanent"`` streams the blocks of ``_linear_form_blocks``, or
    at k = 1 of the scaled matrix, so no N x N core is held; ``"orbit"``,
    the reference, builds the whole core.
    Every refusal comes before this returns: those of ``sym_power``,
    ``exact`` on float input (before any kernel runs), and an entry past the
    float64 range.  When the kernels' bound on every entry over L^k,
    D_max * r^k / L^k, cannot rule that out, the stream runs twice: once to
    check, once to write.
    """
    s = _scaled(n, blocks, k, method, order)
    if exact and not s.exact:
        raise ValueError("--exact requires a graph with rational weights")
    if method == "orbit":
        pieces = partial(_upper_pieces, _whole_power(s, n, k, method, order).core)
    else:
        if s.path == "object":
            _check_budget(f"the streamed object power of N={len(s.sizes)} (n={n}, k={k})",
                          held=_object_bytes(s, n, k, method, False))
        pieces = partial(_upper_pieces, s.a) if k == 1 else partial(_linear_form_blocks, s.a, n, k, order)
    if not exact:
        _check_float_range(pieces(), s.path, s.denominator, s.bound)
    return len(s.sizes), _edge_blocks(pieces(), s.sizes, s.denominator, exact)


def sym_power_graph(graph: WeightedGraph, k: int, method: str = "permanent", order: str = "paper") -> WeightedGraph:
    """The power as a graph: one vertex per sorted tuple, labeled "i1,i2,...";
    edges are the nonzero matrix entries, diagonal entries become loops."""
    return sym_power(graph, k, method=method, order=order).to_graph()


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
    big = multiset_count(n, k)
    _check_budget(f"power dimension N={big} (n={n}, k={k})", dim=big)
    # the stable kind is the int sort that np.unique already runs; the default
    # kind would page in about 0.25 MB more of numpy's code
    image = np.sort(np.subtract(images, 1)[_index_tables(n, k, order)[2]], axis=1, kind="stable")
    return SymPermutation(n=n, k=k, order=order, mapping=tuple(_ranks(image, n, order).tolist()))


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
