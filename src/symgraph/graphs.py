"""Weighted undirected graphs (loops allowed) and the named graph families.

Weights live in a sparse map keyed by unordered vertex pairs; a pair is
present iff its weight is nonzero, so "edge exists" always means "weight is
nonzero".  Vertices are 1-based to match the usual figure labels.  Weights
may be ints, Fractions, or floats; graphs whose weights are all rational
keep the whole power pipeline in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Weight = int | Fraction | float

class WeightedGraph:
    """Symmetric real edge-weight function on n vertices; loops allowed.

    Instances are immutable after construction and safe to share across
    threads; every operation in this package returns new graphs.
    """

    __slots__ = ("n", "_weights", "labels")

    def __init__(
        self,
        n: int,
        weights: Mapping[tuple[int, int], Weight] | Iterable[tuple[int, int, Weight]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        self.n = n
        items: Iterable[tuple[int, int, Weight]]
        if isinstance(weights, Mapping):
            items = ((u, v, w) for (u, v), w in weights.items())
        else:
            items = weights
        store: dict[tuple[int, int], Weight] = {}
        for u, v, w in items:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"vertex pair ({u}, {v}) out of range 1..{n}")
            if isinstance(w, float) and not math.isfinite(w):
                raise ValueError(f"weight for ({u}, {v}) is not finite: {w}")
            # bools and numpy ints become Python ints, which every layer reads as
            # rational; plain ints and floats skip the slower isinstance test
            if type(w) not in (int, float) and isinstance(w, (bool, np.bool_, np.integer)):
                w = int(w)
            key = (u, v) if u <= v else (v, u)
            if key in store and store[key] != w:
                raise ValueError(f"conflicting weights for pair {key}")
            if w != 0:
                store[key] = w
        self._weights = store
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
        self.labels = labels

    # -- accessors ---------------------------------------------------------

    def weight(self, u: int, v: int) -> Weight:
        return self._weights.get((u, v) if u <= v else (v, u), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u <= v else (v, u)) in self._weights

    def edges(self) -> list[tuple[int, int, Weight]]:
        """All weighted pairs (u <= v), sorted; loops appear as (v, v, w)."""
        return [(u, v, w) for (u, v), w in sorted(self._weights.items())]

    def pair_count(self) -> int:
        return len(self._weights)

    def neighbors(self, v: int) -> set[int]:
        """Distinct neighbors of v; a loop at v puts v itself in the set."""
        out = set()
        for (a, b) in self._weights:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def label(self, v: int) -> str:
        return self.labels[v - 1] if self.labels is not None else str(v)

    @property
    def is_rational(self) -> bool:
        return all_rational(self._weights.values())

    # -- conversions -------------------------------------------------------

    def weight_rows(self) -> list[list[Weight]]:
        """Dense adjacency as nested lists, preserving exact weight types."""
        return dense_matrix(self.n, *edge_arrays(self), object).tolist()

    @staticmethod
    def from_matrix(matrix, labels: Sequence[str] | None = None) -> "WeightedGraph":
        """Build a graph from a dense symmetric matrix (exact symmetry required)."""
        rows = square_rows(matrix)
        n = len(rows)
        for u in range(n):
            for v in range(u + 1, n):
                if rows[u][v] != rows[v][u]:
                    raise ValueError(f"adjacency matrix not symmetric at ({u + 1}, {v + 1})")
        return WeightedGraph(n, ((u + 1, v + 1, rows[u][v]) for u in range(n) for v in range(u, n)), labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        if self.n != other.n or len(self._weights) != len(other._weights):
            return False
        return all(other._weights.get(k) == w for k, w in self._weights.items())

    def __hash__(self) -> int:  # weights may mix int/Fraction/float; hash by support
        return hash((self.n, frozenset(self._weights)))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={len(self._weights)})"


def all_rational(weights: Iterable) -> bool:
    """Whether every weight is an int or a Fraction (a bool is neither): the rule for an exact power."""
    return all(isinstance(w, (int, Fraction)) and not isinstance(w, bool) for w in weights)


def square_rows(matrix) -> list[list]:
    """The rows of a square matrix as lists, numpy scalars as Python numbers."""
    rows = [[x.item() if isinstance(x, np.generic) else x for x in row] for row in matrix]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


def edge_arrays(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's weighted pairs, sorted: 1-based ends u <= v as int64 and
    an object array of the weights as stored."""
    pairs = sorted(graph._weights)
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return u, v, np.array([graph._weights[p] for p in pairs], dtype=object)


def dense_matrix(n: int, u: np.ndarray, v: np.ndarray, w, dtype) -> np.ndarray:
    """The symmetric n x n matrix in ``dtype`` with w at each 1-based (u, v)
    and (v, u), zero elsewhere (Python int 0 in an object matrix)."""
    a = np.zeros((n, n), dtype=dtype)
    i, j = u - 1, v - 1
    a[i, j] = w
    a[j, i] = w
    return a


def adjacency_matrix(graph: WeightedGraph) -> np.ndarray:
    """Dense symmetric n x n float adjacency matrix of the graph."""
    return dense_matrix(graph.n, *edge_arrays(graph), np.float64)


# -- named families ---------------------------------------------------------


def path(n: int) -> WeightedGraph:
    """Path on n vertices: edges i -- i+1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return WeightedGraph(n, {(i, i + 1): 1 for i in range(1, n)})


def cycle(n: int) -> WeightedGraph:
    """Cycle on n vertices (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    weights = {(i, i + 1): 1 for i in range(1, n)}
    weights[(1, n)] = 1
    return WeightedGraph(n, weights)


def complete(n: int) -> WeightedGraph:
    """Complete loopless graph on n vertices."""
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got {n}")
    return WeightedGraph(n, {(u, v): 1 for u in range(1, n + 1) for v in range(u + 1, n + 1)})


def complete_loops(n: int) -> WeightedGraph:
    """Complete graph on n vertices with a loop at every vertex (all-ones matrix)."""
    if n < 1:
        raise ValueError(f"complete_loops needs n >= 1, got {n}")
    return WeightedGraph(n, {(u, v): 1 for u in range(1, n + 1) for v in range(u, n + 1)})


def complete_bipartite(n: int, m: int) -> WeightedGraph:
    """Complete bipartite graph with parts {1..n} and {n+1..n+m}."""
    if n < 1 or m < 1:
        raise ValueError(f"complete_bipartite needs n, m >= 1, got ({n}, {m})")
    return WeightedGraph(
        n + m, {(u, v): 1 for u in range(1, n + 1) for v in range(n + 1, n + m + 1)}
    )


def star(m: int) -> WeightedGraph:
    """Star with m leaves: center 1 joined to vertices 2..m+1."""
    if m < 1:
        raise ValueError(f"star needs m >= 1 leaves, got {m}")
    return complete_bipartite(1, m)


def scepter() -> WeightedGraph:
    """Two vertices, a loop at vertex 1 and an edge 1 -- 2."""
    return WeightedGraph(2, {(1, 1): 1, (1, 2): 1})


# name -> (builder, parameter count), in the order the CLI lists them
_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "complete_loops": (complete_loops, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star, 1),
    "scepter": (scepter, 0),
}
FAMILY_NAMES = tuple(_FAMILIES)


def family(name: str, *params: int) -> WeightedGraph:
    """Build a named family member; all weights are 1."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    builder, arity = _FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)
