"""Graph invariants of powers and their closed-form predictors.

The measured side lives here: connected components, loop and edge counts,
degrees, and, by one BFS on the unweighted support, bipartiteness and the
Wiener index.
Each measure reads its pairs as blocks, tuples (u, v[, w]) of 1-based
arrays with u <= v, as the graph file parser yields them (a graph's pairs
are one block), so a graph file's stats need no :class:`WeightedGraph`.
The predicting side is a catalog of closed forms for the named families,
each addressable through :func:`predict`.

Conventions, chosen once and used everywhere:

* a loop contributes its endpoint once to the neighbor set and 1 to the
  degree (the unique reading under which the second-power degree formulas
  reproduce the small worked examples);
* edge_count counts loops as single edges;
* connectivity ignores loops (a loop never joins components);
* distances are hop counts on the unweighted support, all weights ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import VertexMultiset, multiset_count, orbit_size
from .exact import ExactWeight
from .graphs import WeightedGraph, edge_arrays
from .power import _check_budget


@dataclass(frozen=True)
class ComponentStructure:
    """Connected components: count, vertex -> id, and per-component lists."""

    count: int
    assignment: tuple[int, ...]  # 1-based vertex v -> assignment[v-1]
    members: tuple[tuple[int, ...], ...]

    def component_of(self, v: int) -> int:
        return self.assignment[v - 1]


def _roots(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The root of each vertex in ``x`` in the forest ``parent``; points
    each of them straight at its root, pointer jumping along ``x``."""
    while True:
        up = parent[x]
        top = parent[up]
        if (top == up).all():
            return up
        parent[x] = top


def _merge(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Join the trees of the forest ``parent`` that the pairs (u, v) link.

    Whole-array rounds on the pairs' roots (Shiloach and Vishkin's scheme):
    each round hooks every root under a smaller neighbouring root; a root that
    neither hooked nor got hooked onto then hooks under the new parent of a
    neighbouring root, which cannot close a cycle as no root hooked onto it.
    Pointer jumping over those roots then makes each of their parents a root.
    Trees with an edge to another tree at least halve each round: at most
    ceil(log2(n)) rounds, whatever the diameter, on arrays the pairs' size.
    """
    touched = _roots(parent, np.concatenate((u, v)))
    u, v = touched[: len(u)], touched[len(u) :]
    hooked_onto = np.zeros(len(parent), dtype=bool)
    while True:
        ru, rv = parent[u], parent[v]
        between = ru != rv
        if not between.any():
            return
        u, v, ru, rv = u[between], v[between], ru[between], rv[between]
        lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
        parent[hi] = lo
        hooked_onto[parent[hi]] = True
        stagnant = (parent[lo] == lo) & ~hooked_onto[lo]
        hooked_onto[parent[hi]] = False
        parent[lo[stagnant]] = parent[hi[stagnant]]
        _roots(parent, touched)


def _component_ids(n: int, blocks: Iterable[tuple]) -> np.ndarray:
    """Component id of each vertex 1..n, numbered from 0 by smallest vertex."""
    parent = np.arange(n + 1)
    for u, v, *_ in blocks:
        _merge(parent, u, v)
    _, first, inverse = np.unique(_roots(parent, np.arange(1, n + 1)), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _degrees(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Degree of each vertex 0..n: a pair counts once at each end, a loop once."""
    return np.bincount(u, minlength=n + 1) + np.bincount(v[u != v], minlength=n + 1)


def support_stats_blocks(n: int, blocks: Iterable[tuple], wiener: bool = False) -> dict[str, object]:
    """n, edge, loop and component counts, the degrees and the Wiener index, in that key order, of an
    n-vertex graph whose distinct weighted pairs (u, v) are counted as the blocks arrive.  Their O(n)
    arrays are charged against the size budget's bytes first: per vertex the forest, the int64 degrees,
    a block's two int64 ``np.bincount`` and the degree list's pointer.  The Wiener index is None unless
    ``wiener`` is set and there is one component; then :func:`_distance_sum` reads the blocks again."""
    _check_budget(f"the stats of n={n} vertices", held=(n + 1) * (np.min_scalar_type(-n - 1).itemsize + 8 + 2 * 8 + 8))
    parent = np.arange(n + 1, dtype=np.min_scalar_type(-n - 1))  # n+1 one-vertex trees
    degrees = np.zeros(n + 1, dtype=np.int64)
    edges = loops = 0
    for u, v, *_ in blocks:
        between = u != v
        edges += len(u)
        loops += len(u) - int(np.count_nonzero(between))
        degrees += _degrees(n, u, v)
        _merge(parent, u[between], v[between])
    components = int(np.count_nonzero(parent[1:] == np.arange(1, n + 1)))
    return {"n": n, "edges": edges, "loops": loops, "components": components, "degrees": degrees[1:].tolist(),
            "wiener": _distance_sum(n, blocks) if wiener and components == 1 else None}


def components(graph: WeightedGraph) -> ComponentStructure:
    """Connected components of the unweighted support; loops are ignored."""
    ids = _component_ids(graph.n, [edge_arrays(graph)])
    sizes = np.bincount(ids)
    by_component = (np.argsort(ids, kind="stable") + 1).tolist()
    bounds = np.cumsum(sizes).tolist()
    members = tuple(tuple(by_component[lo:hi]) for lo, hi in zip([0] + bounds, bounds))
    return ComponentStructure(len(sizes), tuple(ids.tolist()), members)


def count_loops(graph: WeightedGraph) -> int:
    """Number of vertices carrying a nonzero loop weight."""
    return sum(1 for v in range(1, graph.n + 1) if graph.weight(v, v) != 0)


def neighbor_set(graph: WeightedGraph, v: int) -> set[int]:
    """Distinct neighbors of v; a loop at v includes v itself."""
    if not 1 <= v <= graph.n:
        raise ValueError(f"vertex {v} out of range 1..{graph.n}")
    return graph.neighbors(v)


def degree(graph: WeightedGraph, v: int) -> int:
    """Number of distinct neighbors; a loop adds 1 (v joins its own set)."""
    return len(neighbor_set(graph, v))


def degree_sequence(graph: WeightedGraph) -> list[int]:
    """Degrees of all vertices in one pass (same convention as degree)."""
    return _degrees(graph.n, *edge_arrays(graph)[:2])[1:].tolist()


def edge_count(graph: WeightedGraph) -> int:
    """Unordered pairs {u, v} with nonzero weight; a loop counts once."""
    return graph.pair_count()


def is_bipartite(graph: WeightedGraph) -> bool:
    """Two-colorability of the support: every edge joins BFS depths of
    different parity; any loop is an odd cycle, so False."""
    adj = _adjacency_lists(graph.n, [edge_arrays(graph)])
    depth = [-1] * (graph.n + 1)
    for v in range(1, graph.n + 1):
        if depth[v] < 0:
            _bfs(adj, v, depth)
    return all((depth[u] + depth[v]) % 2 for u, v, _ in graph.edges())


def _adjacency_lists(n: int, blocks: Iterable[tuple]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, *_ in blocks:
        for a, b in zip(u.tolist(), v.tolist()):
            if a != b:
                adj[a].append(b)
                adj[b].append(a)
    return adj


def _bfs(adj: Sequence[Sequence[int]], source: int, dist: list[int]) -> list[int]:
    """Hop distances from ``source`` into ``dist``, whose entries are -1 for
    unvisited vertices.  Sets ``dist`` only for the vertices it reaches and
    returns them in visiting order, so a caller can reset just those."""
    dist[source] = 0
    order = [source]
    for u in order:  # the list grows while it is walked: a FIFO queue
        d = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return order


class DisconnectedGraphError(ValueError):
    """Wiener index of a disconnected graph; carries the component count."""

    def __init__(self, component_count: int):
        super().__init__(
            f"graph is disconnected ({component_count} components); "
            "the Wiener index needs a connected graph"
        )
        self.component_count = component_count


def wiener_index(graph: WeightedGraph) -> int:
    """Sum of hop-count distances over unordered distinct vertex pairs, by
    BFS on the unweighted support.  Disconnected input raises
    :class:`DisconnectedGraphError` with its count."""
    blocks = [edge_arrays(graph)]
    count = int(_component_ids(graph.n, blocks).max()) + 1
    if count > 1:
        raise DisconnectedGraphError(count)
    return _distance_sum(graph.n, blocks)


def wiener_within_components(graph: WeightedGraph) -> int:
    """Sum of pairwise distances taken within each component separately.

    A convenience beyond the plain Wiener index, which is undefined for
    disconnected graphs.
    """
    return _distance_sum(graph.n, [edge_arrays(graph)])


def _distance_sum(n: int, blocks: Iterable[tuple]) -> int:
    """Sum of the hop counts between the vertices of each component, by BFS
    from every vertex.  One distance list serves every source, and each BFS
    resets only the entries it reached, so a source costs what it reaches."""
    adj = _adjacency_lists(n, blocks)
    dist = [-1] * (n + 1)
    total = 0
    for s in range(1, n + 1):
        for w in _bfs(adj, s, dist):
            total += dist[w]
            dist[w] = -1
    return total // 2


# ---------------------------------------------------------------------------
# closed-form predictors
# ---------------------------------------------------------------------------


def path_components(n: int, k: int) -> int:
    """Component count of the k-th power of a path: ceil((k+1)/2)."""
    return (k + 2) // 2


def path_loops(n: int, k: int) -> int:
    """Loop count of the k-th power of a path: binomial(n+k/2-2, k/2) for
    even k, zero for odd k."""
    if k % 2:
        return 0
    half = k // 2
    return math.comb(n + half - 2, half)


def cycle_components(n: int, k: int) -> int:
    """Component count of a cycle power: 1 for odd n, ceil((k+1)/2) for even."""
    return 1 if n % 2 else (k + 2) // 2


def bipartite_power_components(n: int, m: int, k: int) -> list[tuple]:
    """Component descriptors of the k-th power of a complete bipartite graph.

    Each descriptor is ("complete_bipartite", a, b) for an unweighted complete
    bipartite component with part sizes a and b, or ("complete_loops", size)
    for the all-pairs-with-loops component that appears when k is even.
    """
    out: list[tuple] = []
    for i in range((k - 1) // 2 + 1):
        a = math.comb(i + n - 1, i) * math.comb(k - i + m - 1, k - i)
        b = math.comb(i + m - 1, i) * math.comb(k - i + n - 1, k - i)
        out.append(("complete_bipartite", a, b))
    if k % 2 == 0:
        half = k // 2
        out.append(("complete_loops", math.comb(half + n - 1, half) * math.comb(half + m - 1, half)))
    return out


def deg2(graph: WeightedGraph, a: int, b: int) -> int:
    """Predicted degree of vertex (a, b) in the second power of a loopless graph."""
    if a == b:
        return math.comb(degree(graph, a) + 1, 2)
    if a > b:
        a, b = b, a
    common = len(neighbor_set(graph, a) & neighbor_set(graph, b))
    return degree(graph, a) * degree(graph, b) - math.comb(common, 2)


def nonadjacent_loop_pairs(graph: WeightedGraph) -> int:
    """Pairs {u, v} not adjacent in the graph but with loops at both ends."""
    looped = [v for v in range(1, graph.n + 1) if graph.weight(v, v) != 0]
    return sum(
        1
        for i, u in enumerate(looped)
        for v in looped[i + 1 :]
        if not graph.has_edge(u, v)
    )


def loops2(graph: WeightedGraph) -> int:
    """Predicted loop count of the second power: edges (loops included) plus
    the number of nonadjacent looped pairs."""
    return edge_count(graph) + nonadjacent_loop_pairs(graph)


def edges2(graph: WeightedGraph) -> int:
    """Predicted edge count of the second power of a loopless graph."""
    n = graph.n
    degs = [degree(graph, v) for v in range(1, n + 1)]
    nbrs = [neighbor_set(graph, v) for v in range(1, n + 1)]
    total = edge_count(graph) + nonadjacent_loop_pairs(graph)
    total += sum(math.comb(d + 1, 2) for d in degs)
    for i in range(n):
        for j in range(i + 1, n):
            total += degs[i] * degs[j]
            total -= math.comb(len(nbrs[i] & nbrs[j]), 2)
    if total % 2:
        raise ValueError("edge-count formula produced an odd handshake total")
    return total // 2


def edge_bounds(graph: WeightedGraph, k: int) -> tuple[Fraction, int]:
    """Bounds on the edge count of the k-th power of a simple graph:
    2^(k-1) |E|^k / k!  <=  edges  <=  2^(k-1) |E|^k."""
    e = edge_count(graph)
    upper = 2 ** (k - 1) * e**k
    return Fraction(upper, math.factorial(k)), upper


def diag_degree(graph: WeightedGraph, v: int, k: int) -> int:
    """Degree of the constant tuple (v,..,v) in the k-th power."""
    return math.comb(degree(graph, v) + k - 1, k)


def neighbor_bound(graph: WeightedGraph, t: VertexMultiset) -> int:
    """Upper bound on a power vertex's degree from its entries' joint neighbors."""
    union: set[int] = set()
    for v in set(t.entries):
        union |= neighbor_set(graph, v)
    return math.comb(len(union) + t.k - 1, t.k)


def wiener_complete_loops_power(n: int, k: int) -> int:
    """Wiener index of the k-th power of the all-ones graph: all pairs at
    distance one."""
    return math.comb(multiset_count(n, k), 2)


def _heavy_diagonal_count(n: int, k: int) -> int:
    """Tuples (as compositions of k into n parts) whose first part exceeds k/2."""
    half = k - math.ceil(k / 2) - (1 if k % 2 == 0 else 0)
    return math.comb(half + n - 1, n - 1)


def wiener_complete_power_statement(n: int, k: int) -> int | Fraction:
    """Wiener index of the k-th power of a complete graph, first printed form:
    (N choose 2) + n/2 * (binom(k+2(n-2)+1, 2(n-1)) - F)."""
    base = math.comb(multiset_count(n, k), 2)
    t = math.comb(k + 2 * (n - 2) + 1, 2 * (n - 1))
    val = base + Fraction(n, 2) * (t - _heavy_diagonal_count(n, k))
    return int(val) if val.denominator == 1 else val


def wiener_complete_power_proof(n: int, k: int) -> int | Fraction:
    """Wiener index of the k-th power of a complete graph, second printed
    form (factor 2n with the lower binomial index 2(n-2))."""
    base = math.comb(multiset_count(n, k), 2)
    t = math.comb(k + 2 * (n - 2) + 1, 2 * (n - 2))
    val = base + n * (t - _heavy_diagonal_count(n, k))
    return int(val) if val.denominator == 1 else val


def _odd_cycle_wiener(n: int) -> int:
    """W(C_n) = n(n^2 - 1)/8 for odd n >= 3.  A closed form, not the BFS:
    the BFS is the oracle that the cycle-square readings are checked against."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    return n * (n * n - 1) // 8


def wiener_cycle_square_statement(n: int) -> int:
    """Wiener index of the second power of an odd cycle, closed form."""
    w = _odd_cycle_wiener(n)
    half = (n + 3) // 2
    return (
        math.comb(n + 2, 2) * w
        + (n * math.comb(n, 2) - 2 * w) * math.comb(half, 2)
        - 2 * n * n * math.comb(half, 3)
    )


def wiener_cycle_square_blocks(n: int) -> int:
    """Same quantity from the block-distance sum it was derived from.

    The top summand carries a zero factor, so the two printed upper limits
    (B and B-1, with B = (n+1)/2) give identical values.
    """
    w = _odd_cycle_wiener(n)
    b = (n + 1) // 2
    total = sum((2 * w + i * n * n) * (b - i) for i in range(b + 1))
    return total - b * w


def power_edge_weight_complete_loops(i: VertexMultiset, j: VertexMultiset) -> ExactWeight:
    """Edge weight between two power vertices of the all-ones graph:
    sqrt of the product of the two orbit sizes."""
    return ExactWeight.sqrt(orbit_size(i.multiplicity()) * orbit_size(j.multiplicity()))


_PREDICTORS: dict[str, Callable] = {
    "path_components": path_components,
    "path_loops": path_loops,
    "cycle_components": cycle_components,
    "bipartite_decomposition": bipartite_power_components,
    "deg2": deg2,
    "loops2": loops2,
    "edges2": edges2,
    "edge_bounds": edge_bounds,
    "diag_degree": diag_degree,
    "neighbor_bound": neighbor_bound,
    "wiener_J": wiener_complete_loops_power,
    "wiener_K": wiener_complete_power_statement,
    "wiener_K_proof": wiener_complete_power_proof,
    "wiener_C2": wiener_cycle_square_statement,
    "wiener_C2_blocks": wiener_cycle_square_blocks,
    "jn_weight": power_edge_weight_complete_loops,
}


def predict(claim: str, *args, **kwargs):
    """Dispatch over the family closed forms by claim id."""
    try:
        fn = _PREDICTORS[claim]
    except KeyError:
        raise ValueError(
            f"unknown claim {claim!r}; known: {', '.join(sorted(_PREDICTORS))}"
        ) from None
    return fn(*args, **kwargs)
