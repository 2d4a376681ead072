import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from symgraph import analysis
from symgraph.analysis import (
    DisconnectedGraphError,
    bipartite_power_components,
    components,
    count_loops,
    cycle_components,
    deg2,
    degree,
    diag_degree,
    edge_bounds,
    edge_count,
    edges2,
    is_bipartite,
    loops2,
    neighbor_bound,
    neighbor_set,
    nonadjacent_loop_pairs,
    path_components,
    path_loops,
    predict,
    wiener_complete_loops_power,
    wiener_complete_power_proof,
    wiener_complete_power_statement,
    wiener_cycle_square_blocks,
    wiener_cycle_square_statement,
    wiener_index,
    wiener_within_components,
)
from symgraph.combinatorics import VertexMultiset, multiset_count
from symgraph.exact import ExactWeight
from symgraph.graphs import (
    WeightedGraph,
    complete,
    complete_bipartite,
    complete_loops,
    cycle,
    edge_arrays,
    path,
    star,
)
from symgraph.power import sym_power, sym_power_graph


def labels_of(graph):
    return {lab: v for v, lab in enumerate(graph.labels, start=1)}


# ---------------------------------------------------------------------------
# measured invariants
# ---------------------------------------------------------------------------


def test_components_path3_square():
    g = sym_power_graph(path(3), 2)
    structure = components(g)
    assert structure.count == 2
    by = labels_of(g)
    groups = [set(comp) for comp in structure.members]
    assert {by["1,1"], by["2,2"], by["3,3"], by["1,3"]} in groups
    assert {by["1,2"], by["2,3"]} in groups
    assert structure.component_of(by["1,2"]) == structure.component_of(by["2,3"])


def test_components_path3_fourth():
    g = sym_power_graph(path(3), 4)
    assert components(g).count == 3
    assert count_loops(g) == 3


def test_components_connected():
    assert components(cycle(5)).count == 1
    assert components(WeightedGraph(3, {(1, 1): 1})).count == 3  # loops join nothing


def test_component_ids_contiguous():
    g = WeightedGraph(5, {(2, 4): 1})
    structure = components(g)
    assert structure.count == 4
    assert sorted(set(structure.assignment)) == list(range(4))


def test_components_of_a_long_path():
    structure = components(path(5000))
    assert structure.count == 1
    assert structure.members == (tuple(range(1, 5001)),)


def test_roots_jumps_pointers_in_about_log2_n_passes():
    # the chain n-1 -> n-2 -> ... -> 0; one parent step a pass would take n passes
    class CountingReads(np.ndarray):
        def __getitem__(self, key):
            self.reads += 1
            return np.asarray(super().__getitem__(key))

    n = 4096
    parent = np.maximum(np.arange(n) - 1, 0).view(CountingReads)
    parent.reads = 0
    assert (analysis._roots(parent, np.arange(n)) == 0).all()
    assert (np.asarray(parent) == 0).all()
    assert parent.reads <= 3 * (n.bit_length() + 1), parent.reads


def test_isolated_and_loop_only_vertices_are_their_own_components():
    g = WeightedGraph(7, {(2, 2): 1, (3, 5): 1, (5, 6): 2, (6, 6): 1})
    structure = components(g)
    assert structure.count == 5
    assert structure.assignment == (0, 1, 2, 3, 2, 2, 4)
    assert structure.members == ((1,), (2,), (3, 5, 6), (4,), (7,))


def _bfs_components(graph):
    """(count, assignment, members) by breadth-first search, ids by smallest vertex."""
    adj = {v: set() for v in range(1, graph.n + 1)}
    for u, v, _ in graph.edges():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    assignment = [None] * graph.n
    members = []
    for start in range(1, graph.n + 1):
        if assignment[start - 1] is not None:
            continue
        cid = len(members)
        seen = [start]
        assignment[start - 1] = cid
        for x in seen:
            for y in sorted(adj[x]):
                if assignment[y - 1] is None:
                    assignment[y - 1] = cid
                    seen.append(y)
        members.append(tuple(sorted(seen)))
    return len(members), tuple(assignment), tuple(members)


def test_components_match_bfs_on_random_graphs():
    rng = random.Random(20231)
    for _ in range(200):
        n = rng.randint(1, 40)
        p = rng.choice((0.02, 0.05, 0.1, 0.3))
        weights = {(u, v): 1 for u in range(1, n + 1) for v in range(u, n + 1) if rng.random() < p}
        g = WeightedGraph(n, weights)
        structure = components(g)
        assert (structure.count, structure.assignment, structure.members) == _bfs_components(g)


def test_count_loops():
    assert count_loops(path(4)) == 0
    assert count_loops(complete_loops(3)) == 3
    assert count_loops(sym_power_graph(path(3), 3)) == 0


def test_degree_and_neighbors_path3_square():
    g = sym_power_graph(path(3), 2)
    by = labels_of(g)
    assert degree(g, by["2,2"]) == 3
    assert {g.labels[v - 1] for v in neighbor_set(g, by["2,2"])} == {"1,1", "3,3", "1,3"}
    assert degree(g, by["1,2"]) == 2
    assert {g.labels[v - 1] for v in neighbor_set(g, by["1,2"])} == {"1,2", "2,3"}
    isolated = WeightedGraph(2, {(1, 1): 1})
    assert degree(isolated, 2) == 0


def test_edge_count():
    assert edge_count(sym_power_graph(path(3), 2)) == 6
    assert edge_count(WeightedGraph(3)) == 0
    assert edge_count(complete_loops(3)) == 6


def test_is_bipartite():
    assert is_bipartite(path(4))
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(5))
    assert not is_bipartite(complete_loops(2))  # loop kills it


def test_wiener_basics():
    assert wiener_index(complete(4)) == 6
    assert wiener_index(path(3)) == 4
    assert wiener_index(cycle(5)) == 15
    assert wiener_index(WeightedGraph(1)) == 0


def test_wiener_disconnected():
    g = WeightedGraph(4, {(1, 2): 1, (3, 4): 1})
    with pytest.raises(DisconnectedGraphError) as exc:
        wiener_index(g)
    assert exc.value.component_count == 2
    assert wiener_within_components(g) == 2


def test_wiener_ignores_weights():
    g = WeightedGraph(3, {(1, 2): 5.0, (2, 3): 0.25})
    assert wiener_index(g) == 4  # hop counts only


def _floyd_warshall(g):
    """Hop distances between all vertex pairs (0-based), inf when unreachable."""
    d = [[0 if u == v else 1 if g.has_edge(u, v) else math.inf for v in range(1, g.n + 1)] for u in range(1, g.n + 1)]
    for m in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                d[u][v] = min(d[u][v], d[u][m] + d[m][v])
    return d


def _two_colourable(g):
    """Whether some colouring of the vertices in 0 and 1 gives the two ends
    of every edge, loops included, different colours."""
    ends = [(u - 1, v - 1) for u, v, _ in g.edges()]
    return any(all((colours >> u ^ colours >> v) & 1 for u, v in ends) for colours in range(1 << g.n))


def test_bfs_invariants_match_floyd_warshall_and_brute_force_colouring():
    rng = random.Random(2309)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 9)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        first = 0 if rng.random() < 0.3 else 1  # loops in about a third of the graphs
        g = WeightedGraph(n, {(u, v): rng.choice((1, -2, 0.5)) for u in range(1, n + 1)
                              for v in range(u + first, n + 1) if rng.random() < p})
        d = _floyd_warshall(g)
        reachable = [d[u][v] for u in range(n) for v in range(u + 1, n) if d[u][v] < math.inf]
        count = sum(all(d[u][v] == math.inf for v in range(u)) for u in range(n))
        if count == 1:
            assert wiener_index(g) == sum(reachable)
        else:
            with pytest.raises(DisconnectedGraphError) as exc:
                wiener_index(g)
            assert exc.value.component_count == count
        assert wiener_within_components(g) == sum(reachable)
        colourable = _two_colourable(g)
        assert is_bipartite(g) == colourable
        seen |= {("connected", count == 1), ("bipartite", colourable), ("loops", count_loops(g) > 0),
                 ("isolated", any(not g.neighbors(v) for v in range(1, n + 1)))}
    assert seen == {(name, flag) for name in ("connected", "bipartite", "loops", "isolated") for flag in (False, True)}


def test_bfs_touches_only_what_each_source_reaches():
    # about 0.06 s; a distance list allocated per source makes it quadratic, over 2 s
    g = WeightedGraph(20000, {(2 * i + 1, 2 * i + 2): 1 for i in range(10000)})
    start = time.perf_counter()
    assert is_bipartite(g)
    assert wiener_within_components(g) == 10000
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------


def test_path_component_predictor():
    assert path_components(3, 3) == 2
    assert path_components(3, 4) == 3
    for n in range(2, 8):
        for k in range(1, 6):
            assert path_components(n, k) == math.ceil((k + 1) / 2)
            got = components(sym_power_graph(path(n), k)).count
            assert got == path_components(n, k), (n, k)


def test_path_loops_predictor():
    assert path_loops(3, 4) == 3
    assert path_loops(3, 3) == 0
    for n in range(2, 8):
        for k in range(1, 6):
            got = count_loops(sym_power_graph(path(n), k))
            assert got == path_loops(n, k), (n, k)


def test_cycle_component_predictor():
    for n in range(3, 9):
        for k in range(1, 5):
            got = components(sym_power_graph(cycle(n), k)).count
            assert got == cycle_components(n, k), (n, k)


def test_bipartite_decomposition_descriptors():
    # the k=2 square of the two-leaf star splits into a star and a looped pair
    assert bipartite_power_components(2, 1, 2) == [
        ("complete_bipartite", 1, 3),
        ("complete_loops", 2),
    ]
    parts = bipartite_power_components(2, 1, 3)
    assert parts == [("complete_bipartite", 1, 4), ("complete_bipartite", 2, 3)]
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(1, 5):
                descs = bipartite_power_components(n, m, k)
                assert len(descs) == math.ceil((k + 1) / 2)
                total = sum(
                    d[1] + d[2] if d[0] == "complete_bipartite" else d[1] for d in descs
                )
                assert total == multiset_count(n + m, k)


def test_deg2_matches_enumeration():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 6)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    weights[(u, v)] = 1
        g = WeightedGraph(n, weights)
        power = sym_power_graph(g, 2)
        by = labels_of(power)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                assert degree(power, by[f"{a},{b}"]) == deg2(g, a, b), (weights, a, b)


def test_loops2_and_ell_d():
    two_loops = WeightedGraph(2, {(1, 1): 1, (2, 2): 1})
    assert nonadjacent_loop_pairs(two_loops) == 1
    assert loops2(two_loops) == 3
    assert count_loops(sym_power_graph(two_loops, 2)) == 3
    g = WeightedGraph(3, {(1, 1): 1, (3, 3): 1, (1, 2): 1})
    assert nonadjacent_loop_pairs(g) == 1  # pair {1,3}
    assert loops2(g) == count_loops(sym_power_graph(g, 2))


def test_edges2_matches_enumeration():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 6)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    weights[(u, v)] = 1
        g = WeightedGraph(n, weights)
        assert edges2(g) == edge_count(sym_power_graph(g, 2))


def test_edge_bounds_sparse_case():
    lo, hi = edge_bounds(path(3), 2)
    assert (lo, hi) == (Fraction(4), 8)
    assert lo <= edge_count(sym_power_graph(path(3), 2)) <= hi


def test_edge_bounds_lower_fails_when_dense():
    # dense graphs break the printed lower bound: one collapsed edge can
    # absorb up to (k!)^2 tensor edges, not k!
    lo, _ = edge_bounds(complete(6), 2)
    assert edge_count(sym_power_graph(complete(6), 2)) < lo


def test_diag_degree():
    g = path(3)
    power = sym_power_graph(g, 2)
    by = labels_of(power)
    for v in range(1, 4):
        assert degree(power, by[f"{v},{v}"]) == diag_degree(g, v, 2)
    assert diag_degree(g, 2, 2) == 3  # middle vertex: binomial(3, 2)
    # holds on the looped two-vertex graph too
    sc = sym_power_graph(WeightedGraph(2, {(1, 1): 1, (1, 2): 1}), 2)
    by = labels_of(sc)
    assert degree(sc, by["1,1"]) == 3 == diag_degree(WeightedGraph(2, {(1, 1): 1, (1, 2): 1}), 1, 2)


def test_neighbor_bound_holds():
    g = cycle(5)
    pm = sym_power(g, 2)
    power = pm.to_graph()
    for r in range(pm.dim):
        t = VertexMultiset(pm.tuples[r], g.n)
        assert degree(power, r + 1) <= neighbor_bound(g, t)


def test_complete_loops_power_facts():
    for n in range(1, 5):
        g2 = sym_power_graph(complete_loops(n), 2)
        n2 = multiset_count(n, 2)
        assert g2.pair_count() == n2 * (n2 + 1) // 2  # complete with loops
        assert edge_count(g2) == math.comb(math.comb(n + 1, 2) + 1, 2)
    # A002817 prefix for the squared all-ones graphs
    assert [edge_count(sym_power_graph(complete_loops(n), 2)) for n in (1, 2, 3, 4)] == [
        1, 6, 21, 55,
    ]


def test_complete_loops_power_weights():
    pm = sym_power(complete_loops(3), 2)
    for i in range(pm.dim):
        for j in range(pm.dim):
            ti = VertexMultiset(pm.tuples[i], 3)
            tj = VertexMultiset(pm.tuples[j], 3)
            assert pm.entry_exact(i, j) == analysis.power_edge_weight_complete_loops(ti, tj)
    # the loop weight at a mixed pair is the full orbit size
    by = {t: r for r, t in enumerate(pm.tuples)}
    assert pm.entry_exact(by[(1, 2)], by[(1, 2)]) == 2
    assert pm.entry_exact(by[(1, 1)], by[(2, 3)]) == ExactWeight.sqrt(2)


def test_wiener_complete_loops_power():
    for n in range(1, 5):
        for k in range(1, 4):
            got = wiener_index(sym_power_graph(complete_loops(n), k))
            assert got == wiener_complete_loops_power(n, k)
            assert got == math.comb(multiset_count(n, k), 2)


def test_wiener_complete_power_readings():
    # frozen oracle values; the first printed reading matches, the second never
    oracle = {}
    for n in range(3, 7):
        for k in range(1, 4):
            oracle[(n, k)] = wiener_index(sym_power_graph(complete(n), k))
    assert oracle[(3, 2)] == 21
    assert oracle[(6, 3)] == 1720
    for (n, k), val in oracle.items():
        assert wiener_complete_power_statement(n, k) == val, (n, k)
        assert wiener_complete_power_proof(n, k) != val, (n, k)


def test_wiener_cycle_square_readings():
    for n in (3, 5, 7, 9):
        got = wiener_index(sym_power_graph(cycle(n), 2))
        assert wiener_cycle_square_statement(n) == got
        assert wiener_cycle_square_blocks(n) == got
    with pytest.raises(ValueError):
        wiener_cycle_square_statement(4)


def test_odd_cycle_square_readings_run_no_bfs(monkeypatch):
    # the readings take W(C_n) from its closed form, not from the BFS that
    # the wiener suite checks them against; fed the BFS's W(C_n) instead,
    # as they once were, they give the same values for every odd n to 99
    want = {}
    for n in range(3, 100, 2):
        monkeypatch.setattr(analysis, "_odd_cycle_wiener", lambda n, w=wiener_index(cycle(n)): w)
        want[n] = (wiener_cycle_square_statement(n), wiener_cycle_square_blocks(n))
    monkeypatch.undo()

    def no_bfs(*args):
        raise AssertionError("a closed form ran the BFS")

    monkeypatch.setattr(analysis, "_distance_sum", no_bfs)
    for n, values in want.items():
        assert (wiener_cycle_square_statement(n), wiener_cycle_square_blocks(n)) == values, n
    assert want[3] == (21, 21) and want[99][0] == want[99][1]


def test_degree_sequence_is_the_support_stats_degrees():
    graphs = [path(5), cycle(6), star(4), complete_loops(3), WeightedGraph(4, {(1, 1): 2, (2, 3): -0.5}),
              WeightedGraph(3, {})]
    for g in graphs:
        want = analysis.support_stats_blocks(g.n, [edge_arrays(g)])["degrees"]
        assert analysis.degree_sequence(g) == want == [degree(g, v) for v in range(1, g.n + 1)]


def test_one_regular_powers():
    for half in (1, 2, 3):
        g = WeightedGraph(2 * half, {(2 * i + 1, 2 * i + 2): 1 for i in range(half)})
        for k in range(1, 5):
            power = sym_power_graph(g, k)
            assert {degree(power, v) for v in range(1, power.n + 1)} == {1}


def test_star_square_structure():
    power = sym_power_graph(star(3), 2)
    structure = components(power)
    assert structure.count == 2
    sizes = sorted(len(c) for c in structure.members)
    assert sizes == [3, 7]


def test_predict_dispatch():
    assert predict("path_components", 3, 4) == 3
    assert predict("wiener_J", 3, 2) == 15
    assert predict("jn_weight", VertexMultiset((1, 2), 3), VertexMultiset((1, 1), 3)) == ExactWeight.sqrt(2)
    with pytest.raises(ValueError) as exc:
        predict("unknown_claim")
    assert "path_components" in str(exc.value)
