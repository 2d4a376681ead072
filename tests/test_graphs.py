import math
from fractions import Fraction

import numpy as np
import pytest

from symgraph.graphs import (
    WeightedGraph,
    adjacency_matrix,
    complete,
    complete_bipartite,
    complete_loops,
    cycle,
    family,
    path,
    scepter,
    star,
)


def test_weights_canonicalized():
    g = WeightedGraph(3, {(2, 1): 5, (3, 3): 1})
    assert g.weight(1, 2) == 5
    assert g.weight(2, 1) == 5
    assert g.weight(3, 3) == 1
    assert g.weight(1, 3) == 0
    assert g.edges() == [(1, 2, 5), (3, 3, 1)]


def test_zero_weight_deletes_pair():
    g = WeightedGraph(2, {(1, 2): 0})
    assert not g.has_edge(1, 2)
    assert g.pair_count() == 0


def test_conflicting_duplicate_rejected():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(1, 2, 1), (2, 1, 3)])
    # same value twice is tolerated
    g = WeightedGraph(2, [(1, 2, 1), (2, 1, 1)])
    assert g.weight(1, 2) == 1


def test_validation():
    with pytest.raises(ValueError):
        WeightedGraph(0)
    with pytest.raises(ValueError):
        WeightedGraph(2, {(1, 3): 1})
    with pytest.raises(ValueError):
        WeightedGraph(2, {(1, 2): float("inf")})
    with pytest.raises(ValueError):
        WeightedGraph(2, labels=("a",))


def test_is_rational():
    assert WeightedGraph(2, {(1, 2): Fraction(1, 3)}).is_rational
    assert not WeightedGraph(2, {(1, 2): 0.5}).is_rational


def test_numpy_integer_weights_are_stored_as_python_ints():
    # an np.int64 weight made the graph read as float: the power ran in
    # float64 and the file said 1.0, though the graph equals the int one
    from symgraph.fileio import write_graph
    from symgraph.power import sym_power

    from_numpy = (
        WeightedGraph.from_matrix(np.array([[0, 1], [1, 2]])),
        WeightedGraph(2, {(1, 2): np.int64(1), (2, 2): np.int32(2)}),
    )
    for g in from_numpy:
        assert g == WeightedGraph(2, {(1, 2): 1, (2, 2): 2})
        assert g.is_rational and [type(w) for _, _, w in g.edges()] == [int, int]
        assert sym_power(g, 2).path == "int64"
        assert write_graph(g) == "2\n1 2 1\n2 2 2\n"


def test_bool_weights_are_stored_as_python_ints():
    # a bool weight powered exactly, but entry_permanent read it as a float
    # and write_graph refused it
    from symgraph.combinatorics import VertexMultiset
    from symgraph.exact import ExactWeight
    from symgraph.fileio import write_graph
    from symgraph.power import entry_permanent, sym_power

    for g in (
        WeightedGraph(2, {(1, 2): True}),
        WeightedGraph(2, {(1, 2): np.True_}),
        WeightedGraph.from_matrix(np.array([[False, True], [True, False]])),
    ):
        assert g == path(2)
        assert [type(w) for _, _, w in g.edges()] == [int]
        assert sym_power(g, 2).path == "int64"
        i = VertexMultiset((1, 2), 2)
        assert entry_permanent(g.weight_rows(), i, i) == ExactWeight.of(1)
        assert write_graph(g) == "2\n1 2 1\n"


def test_adjacency_matrix_golden():
    assert np.array_equal(
        adjacency_matrix(complete(3)),
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float),
    )
    assert np.array_equal(adjacency_matrix(scepter()), np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(adjacency_matrix(WeightedGraph(1)), np.zeros((1, 1)))


def test_matrix_round_trip():
    g = WeightedGraph(3, {(1, 2): Fraction(2, 3), (2, 2): 4})
    again = WeightedGraph.from_matrix(g.weight_rows())
    assert again == g
    with pytest.raises(ValueError):
        WeightedGraph.from_matrix([[0, 1], [2, 0]])


def test_family_edge_counts():
    for n in range(1, 7):
        assert path(n).pair_count() == n - 1
        assert complete(n).pair_count() == n * (n - 1) // 2
        assert complete_loops(n).pair_count() == math.comb(n + 1, 2)
    for n in range(3, 7):
        assert cycle(n).pair_count() == n
    for n in range(1, 4):
        for m in range(1, 4):
            assert complete_bipartite(n, m).pair_count() == n * m
    assert star(3).pair_count() == 3


def test_family_members_are_01():
    for g in (path(4), cycle(5), complete(4), complete_loops(3), complete_bipartite(2, 3)):
        assert all(w == 1 for _, _, w in g.edges())


def test_scepter_structure():
    g = scepter()
    assert g.edges() == [(1, 1, 1), (1, 2, 1)]


def test_path3_edges():
    assert path(3).edges() == [(1, 2, 1), (2, 3, 1)]


def test_complete_loops_edge_total():
    # n + C(n, 2) pairs: every vertex looped, every pair joined
    g = complete_loops(3)
    assert g.pair_count() == 6
    assert sum(1 for u, v, _ in g.edges() if u == v) == 3


def test_family_dispatch():
    assert family("path", 3) == path(3)
    assert family("scepter") == scepter()
    assert family("complete_bipartite", 2, 3) == complete_bipartite(2, 3)
    with pytest.raises(ValueError):
        family("moebius", 4)
    with pytest.raises(ValueError):
        family("path")
    with pytest.raises(ValueError):
        family("cycle", 2)
    with pytest.raises(ValueError):
        family("path", -1)


def test_neighbors_and_labels():
    g = WeightedGraph(3, {(1, 1): 1, (1, 2): 1}, labels=("a", "b", "c"))
    assert g.neighbors(1) == {1, 2}
    assert g.neighbors(3) == set()
    assert g.label(2) == "b"
    assert WeightedGraph(2).label(2) == "2"
