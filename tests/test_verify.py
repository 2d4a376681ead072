import dataclasses

import pytest

from symgraph import verify
from symgraph.graphs import WeightedGraph
from symgraph.verify import (
    Failure,
    SuiteResult,
    family_graphs,
    random_connected_graph01,
    random_graph01,
    random_rational_graph,
    run_suites,
    suite_kernels,
    suite_wiener,
)
from symgraph.analysis import components, is_bipartite
import random


def test_failure_line_format():
    f = Failure("spectra", "case one", "1 2", "3")
    assert f.line() == "FAIL spectra case one 1 2 3"
    # suites compact their payloads before building failures
    res = SuiteResult("demo")
    assert not res.check("my case", [1, 2], [1, 3])
    assert res.failures[0].line() == "FAIL demo mycase [1,2] [1,3]"
    assert res.check("fine", 5, 5)
    assert res.checks == 2


def test_run_suites_dispatch():
    results = run_suites(["wiener"], nmax=4)
    assert len(results) == 1 and results[0].name == "wiener"
    with pytest.raises(ValueError):
        run_suites(["nonsense"])


def test_run_all_returns_every_suite():
    names = [r.name for r in run_suites("all", nmax=2, kmax=1, seed=1)]
    assert names == ["kernels", "spectra", "subgraph", "components", "degrees", "wiener", "permutation"]


def test_wiener_suite_reports_every_case():
    res = suite_wiener(nmax=5, kmax=2)
    assert res.ok
    assert sum(1 for r in res.report if " complete " in r) == 3 * 2  # n in 3..5, k in 1..2
    assert sum(1 for r in res.report if " cycle_square " in r) == 2  # n in {3, 5}


@pytest.mark.parametrize("reading", ["wiener_complete_power_statement", "wiener_cycle_square_statement"])
def test_wiener_suite_fails_on_a_wrong_statement_reading(monkeypatch, reading):
    from symgraph import analysis

    right = getattr(analysis, reading)
    monkeypatch.setattr(analysis, reading, lambda *args: right(*args) + 1)
    res = suite_wiener(nmax=5, kmax=2)
    assert not res.ok
    assert len(res.failures) == (3 * 2 if "complete" in reading else 2)


def test_generators_deterministic():
    a = random_graph01(random.Random(5), 6)
    b = random_graph01(random.Random(5), 6)
    assert a == b
    assert random_rational_graph(random.Random(5), 4) == random_rational_graph(random.Random(5), 4)


def test_connected_generator_properties():
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected_graph01(rng, rng.randint(2, 7), bipartite=True)
        assert components(g).count == 1
        assert is_bipartite(g)
    for _ in range(20):
        g = random_connected_graph01(rng, rng.randint(2, 7))
        assert components(g).count == 1


def test_family_graphs_cover_names():
    tags = {tag.rsplit("_", 1)[0] if tag[-1].isdigit() else tag for tag, _ in family_graphs(4)}
    assert "scepter" in tags
    assert any(t.startswith("path") for t in tags)
    assert any(t.startswith("complete_bipartite") for t in tags)
    assert all(g.n <= 4 or tag.startswith("complete_bipartite") for tag, g in family_graphs(4))


def _kernels_on_both_paths(monkeypatch):
    """suite_kernels(nmax=3, kmax=3) run in-process and on a pool of two."""
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(verify, "_workers", lambda: workers)
        results.append(suite_kernels(nmax=3, kmax=3))
    return results


def test_kernels_suite_is_the_same_in_process_and_on_a_pool(monkeypatch):
    inline, pooled = _kernels_on_both_paths(monkeypatch)
    assert inline.ok and pooled.ok
    assert inline.checks == pooled.checks == 5 + (2 + 8 + 64 + 25) * 3

    # plant two disagreements: the permanent core of (graph_n2_b3, k=2) and
    # of (graph_n3_b0, k=3) is off by one; forked workers inherit the patch
    real = verify.sym_power
    planted = [(WeightedGraph(2, {(1, 1): 1, (1, 2): 1}), 2), (WeightedGraph(3, {}), 3)]

    def off_by_one(graph, k, method="permanent", **kwargs):
        power = real(graph, k, method=method, **kwargs)
        if method == "permanent" and (graph, k) in planted:
            core = power.core.copy()
            core[0, 0] += 1
            power = dataclasses.replace(power, core=core)
        return power

    monkeypatch.setattr(verify, "sym_power", off_by_one)
    inline, pooled = _kernels_on_both_paths(monkeypatch)
    assert inline.checks == pooled.checks == 5 + (2 + 8 + 64 + 25) * 3
    lines = [f.line() for f in inline.failures]
    assert lines == [f.line() for f in pooled.failures]
    assert [f.case for f in inline.failures] == ["graph_n2_b3_k2", "graph_n3_b0_k3"]
    zeros = [[0] * 10] * 10  # the empty graph on 3 vertices, k = 3: N = 10
    one_off = [[1] + [0] * 9] + zeros[1:]
    payloads = [str((1, core)).replace(" ", "") for core in (zeros, one_off)]
    assert lines[1] == " ".join(["FAIL kernels graph_n3_b0_k3", *payloads])


class PlantedError(Exception):
    pass


def test_an_error_in_a_kernel_case_reaches_the_caller_on_both_paths(monkeypatch):
    real = verify.sym_power

    def fail_on_rationals(graph, k, **kwargs):
        if any(w != int(w) for _, _, w in graph.edges()):
            raise PlantedError(f"planted at n={graph.n} k={k}")
        return real(graph, k, **kwargs)

    monkeypatch.setattr(verify, "sym_power", fail_on_rationals)
    for workers in (1, 2):
        monkeypatch.setattr(verify, "_workers", lambda: workers)
        with pytest.raises(PlantedError, match="planted at n="):
            suite_kernels(nmax=3, kmax=3)


def test_workers_is_one_per_usable_cpu_and_one_without_fork(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    assert verify._workers() == 3
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {1})
    assert verify._workers() == 1
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert verify._workers() == 1


def test_component_signature_on_hand_built_components():
    # shapes the components suite never meets: loops, odd cycles and
    # bipartite components that are not complete
    def signature(n, pairs):
        return verify._component_signature(WeightedGraph(n, {pair: 1 for pair in pairs}), tuple(range(1, n + 1)))

    assert signature(1, []) == ("complete_bipartite", 0, 1)
    assert signature(1, [(1, 1)]) == ("complete_loops", 1)
    assert signature(2, [(1, 2)]) == ("complete_bipartite", 1, 1)
    k23 = [(u, v) for u in (1, 2) for v in (3, 4, 5)]
    assert signature(5, k23) == ("complete_bipartite", 2, 3)
    k32 = [(u, v) for u in (1, 3, 5) for v in (2, 4)]  # the first vertex on the larger side
    assert signature(5, k32) == ("complete_bipartite", 2, 3)
    assert signature(3, [(1, 2), (2, 3), (1, 3)]) == ("other", 3)
    assert signature(4, [(1, 2), (2, 3), (3, 4)]) == ("other", 4)
    assert signature(4, [(1, 3), (1, 4), (2, 3)]) == ("other", 4)  # K_{2,2} minus the edge 2 -- 4
    assert signature(2, [(1, 2), (2, 2)]) == ("other", 2)
    # a component inside a larger graph is read on its own vertices
    graph = WeightedGraph(6, {(2, 5): 1, (5, 6): 1, (1, 1): 1})
    assert verify._component_signature(graph, (2, 5, 6)) == ("complete_bipartite", 1, 2)
    assert verify._component_signature(graph, (1,)) == ("complete_loops", 1)
