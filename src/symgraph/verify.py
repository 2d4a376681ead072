"""Theorem suites: mechanical checks of every verifiable power property.

Each suite compares computed powers against an independent prediction --
closed forms, brute-force enumeration, or a second kernel -- and returns a
:class:`SuiteResult` carrying machine-readable failures.  The CLI prints one
``FAIL <suite> <case> <expected> <got>`` line per failure and exits nonzero
when any suite failed.  Suites are deterministic for a given seed.

The ``kernels``, ``components``, ``degrees`` and ``permutation`` suites
build their cases -- seeded graphs and the predictions for them -- in the
calling process, in seed order, and :func:`_map_cases` runs them on forked
worker processes, one per usable CPU.  Each case returns its own
:class:`SuiteResult`, and the suite merges them in case order, so check
counts, ``FAIL`` and ``REPORT`` lines do not depend on the number of CPUs.
``spectra`` builds its cases the same way but runs them in-process: its
eigensolves call a multithreaded BLAS, whose threads in each worker would
contend for the same CPUs.  ``subgraph`` and ``wiener`` take a few tens of
milliseconds, about what starting a pool costs, and run in-process too.
Where a check reads only counts off a power -- components, loops, edges,
degrees -- it reads them from the power's upper pairs
(:func:`_support_stats`), with no :class:`WeightedGraph` built.

In the ``wiener`` suite, complete-graph powers and squared odd cycles each
have two printed closed-form readings.  The suite asserts that the
statement's reading equals the BFS oracle and *reports* which readings
each case matches, the other reading (``proof`` or ``blocks``) included.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from typing import Iterable

import numpy as np

from . import analysis
from .cli import SUITES
from .combinatorics import VertexMultiset, enumerate_multisets, multiset_count, rank
from .graphs import (
    WeightedGraph,
    adjacency_matrix,
    complete,
    complete_bipartite,
    complete_loops,
    cycle,
    path,
    scepter,
    star,
)
from .power import (
    SymPowerMatrix,
    _entry_orbit_sum,
    _read_matrix,
    edge_injection,
    loop_injection,
    permutation_matrix,
    relabel,
    ryser_permanent,
    sym_power,
    sym_power_graph,
    sym_power_permutation,
)
from .spectra import (
    Spectrum,
    det_formula,
    eigenvalues_symmetric,
    exact_determinant,
    predicted_power_spectrum,
    sign_log_det,
    spectra_match,
    trace_formula,
)

DEFAULT_SEED = 7


@dataclass
class Failure:
    suite: str
    case: str
    expected: str
    got: str

    def line(self) -> str:
        return f"FAIL {self.suite} {self.case} {self.expected} {self.got}"


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[Failure] = field(default_factory=list)
    report: list[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the suite, set by run_suites

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, case: str, expected, got) -> bool:
        """Record one comparison; equality must be exact."""
        return self.check_true(case, expected == got, expected, got)

    def check_true(self, case: str, condition: bool, expected="true", got="false") -> bool:
        self.checks += 1
        if not condition:
            self.failures.append(
                Failure(self.name, _compact(case), _compact(expected), _compact(got))
            )
        return condition

    def merge(self, parts: Iterable[SuiteResult]) -> None:
        """Append the checks, failures and report lines of each part, in order."""
        for part in parts:
            self.checks += part.checks
            self.failures += part.failures
            self.report += part.report


def _compact(value) -> str:
    return str(value).replace(" ", "")


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def random_graph01(rng: random.Random, n: int, loops: bool = True) -> WeightedGraph:
    weights = {}
    for u in range(1, n + 1):
        for v in range(u if loops else u + 1, n + 1):
            if rng.random() < 0.5:
                weights[(u, v)] = 1
    return WeightedGraph(n, weights)


def random_rational_graph(rng: random.Random, n: int, p: float = 0.6) -> WeightedGraph:
    weights = {}
    for u in range(1, n + 1):
        for v in range(u, n + 1):
            if rng.random() < p:
                num = rng.choice([x for x in range(-4, 5) if x])
                weights[(u, v)] = Fraction(num, rng.randint(1, 4))
    return WeightedGraph(n, weights)


# the probability that a pair outside the tree is an edge too
_EXTRA_EDGE = 0.3


def random_connected_graph01(rng: random.Random, n: int, bipartite: bool = False) -> WeightedGraph:
    """Random attachment tree plus extra edges; 2-coloring preserved on request."""
    parent = {v: rng.randint(1, v - 1) for v in range(2, n + 1)}
    color = {1: 0}
    for v in range(2, n + 1):
        color[v] = 1 - color[parent[v]]
    weights = {(min(u, v), max(u, v)): 1 for v, u in parent.items()}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if bipartite and color[u] == color[v]:
                continue
            if rng.random() < _EXTRA_EDGE:
                weights[(u, v)] = 1
    return WeightedGraph(n, weights)


def random_permutation(rng: random.Random, n: int) -> list[int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def family_graphs(nmax: int) -> list[tuple[str, WeightedGraph]]:
    """Every named family member on at most nmax vertices."""
    out: list[tuple[str, WeightedGraph]] = [("scepter", scepter())]
    for n in range(2, nmax + 1):
        out.append((f"path_{n}", path(n)))
    for n in range(3, nmax + 1):
        out.append((f"cycle_{n}", cycle(n)))
    for n in range(2, nmax + 1):
        out.append((f"complete_{n}", complete(n)))
    for n in range(1, nmax + 1):
        out.append((f"complete_loops_{n}", complete_loops(n)))
    for a in range(1, nmax):
        for b in range(a, nmax + 1 - a):
            out.append((f"complete_bipartite_{a}_{b}", complete_bipartite(a, b)))
    for m in range(1, nmax):
        out.append((f"star_{m}", star(m)))
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _naive_permanent(rows):
    k = len(rows)
    total = 0
    for perm in permutations(range(k)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def _workers() -> int:
    """Worker processes for ``_map_cases``: one per CPU this process may use.

    1 -- one usable CPU, or no ``fork`` start method -- means no pool: the
    cases then run in-process, one after another.
    """
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


# cases a worker takes at a time.  On 2 vCPUs, components, degrees and
# permutation took 0.53 s together at 2, 0.47 s at 4 and 0.43 s at 8; the
# kernels suite took the same time at 4, 8, 16 and 70 (medians of 8-10 runs)
_CHUNK = 8


def _run_case(case: tuple) -> SuiteResult:
    return case[0](*case[1:])


def _map_cases(cases: list[tuple]) -> list[SuiteResult]:
    """``function(*arguments)`` of each case ``(function, *arguments)``, in case order.

    The cases run on a pool of ``_workers()`` forked processes, or
    in-process, one after another, when that is 1.  The functions are
    module-level, so a worker finds each one by name in the module it
    inherited at the fork; an exception in a case reaches the caller.
    """
    workers = _workers()
    if workers == 1:
        return list(map(_run_case, cases))
    # imported here: the pool modules would add to every CLI start-up;
    # forked workers start with the parent's modules already imported
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_run_case, cases, chunksize=_CHUNK))


def _support_stats(power: SymPowerMatrix) -> dict[str, object]:
    """The edge, loop and component counts and the degrees of the power's
    graph (``analysis.support_stats_blocks``), counted off ``upper_blocks()``
    as they come -- the pairs ``to_graph`` makes edges -- with no graph built."""
    return analysis.support_stats_blocks(power.dim, power.upper_blocks())


def _kernel_case(tag: str, graph: WeightedGraph, kmax: int) -> SuiteResult:
    """The orbit and permanent cores of one graph, compared for k = 1..kmax."""
    res = SuiteResult("kernels")
    for k in range(1, kmax + 1):
        a = sym_power(graph, k, method="orbit")
        b = sym_power(graph, k, method="permanent")
        res.check(f"{tag}_k{k}", (a.denominator, a.core.tolist()), (b.denominator, b.core.tolist()))
    return res


def suite_kernels(nmax: int = 4, kmax: int = 4, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Exact agreement of the orbit-sum and permanent kernels.

    Runs every 0/1 graph (loops included) on up to nmax vertices and 25
    seeded random rational-weight graphs, for every k up to kmax, comparing
    the integer/rational cores entry for entry.  Also checks Ryser against
    the naive factorial-time permanent.
    """
    res = SuiteResult("kernels")
    rng = random.Random(seed)

    for size in range(1, 5):
        rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        res.check(f"ryser_vs_naive_{size}", _naive_permanent(rows), ryser_permanent(rows))
    rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
    res.check("ryser_vs_naive_frac", _naive_permanent(rows), ryser_permanent(rows))

    cases = []
    for n in range(1, nmax + 1):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        for bits in range(1 << len(pairs)):
            weights = {pairs[i]: 1 for i in range(len(pairs)) if bits >> i & 1}
            cases.append((_kernel_case, f"graph_n{n}_b{bits}", WeightedGraph(n, weights), kmax))
    for g in range(25):
        n = rng.randint(2, nmax)
        cases.append((_kernel_case, f"rational_{g}_n{n}", random_rational_graph(rng, n), kmax))
    res.merge(_map_cases(cases))
    return res


def _spectrum_case(name: str, graph: WeightedGraph, k: int) -> SuiteResult:
    """The power's eigenvalues against the k-fold products of the graph's."""
    res = SuiteResult("spectra")
    base = eigenvalues_symmetric(adjacency_matrix(graph))
    got = eigenvalues_symmetric(sym_power(graph, k).to_dense())
    want = predicted_power_spectrum(base, k)
    res.check_true(
        name,
        spectra_match(got, want),
        expected=[round(v, 10) for v in want.values],
        got=[round(v, 10) for v in got.values],
    )
    return res


def _trace_det_case(name: str, graph: WeightedGraph, k: int) -> SuiteResult:
    """The power's trace against the complete homogeneous polynomial of the
    graph's eigenvalues, and its determinant against the power law."""
    res = SuiteResult("spectra")
    n = graph.n
    base = eigenvalues_symmetric(adjacency_matrix(graph))
    power = sym_power(graph, k)
    dense = power.to_dense()
    got_tr = float(np.trace(dense))
    want_tr = trace_formula(base, k)
    res.check_true(
        f"trace_{name}",
        abs(got_tr - want_tr) <= 1e-8 * max(1.0, abs(got_tr), abs(want_tr)),
        expected=round(want_tr, 10),
        got=round(got_tr, 10),
    )
    # exact route: det(E) = det(S) / prod(D) must equal det(A)^binom(n+k-1, n)
    det_exact_a = exact_determinant(graph.weight_rows())
    det_core = exact_determinant(power.core.tolist())
    res.check(
        f"det_exact_{name}",
        det_exact_a ** math.comb(n + k - 1, n),
        det_core / (power.denominator**power.dim * math.prod(power.orbit_sizes)),
    )
    # float route only where no eigenvalue sits near zero (sign is then stable)
    if det_exact_a != 0 and min(abs(v) for v in base.values) >= 1e-3:
        want_det = det_formula(float(det_exact_a), n, k)
        got_det = sign_log_det(eigenvalues_symmetric(dense))
        res.check_true(
            f"det_{name}",
            got_det.close_to(want_det, rel_tol=1e-6),
            expected=(want_det.sign, round(want_det.logabs, 8)),
            got=(got_det.sign, round(got_det.logabs, 8)),
        )
    return res


def suite_spectra(nmax: int = 6, kmax: int = 4, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Power spectra are the product multisets; trace and determinant laws."""
    res = SuiteResult("spectra")
    rng = random.Random(seed)

    cases = [
        (_spectrum_case, f"{tag}_k{k}", graph, k)
        for tag, graph in family_graphs(nmax)
        for k in range(1, kmax + 1)
        if multiset_count(graph.n, k) <= 300
    ]
    for g in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        cases.append((_spectrum_case, f"random_{g}_n{n}_k{k}", random_graph01(rng, n), k))
    for g in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        cases.append((_trace_det_case, f"{g}_n{n}_k{k}", random_rational_graph(rng, n, p=0.7), k))
    # in-process: on a pool each worker's BLAS runs its own threads on the
    # same CPUs; on 2 vCPUs the suite took 0.23-0.31 s pooled, 0.11-0.19 s here
    res.merge(map(_run_case, cases))

    # direct-sum oracle for the trace recurrence
    for g in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        values = tuple(rng.uniform(-2, 2) for _ in range(n))
        spec = Spectrum(values)
        direct = sum(
            float(np.prod(combo)) for combo in combinations_with_replacement(values, k)
        )
        res.check_true(
            f"trace_direct_{g}",
            abs(trace_formula(spec, k) - direct) <= 1e-9 * max(1.0, abs(direct)),
            expected=round(direct, 10),
            got=round(trace_formula(spec, k), 10),
        )
    return res


def suite_subgraph(nmax: int = 6, kmax: int = 4, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Every 0/1 graph embeds in its powers on the constant tuples; padded
    tuples keep adjacency across nested powers."""
    res = SuiteResult("subgraph")
    rng = random.Random(seed)
    for g in range(100):
        n = rng.randint(2, nmax)
        k = rng.randint(1, kmax)
        graph = random_graph01(rng, n, loops=rng.random() < 0.4)
        power = sym_power(graph, k)
        const_rank = [rank(VertexMultiset((v,) * k, n), power.order) for v in range(1, n + 1)]
        sub = [[power.core_entry(const_rank[u], const_rank[v]) for v in range(n)] for u in range(n)]
        res.check(f"constants_{g}_n{n}_k{k}", graph.weight_rows(), sub)

    def nests(graph: WeightedGraph, k1: int, k2: int, pad) -> bool:
        """Whether every nonzero core entry of the k1-th power stays nonzero in
        the k2-th power between the tuples ``pad`` lifts its ends to."""
        small, big = sym_power(graph, k1), sym_power(graph, k2)
        lifted = [rank(pad(VertexMultiset(t, graph.n)), "paper") for t in small.tuples]
        return all(
            big.core_entry(lifted[a], lifted[b])
            for a in range(small.dim)
            for b in range(small.dim)
            if small.core_entry(a, b)
        )

    # nesting of supports under the two padding injections
    for g in range(20):
        n = rng.randint(2, 4)
        graph = random_graph01(rng, n, loops=True)
        looped = [v for v in range(1, n + 1) if graph.weight(v, v)]
        edges = [(u, v) for u, v, _ in graph.edges() if u != v]
        if looped:
            k1 = rng.randint(1, 2)
            k2 = rng.randint(k1 + 1, max(k1 + 1, kmax))
            res.check_true(f"nest_loop_{g}_k{k1}to{k2}", nests(graph, k1, k2, lambda t: loop_injection(t, looped[0], k2)))
        if edges:
            k1 = rng.randint(1, 2)
            k2 = k1 + 2
            u, v = edges[0]
            res.check_true(f"nest_edge_{g}_k{k1}to{k2}", nests(graph, k1, k2, lambda t: edge_injection(t, u, v, 1)))
    return res


def _component_signature(graph: WeightedGraph, members: tuple[int, ...]):
    """Classify one component as complete with loops, complete bipartite
    (between the first vertex's neighbours and the rest) or other."""
    at = np.array(members) - 1
    adjacent = adjacency_matrix(graph)[np.ix_(at, at)] != 0
    if adjacent.all():
        return ("complete_loops", len(members))
    side = adjacent[0]
    if np.array_equal(adjacent, side[:, None] != side[None, :]):
        a, b = sorted((len(members) - int(side.sum()), int(side.sum())))
        return ("complete_bipartite", a, b)
    return ("other", len(members))


def _count_case(suite: str, key: str, name: str, graph: WeightedGraph, k: int, want: int) -> SuiteResult:
    """One count of the power, its ``_support_stats`` entry ``key``, against
    its prediction."""
    res = SuiteResult(suite)
    res.check(name, want, _support_stats(sym_power(graph, k))[key])
    return res


def _ceiling_case(name: str, graph: WeightedGraph, k: int) -> SuiteResult:
    """At most 2^(k-1) components in the power."""
    res = SuiteResult("components")
    got = _support_stats(sym_power(graph, k))["components"]
    res.check_true(name, got <= 2 ** (k - 1), f"<={2 ** (k - 1)}", got)
    return res


def _bipartite_case(a: int, b: int, k: int) -> SuiteResult:
    """The shape of every component of the power of K_{a,b}, and their count."""
    res = SuiteResult("components")
    power = sym_power_graph(complete_bipartite(a, b), k)
    structure = analysis.components(power)
    want = sorted(
        desc if desc[0] != "complete_bipartite" else (desc[0], *sorted(desc[1:]))
        for desc in analysis.bipartite_power_components(a, b, k)
    )
    got = sorted(_component_signature(power, comp) for comp in structure.members)
    res.check(f"bipartite_{a}_{b}_k{k}", want, got)
    res.check(f"bipartite_{a}_{b}_k{k}_count", (k + 2) // 2, structure.count)
    return res


def suite_components(nmax: int = 8, kmax: int = 5, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Component counts of family powers and the parity dichotomy at k=2."""
    res = SuiteResult("components")
    rng = random.Random(seed)
    cases = []
    component_count = (_count_case, "components", "components")

    for n in range(2, min(nmax, 7) + 1):
        for k in range(1, min(kmax, 5) + 1):
            cases.append((*component_count, f"path_{n}_k{k}", path(n), k, analysis.path_components(n, k)))

    for n in range(3, min(nmax, 8) + 1):
        for k in range(1, min(kmax, 4) + 1):
            cases.append((*component_count, f"cycle_{n}_k{k}", cycle(n), k, analysis.cycle_components(n, k)))

    for a in range(1, 4):
        for b in range(a, 4):
            for k in range(1, min(kmax, 4) + 1):
                cases.append((_bipartite_case, a, b, k))

    # connected bipartite doubles, connected non-bipartite stays whole
    for g in range(100):
        n = rng.randint(2, 6)
        graph = random_connected_graph01(rng, n, bipartite=g % 2 == 0)
        bipartite = analysis.is_bipartite(graph)
        cases.append((*component_count, f"dichotomy_{g}_n{n}", graph, 2, 2 if bipartite else 1))
        if not bipartite and analysis.count_loops(graph) == 0:
            for k in range(2, min(kmax, 4) + 1):
                cases.append((*component_count, f"nonbip_connected_{g}_k{k}", graph, k, 1))

    # the general ceiling: at most 2^(k-1) components
    for tag, graph in family_graphs(min(nmax, 7)):
        for k in range(1, min(kmax, 4) + 1):
            cases.append((_ceiling_case, f"ceiling_{tag}_k{k}", graph, k))
    res.merge(_map_cases(cases))
    return res


def _square_case(g: int, graph: WeightedGraph) -> SuiteResult:
    """Degrees, loops and edges of the square of a loopless graph against
    their formulas; the printed lower edge bound is reported, not checked."""
    res = SuiteResult("degrees")
    n = graph.n
    power = sym_power(graph, 2)
    stats = _support_stats(power)
    degrees = dict(zip(power.tuples, stats["degrees"]))
    ok = all(
        degrees[(a, b)] == analysis.deg2(graph, a, b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
    )
    res.check_true(f"deg2_{g}_n{n}", ok)
    res.check(f"loops2_{g}_n{n}", analysis.loops2(graph), stats["loops"])
    res.check(f"edges2_{g}_n{n}", analysis.edges2(graph), stats["edges"])
    lo, hi = analysis.edge_bounds(graph, 2)
    e2 = stats["edges"]
    if analysis.edge_count(graph):
        # the upper bound is the tensor-power edge count and always holds;
        # the printed lower bound overestimates (a collapsed edge can absorb
        # up to (k!)^2 tensor edges, not k!), so violations are reported
        res.check_true(f"edge_upper_{g}_n{n}", e2 <= hi, f"<={hi}", e2)
        res.check_true(f"edge_lower_relaxed_{g}_n{n}", e2 * 4 >= hi, f">={hi}/4", e2)
        if e2 < lo:
            res.report.append(
                f"REPORT degrees printed_lower_edge_bound_violated n={n} "
                f"edges={analysis.edge_count(graph)} bound={lo} actual={e2}"
            )
    return res


def _two_loops_case() -> SuiteResult:
    """Two looped vertices and no edge: the loop formula of the square sees
    them through its nonadjacent-pair term."""
    res = SuiteResult("degrees")
    two_loops = WeightedGraph(2, {(1, 1): 1, (2, 2): 1})
    res.check("nonadjacent_loop_pair", 1, analysis.nonadjacent_loop_pairs(two_loops))
    res.check("loops2_two_loops", 3, _support_stats(sym_power(two_loops, 2))["loops"])
    return res


def _constant_tuple_case(g: int, graph: WeightedGraph, k: int) -> SuiteResult:
    """Degrees of the constant tuples, and every degree within the
    joint-neighborhood bound."""
    res = SuiteResult("degrees")
    n = graph.n
    power = sym_power(graph, k)
    degrees = _support_stats(power)["degrees"]
    for v in range(1, n + 1):
        r = rank(VertexMultiset((v,) * k, n), power.order)
        res.check(f"diag_degree_{g}_v{v}", analysis.diag_degree(graph, v, k), degrees[r])
    ok = all(
        degrees[r] <= analysis.neighbor_bound(graph, VertexMultiset(power.tuples[r], n))
        for r in range(power.dim)
    )
    res.check_true(f"neighbor_bound_{g}", ok)
    return res


def _one_regular_case(half: int, k: int) -> SuiteResult:
    """A perfect matching's powers are 1-regular."""
    res = SuiteResult("degrees")
    matching = WeightedGraph(2 * half, {(2 * i + 1, 2 * i + 2): 1 for i in range(half)})
    degrees = _support_stats(sym_power(matching, k))["degrees"]
    res.check(f"one_regular_{half}_k{k}", [1], sorted(set(degrees)))
    return res


def _all_ones_case(n: int) -> SuiteResult:
    """Powers of the all-ones matrix: complete with loops, with known
    weights and edge counts."""
    res = SuiteResult("degrees")
    edges2 = _support_stats(sym_power(complete_loops(n), 2))["edges"]
    res.check(f"allones_{n}_edges", math.comb(math.comb(n + 1, 2) + 1, 2), edges2)
    for k in range(1, 4):
        pm = sym_power(complete_loops(n), k)
        big = pm.dim
        res.check(f"allones_{n}_k{k}_support", big * (big + 1) // 2, _support_stats(pm)["edges"])
        ok = all(
            pm.entry_exact(i, j)
            == analysis.power_edge_weight_complete_loops(
                VertexMultiset(pm.tuples[i], n), VertexMultiset(pm.tuples[j], n)
            )
            for i in range(big)
            for j in range(i, big)
        )
        res.check_true(f"allones_{n}_k{k}_weights", ok)
    return res


def suite_degrees(nmax: int = 6, kmax: int = 4, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Degree, loop, and edge-count formulas against plain enumeration."""
    res = SuiteResult("degrees")
    rng = random.Random(seed)
    cases = []
    loop_count = (_count_case, "degrees", "loops")

    # squared-power formulas on loopless graphs
    for g in range(100):
        n = rng.randint(2, nmax)
        cases.append((_square_case, g, random_graph01(rng, n, loops=False)))

    # loop-count formula still sees loops through the nonadjacent-pair term
    for g in range(50):
        n = rng.randint(2, nmax)
        graph = random_graph01(rng, n, loops=True)
        cases.append((*loop_count, f"loops2_looped_{g}_n{n}", graph, 2, analysis.loops2(graph)))
    cases.append((_two_loops_case,))

    # path loop counts across the parity split
    for n in range(2, min(nmax, 7) + 1):
        for k in range(1, min(kmax, 5) + 1):
            cases.append((*loop_count, f"path_loops_{n}_k{k}", path(n), k, analysis.path_loops(n, k)))

    # constant-tuple degrees and the joint-neighborhood bound
    for g in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        cases.append((_constant_tuple_case, g, random_graph01(rng, n, loops=False), k))

    cases += [(_one_regular_case, half, k) for half in (1, 2, 3) for k in range(1, min(kmax, 4) + 1)]
    cases += [(_all_ones_case, n) for n in range(1, 5)]
    res.merge(_map_cases(cases))
    return res


def suite_wiener(nmax: int = 6, kmax: int = 3, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Wiener indices: exact law for all-ones powers; for complete-graph powers
    and squared odd cycles, the statement's closed form against the oracle."""
    del seed  # fully deterministic suite; parameter kept for a uniform surface
    res = SuiteResult("wiener")

    res.check("path_3", 4, analysis.wiener_index(path(3)))
    for n in range(2, 6):
        res.check(f"complete_{n}", math.comb(n, 2), analysis.wiener_index(complete(n)))

    for n in range(1, 5):
        for k in range(1, min(kmax, 3) + 1):
            got = analysis.wiener_index(sym_power_graph(complete_loops(n), k))
            res.check(f"allones_{n}_k{k}", analysis.wiener_complete_loops_power(n, k), got)

    res.report.append("REPORT wiener readings: oracle is authoritative; closed forms as printed")
    for n in range(3, nmax + 1):
        for k in range(1, kmax + 1):
            oracle = analysis.wiener_index(sym_power_graph(complete(n), k))
            statement = analysis.wiener_complete_power_statement(n, k)
            res.check(f"complete_{n}_k{k}", oracle, statement)
            proof = analysis.wiener_complete_power_proof(n, k)
            matches = [
                name
                for name, val in (("statement", statement), ("proof", proof))
                if val == oracle
            ]
            res.report.append(
                f"REPORT wiener complete n={n} k={k} oracle={oracle} "
                f"statement={statement} proof={proof} matches={','.join(matches) or 'none'}"
            )

    for n in range(3, nmax + 1, 2):
        oracle = analysis.wiener_index(sym_power_graph(cycle(n), 2))
        statement = analysis.wiener_cycle_square_statement(n)
        res.check(f"cycle_square_{n}", oracle, statement)
        blocks = analysis.wiener_cycle_square_blocks(n)
        matches = [
            name for name, val in (("statement", statement), ("blocks", blocks)) if val == oracle
        ]
        res.report.append(
            f"REPORT wiener cycle_square n={n} oracle={oracle} "
            f"statement={statement} blocks={blocks} matches={','.join(matches) or 'none'}"
        )
    return res


def _permutation_matrix_case(g: int, k: int, sigma: list[int]) -> SuiteResult:
    """The k-th power of sigma's matrix, entry by entry by the orbit sum, is
    the matrix of the rank permutation sigma induces, a bijection."""
    res = SuiteResult("permutation")
    n = len(sigma)
    sp = sym_power_permutation(sigma, k)
    rows, rational = _read_matrix(permutation_matrix(sigma))
    msets = enumerate_multisets(n, k, "paper")
    ok = all(
        _entry_orbit_sum(rows, rational, tx, ty) == (1 if sp.mapping[x] == y else 0)
        for x, tx in enumerate(msets)
        for y, ty in enumerate(msets)
    )
    res.check_true(f"perm_matrix_{g}_n{n}_k{k}", ok)
    res.check(f"perm_bijection_{g}", sorted(sp.mapping), list(range(sp.dim)))
    return res


def _equivariance_case(g: int, graph: WeightedGraph, k: int, sigma: list[int]) -> SuiteResult:
    """Relabeling by sigma before the power equals permuting the power."""
    res = SuiteResult("permutation")
    n = graph.n
    a = sym_power(graph, k)
    b = sym_power(relabel(graph, sigma), k)
    sp = sym_power_permutation(sigma, k)
    m = sp.mapping
    ok = a.denominator == b.denominator and np.array_equal(b.core[np.ix_(m, m)], a.core)
    res.check_true(f"equivariance_{g}_n{n}_k{k}", ok)
    res.check(
        f"equivariance_sizes_{g}",
        [a.orbit_sizes[x] for x in range(a.dim)],
        [b.orbit_sizes[sp.apply(x)] for x in range(a.dim)],
    )
    return res


def suite_permutation(nmax: int = 5, kmax: int = 3, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Permutation powers are permutations; powers commute with relabeling."""
    res = SuiteResult("permutation")
    rng = random.Random(seed)

    # worked 3x3 and 6x6 instances
    swap = sym_power_permutation([2, 1], 2)
    res.check("swap_k2", ((0, 1, 0), (1, 0, 0), (0, 0, 1)), tuple(map(tuple, swap.matrix())))
    swap3 = sym_power_permutation([2, 1], 3)
    res.check(
        "swap_k3",
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        tuple(map(tuple, swap3.matrix())),
    )
    three_cycle = sym_power_permutation([2, 3, 1], 2)
    res.check(
        "three_cycle_k2",
        (
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
        ),
        tuple(map(tuple, three_cycle.matrix())),
    )

    ident = sym_power_permutation(list(range(1, 5)), 3)
    res.check("identity", tuple(range(ident.dim)), ident.mapping)

    # sym power of the permutation matrix IS the induced rank permutation
    cases = []
    for g in range(20):
        n = rng.randint(2, nmax)
        k = rng.randint(1, kmax)
        cases.append((_permutation_matrix_case, g, k, random_permutation(rng, n)))

    # equivariance: relabeling before or after the power is the same thing
    for g in range(50):
        n = rng.randint(2, nmax)
        k = rng.randint(1, kmax)
        graph = random_rational_graph(rng, n, p=0.6)
        cases.append((_equivariance_case, g, graph, k, random_permutation(rng, n)))
    res.merge(_map_cases(cases))
    return res


def run_suites(
    names: list[str] | str = "all",
    nmax: int | None = None,
    kmax: int | None = None,
    seed: int | None = None,
) -> list[SuiteResult]:
    """Run the named suites, or all of them for ``"all"``, with optional
    budget overrides."""
    if names == "all":
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITES + ('all',)}")
        kwargs = {}
        if nmax is not None:
            kwargs["nmax"] = nmax
        if kmax is not None:
            kwargs["kmax"] = kmax
        if seed is not None:
            kwargs["seed"] = seed
        start = time.perf_counter()
        result = globals()[f"suite_{name}"](**kwargs)  # each name in SUITES has its suite_<name>
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
