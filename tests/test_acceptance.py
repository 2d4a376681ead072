"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
stream; the criteria are numbered C01..C11.
"""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from symgraph import verify
from symgraph.cli import main as cli_main
from symgraph.combinatorics import multiset_count
from symgraph.exact import ExactWeight
from symgraph.graphs import WeightedGraph, adjacency_matrix, complete, complete_loops, cycle, path, scepter
from symgraph.power import sym_power, sym_power_graph
from symgraph.spectra import Spectrum, eigenvalues_symmetric, spectra_match
from symgraph import analysis

R5 = math.sqrt(5)


def criterion(cid, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {cid} FAIL {summary}")
                raise
            print(f"ACCEPTANCE {cid} PASS {summary}")
            return result

        return run

    return wrap


@pytest.fixture(scope="module")
def spectra_suite():
    t0 = time.perf_counter()
    result = verify.suite_spectra()
    result.elapsed = time.perf_counter() - t0
    return result


@criterion("C01", "golden matrices: complete-3 square and scepter powers 2..5, exact, <1s")
def test_c01_golden_matrices(capsys, tmp_path):
    t0 = time.perf_counter()
    one, zero, s2 = ExactWeight.of(1), ExactWeight.of(0), ExactWeight.sqrt(2)
    want = [
        [zero, one, one, zero, zero, s2],
        [one, zero, one, zero, s2, zero],
        [one, one, zero, s2, zero, zero],
        [zero, zero, s2, one, one, one],
        [zero, s2, zero, one, one, one],
        [s2, zero, zero, one, one, one],
    ]
    power = sym_power(complete(3), 2, order="paper")
    got = [[power.entry_exact(i, j) for j in range(6)] for i in range(6)]
    assert got == want
    assert {w for row in got for w in row} <= {zero, one, s2}

    s3, s5, s6, s10 = (ExactWeight.sqrt(r) for r in (3, 5, 6, 10))
    two, three, four = (ExactWeight.of(q) for q in (2, 3, 4))
    scepter_golden = {
        2: [[one, one, s2], [one, zero, zero], [s2, zero, one]],
        3: [
            [one, one, s3, s3],
            [one, zero, zero, zero],
            [s3, zero, two, one],
            [s3, zero, one, zero],
        ],
        4: [
            [one, one, two, s6, two],
            [one, zero, zero, zero, zero],
            [two, zero, three, s6, one],
            [s6, zero, s6, one, zero],
            [two, zero, one, zero, zero],
        ],
        5: [
            [one, one, s5, s10, s10, s5],
            [one, zero, zero, zero, zero, zero],
            [s5, zero, four, ExactWeight.make(3, 2), ExactWeight.make(2, 2), one],
            [s10, zero, ExactWeight.make(3, 2), three, one, zero],
            [s10, zero, ExactWeight.make(2, 2), one, zero, zero],
            [s5, zero, one, zero, zero, zero],
        ],
    }
    for k, matrix in scepter_golden.items():
        power = sym_power(scepter(), k, order="paper")
        got = [[power.entry_exact(i, j) for j in range(power.dim)] for i in range(power.dim)]
        assert got == matrix, f"scepter power {k}"

    # the CLI route emits the same entries as exact tokens
    source = tmp_path / "k3.txt"
    source.write_text("3\n1 2\n1 3\n2 3\n")
    assert cli_main(["power", "-k", "2", "--exact", str(source)]) == 0
    out = capsys.readouterr().out
    tokens = {line.split()[2] for line in out.splitlines()[1:]}
    assert tokens == {"1", "sqrt(2)"}

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"golden matrices took {elapsed:.2f}s"


@criterion("C02", "spectral theorem on families (n<=6, k<=4) + 50 random, tol 1e-8; scepter 1e-9; <30s")
def test_c02_spectral_theorem(spectra_suite):
    spectral_cases = [
        f for f in spectra_suite.failures if not f.case.startswith(("trace", "det"))
    ]
    assert spectral_cases == []
    assert spectra_suite.elapsed < 30.0, f"spectra suite took {spectra_suite.elapsed:.1f}s"

    golden = {
        1: [(1 - R5) / 2, (1 + R5) / 2],
        2: [-1.0, (3 - R5) / 2, (3 + R5) / 2],
        3: [(-1 - R5) / 2, 2 - R5, (-1 + R5) / 2, R5 + 2],
        4: [1.0, (7 - 3 * R5) / 2, (-R5 - 3) / 2, (R5 - 3) / 2, (3 * R5 + 7) / 2],
        5: [(11 - 5 * R5) / 2, -R5 - 2, (1 - R5) / 2, R5 - 2, (R5 + 1) / 2, (5 * R5 + 11) / 2],
    }
    g = scepter()
    for k, values in golden.items():
        dense = adjacency_matrix(g) if k == 1 else sym_power(g, k).to_dense()
        got = eigenvalues_symmetric(dense, tol=1e-9)
        assert spectra_match(got, Spectrum(values, tol=1e-9)), f"scepter spectrum k={k}"


@criterion("C03", "trace h_k at 1e-8 and determinant power law at rel 1e-6 (n<=5, k<=3)")
def test_c03_trace_det(spectra_suite):
    import numpy as np

    from symgraph.spectra import det_formula, exact_determinant, sign_log_det, trace_formula

    assert [f for f in spectra_suite.failures if f.case.startswith(("trace", "det"))] == []
    assert spectra_suite.checks > 100

    # one fully spelled-out nonsingular instance at the stated tolerances
    g = WeightedGraph(
        4, {(1, 2): 1, (1, 3): Fraction(1, 2), (2, 4): 2, (3, 4): 1, (1, 1): 1, (2, 3): 1, (4, 4): 1}
    )
    base = eigenvalues_symmetric(adjacency_matrix(g))
    for k in (1, 2, 3):
        power = sym_power(g, k)
        dense = power.to_dense()
        got_tr = float(np.trace(dense))
        want_tr = trace_formula(base, k)
        assert abs(got_tr - want_tr) <= 1e-8 * max(1.0, abs(want_tr))
        det_a = exact_determinant(g.weight_rows())
        want = det_formula(float(det_a), 4, k)
        got = sign_log_det(eigenvalues_symmetric(dense))
        assert got.close_to(want, rel_tol=1e-6), (k, want, got)
        dd = math.prod(power.orbit_sizes)
        core = [[power.core_entry(i, j) for j in range(power.dim)] for i in range(power.dim)]
        assert Fraction(exact_determinant(core), dd) == det_a ** math.comb(4 + k - 1, 4)


@criterion("C04", "kernel equivalence: exact core agreement on all graphs n<=4, k<=4 + 25 rational")
def test_c04_kernel_equivalence():
    result = verify.suite_kernels()
    assert result.failures == []
    assert result.checks >= 4392  # 1098 exhaustive graphs x 4 exponents, plus extras


@criterion("C05", "subgraph embedding: constant-tuple submatrix equals the adjacency, 100 graphs")
def test_c05_subgraph():
    result = verify.suite_subgraph(graphs=100)
    assert result.failures == []
    assert result.checks >= 100


@criterion("C06", "component counts: paths, cycles, bipartite structure, parity dichotomy")
def test_c06_components():
    result = verify.suite_components()
    assert result.failures == []
    # spot checks on the small path powers
    assert analysis.components(sym_power_graph(path(3), 2)).count == 2
    assert analysis.components(sym_power_graph(path(3), 4)).count == 3


@criterion("C07", "loops and degrees: parity loop counts, squared-power formulas, exact integers")
def test_c07_loops_degrees():
    result = verify.suite_degrees()
    assert result.failures == []
    four = sym_power_graph(path(3), 4)
    assert analysis.count_loops(four) == 3
    assert analysis.components(four).count == 3
    assert analysis.count_loops(sym_power_graph(path(3), 3)) == 0


@criterion("C08", "all-ones powers: complete-with-loops support, edge counts 1,6,21,55, exact weights")
def test_c08_all_ones_powers():
    for n in range(1, 5):
        for k in range(1, 4):
            power = sym_power(complete_loops(n), k)
            dim = power.dim
            assert dim == multiset_count(n, k)
            assert all(
                power.core_entry(i, j) for i in range(dim) for j in range(i, dim)
            ), "support must be complete with loops"
            for i in range(dim):
                for j in range(i, dim):
                    d = power.orbit_sizes[i] * power.orbit_sizes[j]
                    assert power.entry_exact(i, j) == ExactWeight.sqrt(d)
    counts = [
        analysis.edge_count(sym_power_graph(complete_loops(n), 2)) for n in (1, 2, 3, 4)
    ]
    assert counts == [1, 6, 21, 55]


@criterion("C09", "wiener: all-ones exact; complete/cycle oracle runs + discrepancy table emitted")
def test_c09_wiener():
    for n in range(1, 5):
        for k in range(1, 4):
            got = analysis.wiener_index(sym_power_graph(complete_loops(n), k))
            assert got == math.comb(multiset_count(n, k), 2)
    result = verify.suite_wiener()
    assert result.failures == []
    complete_rows = [r for r in result.report if " complete " in r]
    cycle_rows = [r for r in result.report if " cycle_square " in r]
    assert len(complete_rows) == len(range(3, 7)) * 3
    assert len(cycle_rows) == 2  # odd n in 3..6
    for line in result.report:
        print(line)
    assert all("matches=statement" in r for r in complete_rows)


@criterion("C10", "permutation powers and equivariance, exact, incl. the worked 3x3 and 6x6")
def test_c10_permutations():
    result = verify.suite_permutation()
    assert result.failures == []
    assert result.checks >= 140


@criterion("C11", "performance gate at n=8, k=5 (N=792): permanent kernel >=5x faster, both <60s")
def test_c11_performance():
    import numpy as np

    rng = random.Random(11)
    weights = {}
    for u in range(1, 9):
        for v in range(u + 1, 9):
            if rng.random() < 0.5:
                weights[(u, v)] = 1
    g = WeightedGraph(8, weights)
    assert multiset_count(8, 5) == 792

    t0 = time.perf_counter()
    fast = sym_power(g, 5, method="permanent")
    t_fast = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = sym_power(g, 5, method="orbit")
    t_slow = time.perf_counter() - t0

    assert fast.path == slow.path == "int64"
    assert np.array_equal(fast.core, slow.core)
    assert fast.denominator == slow.denominator == 1
    assert t_fast < 60.0, f"permanent kernel took {t_fast:.1f}s"
    assert t_slow < 60.0, f"orbit kernel took {t_slow:.1f}s"
    assert t_slow >= 5.0 * t_fast, f"speedup only {t_slow / t_fast:.1f}x"
    print(f"ACCEPTANCE C11 timing: permanent={t_fast:.2f}s orbit={t_slow:.2f}s speedup={t_slow / t_fast:.0f}x")
