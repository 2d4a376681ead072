import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from symgraph.cli import main
from symgraph.graphs import WeightedGraph, adjacency_matrix, dense_matrix, path, scepter
from symgraph.power import sym_power
from symgraph.spectra import (
    JacobiConvergenceError,
    SignLogDet,
    Spectrum,
    det_formula,
    eigenvalues_symmetric,
    exact_determinant,
    predicted_power_spectrum,
    sign_log_det,
    spectra_match,
    trace_formula,
)

R5 = math.sqrt(5)


def test_eigenvalues_2x2_golden_ratio():
    spec = eigenvalues_symmetric([[1.0, 1.0], [1.0, 0.0]])
    assert spec.values[0] == pytest.approx((1 - R5) / 2, abs=1e-12)
    assert spec.values[1] == pytest.approx((1 + R5) / 2, abs=1e-12)


def test_eigenvalues_diagonal():
    spec = eigenvalues_symmetric(np.diag([3.0, -1.0, 2.0]))
    assert spec.values == (-1.0, 2.0, 3.0)


def test_eigenvalues_zero_and_1x1():
    assert eigenvalues_symmetric(np.zeros((4, 4))).values == (0.0,) * 4
    assert eigenvalues_symmetric([[7.0]]).values == (7.0,)


def test_eigenvalues_near_the_float64_limit():
    # averaging (a + a.T) / 2 overflowed to inf here and printed nan nan
    a = [[0.0, 1e308], [1e308, 1e308]]
    spec = eigenvalues_symmetric(a)
    assert spec.values == tuple(np.linalg.eigvalsh(np.array(a)).tolist())
    assert spec.values[0] == pytest.approx(-6.180339887498948e307)
    assert spec.values[1] == pytest.approx(1.618033988749895e308)


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigenvalues_symmetric([[0.0, 1.0], [2.0, 0.0]])


@pytest.mark.parametrize("tiny", [5e-324, 1e-310])
def test_eigenvalues_of_subnormal_entries(tiny):
    # halving each entry first rounded these to 0.0 and gave (0.0, 0.0)
    a = np.array([[0.0, tiny], [tiny, 0.0]])
    assert eigenvalues_symmetric(a).values == tuple(np.linalg.eigvalsh(a).tolist()) == (-tiny, tiny)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused_before_the_solver(monkeypatch, bad):
    def solver(m):
        raise AssertionError("eigvalsh was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", solver)
    for a in ([[bad, 0.0], [0.0, 1.0]], [[0.0, bad], [bad, 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_symmetric(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_asymmetry_past_the_float64_range_is_refused_without_a_warning():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric([[0.0, 1e308], [-1e308, 0.0]])


def test_eigenvalues_of_the_empty_matrix():
    assert eigenvalues_symmetric(np.zeros((0, 0))).values == ()


@pytest.mark.parametrize("entries", [1, 7, 1 << 16])
def test_the_solver_gets_the_halved_matrix_in_any_block_size(monkeypatch, entries):
    # eigvalsh gets the bits of a + (a.T - a) / 2, which are a's own when a is
    # symmetric, and the caller's matrix is left as it was; the last size holds
    # just over `entries` entries, so a matrix past any one block is covered
    from symgraph import spectra

    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m.copy()) or eigvalsh(m))
    rng = np.random.default_rng(29)
    for size in (1, 2, 5, 13, math.isqrt(entries) + 1):
        a = rng.normal(size=(size, size)) * 10.0 ** rng.integers(-300, 300, size=(size, size))
        a = np.triu(a) + np.triu(a, 1).T
        before = a.copy()
        eigenvalues_symmetric(a)
        assert np.array_equal(a, before)
        assert solved.pop().tobytes() == a.tobytes()
        a[np.tril_indices(size, -1)] *= 1 + 1e-15  # symmetric to the tolerance
        before = a.copy()
        spec = eigenvalues_symmetric(a)
        assert np.array_equal(a, before)
        want = a + (a.T - a) / 2
        assert solved.pop().tobytes() == want.tobytes()
        assert spec.values == tuple(sorted(eigvalsh(want).tolist()))
        # an asymmetric pair in the last row is refused
        if size > 1:
            a[-1, 0] += np.abs(a).max()
            with pytest.raises(ValueError, match="not symmetric"):
                eigenvalues_symmetric(a)
    # from edge arrays eigvalsh gets the matrix as built, which is symmetric
    u, v = np.triu_indices(9)
    w = rng.normal(size=len(u))
    a = dense_matrix(9, u + 1, v + 1, w, np.float64)
    assert spectra.eigenvalues_edges(9, u + 1, v + 1, w).values == eigenvalues_symmetric(a).values
    assert solved[-2].tobytes() == a.tobytes() == solved[-1].tobytes()


def test_eigenvalue_trace_identity():
    rng = np.random.default_rng(3)
    for n in (3, 6, 12):
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2
        spec = eigenvalues_symmetric(m)
        assert spec.trace() == pytest.approx(float(np.trace(m)), abs=1e-10)
        assert np.allclose(np.sort(np.linalg.eigvalsh(m)), spec.values, atol=1e-9)


def test_scepter_power_spectra_golden():
    # closed forms for the five worked spectra, at 1e-9
    base = [(1 - R5) / 2, (1 + R5) / 2]
    golden = {
        1: base,
        2: [-1.0, (3 - R5) / 2, (3 + R5) / 2],
        3: [(-1 - R5) / 2, 2 - R5, (-1 + R5) / 2, R5 + 2],
        4: [1.0, (7 - 3 * R5) / 2, (-R5 - 3) / 2, (R5 - 3) / 2, (3 * R5 + 7) / 2],
        5: [
            (11 - 5 * R5) / 2,
            -R5 - 2,
            (1 - R5) / 2,
            R5 - 2,
            (R5 + 1) / 2,
            (5 * R5 + 11) / 2,
        ],
    }
    g = scepter()
    for k, values in golden.items():
        want = Spectrum(values, tol=1e-9)
        dense = adjacency_matrix(g) if k == 1 else sym_power(g, k).to_dense()
        got = eigenvalues_symmetric(dense, tol=1e-9)
        assert spectra_match(got, want), (k, got.values, want.values)


def test_predicted_power_spectrum_scepter():
    base = Spectrum([(1 - R5) / 2, (1 + R5) / 2])
    got = predicted_power_spectrum(base, 2)
    assert got.values == pytest.approx((-1.0, (3 - R5) / 2, (3 + R5) / 2), rel=1e-12)
    assert predicted_power_spectrum(base, 1).values == base.values
    got3 = predicted_power_spectrum(base, 3)
    assert sorted(got3.values) == pytest.approx(
        sorted([2 - R5, (-1 + R5) / 2, (-1 - R5) / 2, R5 + 2]), rel=1e-12
    )


def test_predicted_spectrum_size():
    base = Spectrum([1.0, 2.0, 3.0])
    assert len(predicted_power_spectrum(base, 4)) == math.comb(3 + 4 - 1, 4)


def test_power_spectrum_end_to_end_p4():
    g = path(4)
    base = eigenvalues_symmetric(adjacency_matrix(g))
    power = sym_power(g, 2)
    got = eigenvalues_symmetric(power.to_dense())
    assert spectra_match(got, predicted_power_spectrum(base, 2))


def test_trace_formula_small():
    assert trace_formula(Spectrum([1.0, -1.0]), 2) == pytest.approx(1.0)
    # worked scepter square: diagonal of the 3x3 power sums to 2
    g = scepter()
    base = eigenvalues_symmetric(adjacency_matrix(g))
    assert trace_formula(base, 2) == pytest.approx(2.0, abs=1e-12)
    assert float(np.trace(sym_power(g, 2).to_dense())) == pytest.approx(2.0, abs=1e-12)


def test_trace_formula_matches_direct_enumeration():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        values = [rng.uniform(-2, 2) for _ in range(n)]
        direct = sum(
            math.prod(combo) for combo in combinations_with_replacement(values, k)
        )
        assert trace_formula(Spectrum(values), k) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_det_formula_examples():
    assert det_formula(1.0, 4, 3) == SignLogDet(1, 0.0)
    got = det_formula(-1.0, 2, 2)  # exponent binomial(3, 2) = 3: sign flips
    assert got.sign == -1 and got.logabs == 0.0
    assert det_formula(0.0, 3, 2).sign == 0
    # scepter square: product of the worked eigenvalues is -1
    g = scepter()
    power_spec = eigenvalues_symmetric(sym_power(g, 2).to_dense())
    assert sign_log_det(power_spec).close_to(got)


def test_det_formula_magnitude():
    got = det_formula(2.0, 3, 2)  # exponent binomial(4, 3) = 4
    assert got.sign == 1
    assert got.logabs == pytest.approx(4 * math.log(2))
    assert got.value == pytest.approx(16.0)


def test_det_exact_oracle_random():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u, n + 1):
                weights[(u, v)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        g = WeightedGraph(n, weights)
        power = sym_power(g, k)
        dd = math.prod(power.orbit_sizes)
        core = [[power.core_entry(i, j) for j in range(power.dim)] for i in range(power.dim)]
        det_power = Fraction(exact_determinant(core), dd)
        det_base = exact_determinant(g.weight_rows())
        assert det_power == det_base ** math.comb(n + k - 1, n)


def test_exact_determinant_basics():
    assert exact_determinant([]) == 1 and isinstance(exact_determinant([]), Fraction)
    assert exact_determinant([[2]]) == 2
    assert exact_determinant([[1, 2], [3, 4]]) == -2
    assert exact_determinant([[0, 1], [1, 0]]) == -1
    assert exact_determinant([[1, 1], [1, 1]]) == 0
    assert exact_determinant([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1  # needs pivoting
    with pytest.raises(ValueError):
        exact_determinant([[1, 2]])


def _leibniz(m):
    """The determinant as the signed sum over permutations."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


def test_exact_determinant_matches_leibniz_on_rational_matrices():
    rng = random.Random(2309)
    cases = [
        [[Fraction(-3, 7)]],
        [[0, Fraction(1, 2), 2], [0, 3, Fraction(4, 3)], [Fraction(5, 6), 6, 7]],  # zero pivot in column 0
        [[Fraction(1, 2), 1, 3], [1, 2, 6], [Fraction(2, 3), 5, 1]],  # singular 2x2 corner: pivots at column 1
    ]
    for _ in range(80):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            m[-1] = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * x for x in m[0]]  # singular
        cases.append(m)
    dets = [exact_determinant(m) for m in cases]
    assert dets == [_leibniz(m) for m in cases]
    assert 0 in dets and len({len(m) for m in cases}) == 5


def test_spectra_match_rules():
    a = Spectrum([0.0, 1.0])
    assert spectra_match(a, a)
    assert spectra_match(Spectrum([0.0]), Spectrum([1e-15]))
    assert not spectra_match(Spectrum([0.0]), Spectrum([0.0, 0.0]))
    assert not spectra_match(Spectrum([0.0]), Spectrum([1e-4]))
    # looser tolerance on either side wins
    assert spectra_match(Spectrum([0.0], tol=1e-3), Spectrum([1e-4]))
    # relative comparison for large magnitudes
    assert spectra_match(Spectrum([1e9]), Spectrum([1e9 + 1]))


def test_spectrum_sorted_and_validated():
    assert Spectrum([3.0, -1.0, 2.0]).values == (-1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        Spectrum([1.0], tol=-1)


def test_eigensolver_failure_is_loud(tmp_path, capsys, monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(JacobiConvergenceError) as exc:
        eigenvalues_symmetric([[1.0, 1.0], [1.0, 0.0]])
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
    assert issubclass(JacobiConvergenceError, RuntimeError)

    source = tmp_path / "in.txt"
    source.write_text("2\n1 1 1\n1 2 1\n")
    assert main(["spectrum", str(source)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "converge" in err
