import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from symgraph.combinatorics import VertexMultiset, enumerate_multisets, orbit_size, rank
from symgraph.exact import ExactWeight
from symgraph.graphs import (
    WeightedGraph,
    adjacency_matrix,
    complete,
    complete_loops,
    edge_arrays,
    path,
    scepter,
    star,
)
from symgraph.power import (
    PermanentCapError,
    SizeBudgetError,
    SymPermutation,
    edge_injection,
    entry_orbit_sum,
    entry_permanent,
    loop_injection,
    permutation_matrix,
    relabel,
    ryser_permanent,
    sym_power,
    sym_power_graph,
    sym_power_permutation,
    sym_power_upper_blocks,
)

ONE = ExactWeight.of(1)
ZERO = ExactWeight.of(0)
SQRT2 = ExactWeight.sqrt(2)
SQRT3 = ExactWeight.sqrt(3)
SQRT5 = ExactWeight.sqrt(5)
SQRT6 = ExactWeight.sqrt(6)
SQRT10 = ExactWeight.sqrt(10)


def exact_matrix(power):
    return [[power.entry_exact(i, j) for j in range(power.dim)] for i in range(power.dim)]


def naive_permanent(rows):
    k = len(rows)
    total = 0
    for perm in permutations(range(k)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


# ---------------------------------------------------------------------------
# Ryser permanent
# ---------------------------------------------------------------------------


def test_ryser_small_cases():
    assert ryser_permanent([[1, 1], [1, 1]]) == 2
    assert ryser_permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert ryser_permanent([[5]]) == 5


def test_ryser_matches_naive_oracle():
    rng = random.Random(42)
    for size in range(1, 6):
        for _ in range(5):
            rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
            assert ryser_permanent(rows) == naive_permanent(rows)
    rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
    assert ryser_permanent(rows) == naive_permanent(rows)


def test_ryser_cap():
    with pytest.raises(PermanentCapError):
        ryser_permanent([[1] * 21 for _ in range(21)])
    with pytest.raises(ValueError):
        ryser_permanent([[1, 2]])


def test_entry_permanent_refuses_tuples_past_the_cap():
    ones = VertexMultiset((1,) * 21, 2)
    with pytest.raises(PermanentCapError) as exc:
        entry_permanent([[1, 1], [1, 1]], ones, ones)
    assert str(exc.value) == "k=21 exceeds the permanent cap 20; use the orbit kernel instead"


# ---------------------------------------------------------------------------
# per-entry kernels
# ---------------------------------------------------------------------------


def test_entry_orbit_sum_symbolic_2x2():
    # random rational 2x2 stands in for the symbolic entries
    a11, a12, a22 = Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7)
    a = [[a11, a12], [a12, a22]]
    i11 = VertexMultiset((1, 1), 2)
    i12 = VertexMultiset((1, 2), 2)
    i22 = VertexMultiset((2, 2), 2)
    assert entry_orbit_sum(a, i11, i11) == ExactWeight.of(a11**2)
    assert entry_orbit_sum(a, i11, i22) == ExactWeight.of(a12**2)
    assert entry_orbit_sum(a, i11, i12) == ExactWeight.make(a11 * a12, 2)
    assert entry_orbit_sum(a, i12, i12) == ExactWeight.of(a11 * a22 + a12 * a12)


def test_entry_orbit_sum_symbolic_k3():
    a11, a12, a22 = Fraction(3), Fraction(2), Fraction(-5)
    a = [[a11, a12], [a12, a22]]
    i112 = VertexMultiset((1, 1, 2), 2)
    i122 = VertexMultiset((1, 2, 2), 2)
    want = a12**2 * a12 + 2 * a11 * a12 * a22  # a21 == a12 for symmetric input
    assert entry_orbit_sum(a, i112, i122) == ExactWeight.of(want)


def test_entry_constant_tuples_reproduce_01_matrix():
    g = complete(3)
    rows = g.weight_rows()
    for k in (1, 2, 3):
        for u in range(1, 4):
            for v in range(1, 4):
                got = entry_orbit_sum(rows, VertexMultiset((u,) * k, 3), VertexMultiset((v,) * k, 3))
                assert got == ExactWeight.of(rows[u - 1][v - 1])


def test_entry_permanent_equals_orbit_sum():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u, n):
                w = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows[u][v] = w
                rows[v][u] = w
        msets = enumerate_multisets(n, k)
        for i in msets:
            for j in msets:
                assert entry_permanent(rows, i, j) == entry_orbit_sum(rows, i, j)


def test_entry_oracles_take_non_symmetric_matrices():
    # Sym^k(A) is defined for every square A: both oracles agree with each
    # other and with the linear-form core, which takes A as it is
    from symgraph.power import _core_linear_forms

    rng = random.Random(1813)
    for n in range(1, 5):
        for k in range(1, 4):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            core = _core_linear_forms(np.array(rows, dtype=object), n, k, "paper")
            msets = enumerate_multisets(n, k)
            for x, tx in enumerate(msets):
                for y, ty in enumerate(msets):
                    want = entry_orbit_sum(rows, tx, ty)
                    d = orbit_size(tx.multiplicity()) * orbit_size(ty.multiplicity())
                    assert entry_permanent(rows, tx, ty) == want
                    assert ExactWeight.make(Fraction(core.item(x, y), d), d) == want
    with pytest.raises(ValueError, match="square"):
        entry_orbit_sum([[0, 1]], VertexMultiset((1,), 1), VertexMultiset((1,), 1))


def test_entry_oracle_bodies_on_a_matrix_read_once_equal_the_public_oracles():
    # the bodies take the rows and rationality _read_matrix returns, so a
    # caller evaluating many entries of one matrix converts it once
    from symgraph.power import _entry_orbit_sum, _entry_permanent, _read_matrix

    rng = random.Random(2024)
    matrices = []
    for n in range(1, 5):
        matrices.append([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        matrices.append(np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]))
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        matrices.append(permutation_matrix(sigma))
    for matrix in matrices:
        rows, rational = _read_matrix(matrix)
        n = len(rows)
        assert rational == (not isinstance(matrix, np.ndarray))
        for k in range(1, 4):
            msets = enumerate_multisets(n, k)
            for i in msets:
                for j in msets:
                    want, got = entry_orbit_sum(matrix, i, j), _entry_orbit_sum(rows, rational, i, j)
                    assert type(got) is type(want) and got == want
                    want, got = entry_permanent(matrix, i, j), _entry_permanent(rows, rational, i, j)
                    assert type(got) is type(want) and got == want


def test_ordered_table_orbits_follow_enumerate_orbit():
    # the float orbit core sums each orbit in this order, so its bits depend on it
    from symgraph.combinatorics import enumerate_orbit
    from symgraph.power import _index_tables, _ordered_table

    for n in range(1, 6):
        for k in range(1, 5):
            for order in ("paper", "lex"):
                _, _, orbits = _ordered_table(n, k, order)
                tuples = _index_tables(n, k, order)[0]
                assert len(orbits) == len(tuples)
                for t, orbit in zip(tuples, orbits):
                    assert (orbit + 1).tolist() == list(map(list, enumerate_orbit(VertexMultiset(t, n))))


def test_entry_permanent_all_ones_loop():
    a = [[1, 1], [1, 1]]
    i12 = VertexMultiset((1, 2), 2)
    assert entry_permanent(a, i12, i12) == 2


def test_entry_zero_matrix():
    a = [[0, 0], [0, 0]]
    i = VertexMultiset((1, 2), 2)
    assert entry_orbit_sum(a, i, i) == 0
    assert entry_permanent(a, i, i) == 0


def test_entry_dimension_mismatch():
    a = [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        entry_orbit_sum(a, VertexMultiset((1, 2), 3), VertexMultiset((1, 2), 3))
    with pytest.raises(ValueError):
        entry_orbit_sum(a, VertexMultiset((1,), 2), VertexMultiset((1, 2), 2))


def test_entry_float_mode():
    a = [[0.5, 1.5], [1.5, 0.0]]
    i11 = VertexMultiset((1, 1), 2)
    i12 = VertexMultiset((1, 2), 2)
    got = entry_orbit_sum(a, i11, i12)
    assert isinstance(got, float)
    assert got == pytest.approx(math.sqrt(2) * 0.5 * 1.5, rel=1e-15)


# ---------------------------------------------------------------------------
# full powers: golden matrices
# ---------------------------------------------------------------------------


def test_complete3_square_golden():
    want = [
        [ZERO, ONE, ONE, ZERO, ZERO, SQRT2],
        [ONE, ZERO, ONE, ZERO, SQRT2, ZERO],
        [ONE, ONE, ZERO, SQRT2, ZERO, ZERO],
        [ZERO, ZERO, SQRT2, ONE, ONE, ONE],
        [ZERO, SQRT2, ZERO, ONE, ONE, ONE],
        [SQRT2, ZERO, ZERO, ONE, ONE, ONE],
    ]
    for method in ("orbit", "permanent"):
        power = sym_power(complete(3), 2, method=method, order="paper")
        assert exact_matrix(power) == want


SCEPTER_GOLDEN = {
    2: [
        [ONE, ONE, SQRT2],
        [ONE, ZERO, ZERO],
        [SQRT2, ZERO, ONE],
    ],
    3: [
        [ONE, ONE, SQRT3, SQRT3],
        [ONE, ZERO, ZERO, ZERO],
        [SQRT3, ZERO, ExactWeight.of(2), ONE],
        [SQRT3, ZERO, ONE, ZERO],
    ],
    4: [
        [ONE, ONE, ExactWeight.of(2), SQRT6, ExactWeight.of(2)],
        [ONE, ZERO, ZERO, ZERO, ZERO],
        [ExactWeight.of(2), ZERO, ExactWeight.of(3), SQRT6, ONE],
        [SQRT6, ZERO, SQRT6, ONE, ZERO],
        [ExactWeight.of(2), ZERO, ONE, ZERO, ZERO],
    ],
    5: [
        [ONE, ONE, SQRT5, SQRT10, SQRT10, SQRT5],
        [ONE, ZERO, ZERO, ZERO, ZERO, ZERO],
        [SQRT5, ZERO, ExactWeight.of(4), ExactWeight.make(3, 2), ExactWeight.make(2, 2), ONE],
        [SQRT10, ZERO, ExactWeight.make(3, 2), ExactWeight.of(3), ONE, ZERO],
        [SQRT10, ZERO, ExactWeight.make(2, 2), ONE, ZERO, ZERO],
        [SQRT5, ZERO, ONE, ZERO, ZERO, ZERO],
    ],
}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_scepter_powers_golden(k):
    power = sym_power(scepter(), k, order="paper")
    assert exact_matrix(power) == SCEPTER_GOLDEN[k]


def test_power_k1_is_adjacency():
    # the readouts of mixed weights, each against the graph read pair by pair
    cases = [
        (scepter(), "int64", 1),
        (path(4), "int64", 1),
        (complete(3), "int64", 1),
        (WeightedGraph(3, {(1, 1): 2, (1, 2): Fraction(1, 3), (2, 3): Fraction(-3, 4)}), "int64", 12),
        (WeightedGraph(3, {(1, 2): 1, (2, 2): 0.5, (1, 3): -2}), "float64", 1),
        (WeightedGraph(2, {(1, 1): 2**70, (1, 2): 3}), "object", 1),
        (WeightedGraph(2), "int64", 1),
    ]
    for g, want_path, denominator in cases:
        rows = [[g.weight(u, v) for v in range(1, g.n + 1)] for u in range(1, g.n + 1)]
        power = sym_power(g, 1)
        assert [[power.core_entry(i, j) for j in range(power.dim)] for i in range(power.dim)] == rows
        assert all(d == 1 for d in power.orbit_sizes)
        assert (power.path, power.denominator) == (want_path, denominator)
        assert power.core.tolist() == [[x * denominator for x in row] for row in rows]
        assert g.weight_rows() == rows
        assert [list(map(type, row)) for row in g.weight_rows()] == [list(map(type, row)) for row in rows]
        assert adjacency_matrix(g).tolist() == [[float(x) for x in row] for row in rows]


def test_power_symmetry_and_dims():
    g = path(4)
    for k in (1, 2, 3):
        power = sym_power(g, k)
        dense = power.to_dense()
        assert dense.shape == (power.dim, power.dim)
        assert np.array_equal(dense, dense.T)


def test_kernels_agree_on_random_rational_graphs():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u, n + 1):
                if rng.random() < 0.7:
                    weights[(u, v)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        g = WeightedGraph(n, weights)
        a = sym_power(g, k, method="orbit")
        b = sym_power(g, k, method="permanent")
        assert a.path == b.path == "int64"
        assert a.core.dtype == b.core.dtype
        assert np.array_equal(a.core, b.core)
        assert a.denominator == b.denominator
        assert a.orbit_sizes == b.orbit_sizes


def test_python_fallback_matches_int64_paths():
    # both kernels on both integer dtypes, entry by entry against the public
    # defining double sum
    from symgraph.power import _core_linear_forms, _core_orbit_numpy

    rng = random.Random(13)
    for _ in range(6):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        rows = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u, n):
                w = rng.randint(-2, 3)
                rows[u][v] = w
                rows[v][u] = w
        cores = []
        for dtype in (np.int64, object):
            for kernel in (_core_orbit_numpy, _core_linear_forms):
                core = kernel(np.array(rows, dtype=dtype), n, k, "paper")
                assert core.dtype == dtype
                cores.append(core)
        msets = enumerate_multisets(n, k)
        for x, tx in enumerate(msets):
            for y, ty in enumerate(msets):
                want = entry_orbit_sum(rows, tx, ty)
                d = orbit_size(tx.multiplicity()) * orbit_size(ty.multiplicity())
                for core in cores:
                    assert ExactWeight.make(Fraction(core.item(x, y), d), d) == want


def test_first_power_core_is_the_scaled_matrix():
    # Sym^1(G) is G: at k = 1 the linear-form core is the scaled matrix
    # itself, not a copy, and equals the orbit reference's core on every path
    from symgraph.power import _core_linear_forms

    graphs = {
        "int64": WeightedGraph(3, {(1, 1): -2, (1, 2): 3, (2, 3): 1}),
        "object": WeightedGraph(2, {(1, 2): 2**62, (2, 2): -1}),
        "float64": WeightedGraph(3, {(1, 2): 0.5, (2, 2): -0.25, (1, 3): 1e-300}),
        "fraction": WeightedGraph(3, {(1, 2): Fraction(1, 3), (2, 3): Fraction(-5, 2), (3, 3): 2}),
    }
    for name, g in graphs.items():
        for order in ("paper", "lex"):
            fast, reference = sym_power(g, 1, order=order), sym_power(g, 1, method="orbit", order=order)
            assert fast.path == reference.path == ("int64" if name == "fraction" else name)
            assert fast.core.dtype == reference.core.dtype and np.array_equal(fast.core, reference.core)
            assert fast.denominator == reference.denominator == (6 if name == "fraction" else 1)
    a = np.arange(9).reshape(3, 3)  # not symmetric: S = A all the same
    assert _core_linear_forms(a, 3, 1, "paper") is a


def test_functoriality_of_the_linear_form_core():
    # Sym^k(AB) = Sym^k(A) Sym^k(B) (Bhatia, Matrix Analysis, I.5); with
    # S = diag(D) C in factored form this is S_AB = S_A (S_B / D) exactly.
    # The matrices are not symmetric: the kernel takes them as they are.
    from symgraph.power import _core_linear_forms, _index_tables

    rng = random.Random(2309)
    cases = 0
    for n in range(1, 5):
        for k in range(1, 5):
            for _ in range(3):
                a = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], dtype=object)
                b = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], dtype=object)
                d = np.array(_index_tables(n, k, "paper")[1], dtype=object)
                s_a = _core_linear_forms(a, n, k, "paper")
                s_b = _core_linear_forms(b, n, k, "paper")
                s_ab = _core_linear_forms(a.dot(b), n, k, "paper")
                assert s_ab.dtype == object
                assert not (s_b % d[:, None]).any()  # row i of S_B is D_i times integers
                assert (s_ab == s_a.dot(s_b // d[:, None])).all()
                cases += 1
    assert cases == 48


def test_index_tables_match_the_rank_oracle():
    # the numpy-built tables against enumerate_multisets, rank and orbit_size,
    # and the permutation powers ranked from them against rank of each image
    from symgraph.power import _index_tables, _linear_form_tables

    rng = random.Random(2213)
    for n in range(1, 8):
        for k in range(1, 7):
            for order in ("paper", "lex"):
                msets = enumerate_multisets(n, k, order)
                tuples, sizes, _ = _index_tables(n, k, order)
                assert tuples == tuple(t.entries for t in msets)
                assert sizes == tuple(orbit_size(t.multiplicity()) for t in msets)
                sigma = rng.sample(range(1, n + 1), n)
                mapping = sym_power_permutation(sigma, k, order).mapping
                for x, t in enumerate(msets):
                    image = VertexMultiset(tuple(sorted(sigma[e - 1] for e in t.entries)), n)
                    assert mapping[x] == rank(image, order)
                if k == 1:
                    continue
                parent, last, pred, vert = _linear_form_tables(n, k, order)
                slots = min(k, n)
                assert pred.shape == vert.shape == (slots, len(msets))
                sentinel = (len(enumerate_multisets(n, k - 1, order)), n)
                for j, t in enumerate(msets):
                    assert parent[j] == rank(VertexMultiset(t.entries[:-1], n), order)
                    assert last[j] == t.entries[-1] - 1
                    want = []
                    for u in sorted(set(t.entries)):
                        rest = list(t.entries)
                        rest.remove(u)
                        want.append((rank(VertexMultiset(tuple(rest), n), order), u - 1))
                    want += [sentinel] * (slots - len(want))
                    assert list(zip(pred[:, j].tolist(), vert[:, j].tolist())) == want


def _first_orbit_past_the_limit(n, k, order):
    from symgraph.combinatorics import CountLimitError

    for t in enumerate_multisets(n, k, order):
        try:
            orbit_size(t.multiplicity())
        except CountLimitError as exc:
            return str(exc)
    return None


def test_orbit_sizes_past_the_count_limit_refuse_as_orbit_size_does():
    # C(66, 33) < 2^63 <= C(67, 30): from k = 67 two vertices have orbits past the limit
    from symgraph.combinatorics import CountLimitError
    from symgraph.power import _index_tables

    assert _first_orbit_past_the_limit(2, 66, "lex") is None
    assert max(_index_tables(2, 66, "lex")[1]) == math.comb(66, 33)
    for n, k in ((2, 67), (3, 45)):
        for order in ("paper", "lex"):
            with pytest.raises(CountLimitError) as exc:
                sym_power(WeightedGraph(n, {}), k, order=order)
            assert str(exc.value) == _first_orbit_past_the_limit(n, k, order)
            # a permutation power needs no orbit sizes
            mapping = sym_power_permutation(list(range(n, 0, -1)), k, order).mapping
            reversed_tuples = (tuple(n + 1 - e for e in t.entries[::-1]) for t in enumerate_multisets(n, k, order))
            assert mapping == tuple(rank(VertexMultiset(t, n), order) for t in reversed_tuples)


def _signed_rows(rng, n, weights):
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u, n):
            if rng.random() < 0.7:
                rows[u][v] = rows[v][u] = rng.choice(weights) * rng.choice((-1, 1))
    return rows


@pytest.mark.parametrize("dtype", [np.int64, object, np.float64], ids=["int64", "object", "float64"])
def test_linear_form_cores_do_not_depend_on_the_block_size(monkeypatch, dtype):
    # row blocks of one entry, of 7 entries and of the default size fill the
    # same bytes; the exact cores also equal the orbit reference's
    from symgraph import power

    rng = random.Random(f"blocks {dtype}")
    weights = {np.int64: (1, 2, 3), object: (2**40 + 1, 3**30), np.float64: (0.1, 0.7, 1.3)}[dtype]
    for n, k, order in ((1, 3, "paper"), (3, 1, "lex"), (3, 4, "paper"), (4, 3, "lex"), (5, 3, "paper")):
        a = np.array(_signed_rows(rng, n, weights), dtype=dtype)
        cores = []
        for block in (1, 7, power._BLOCK_ELEMS):
            monkeypatch.setattr(power, "_BLOCK_ELEMS", block)
            cores.append(power._core_linear_forms(a, n, k, order))
        monkeypatch.undo()
        assert all(core.dtype == dtype for core in cores)
        if dtype is object:
            assert k == 1 or max(map(abs, cores[0].ravel().tolist())) > 2**62
            assert cores[0].tolist() == cores[1].tolist() == cores[2].tolist()
        else:
            assert cores[0].tobytes() == cores[1].tobytes() == cores[2].tobytes()
        if dtype is not np.float64:
            assert cores[0].tolist() == power._core_orbit_numpy(a, n, k, order).tolist()


def _pinned_float_graph(seed, nmax=8, kmax=5):
    rng = random.Random(f"pinned float core {seed}")
    n, k = rng.randint(nmax - 3, nmax), rng.randint(kmax - 2, kmax)
    weights = {(u, v): rng.choice((-1, 1)) * rng.randint(1, 99) / 10 + rng.random() / 1000
               for u in range(1, n + 1) for v in range(u, n + 1) if rng.random() < 0.6}
    return WeightedGraph(n, weights), k, ("paper", "lex")[seed % 2]


@pytest.mark.parametrize("seed, digest", [
    (0, "eca318b472ae63a4e241a5c1a1d2af7d2a8fd31a7bc0b3f272b46b3532f904d4"),
    (1, "fbe7122f02b90c94d202f5f725d9eefd4a91ae63a8ba2509826a9ed61cd4fa43"),
    (2, "5be73bf8d144b1add57ce9285bbdc7cb14d82bf4fa0a0f0af2e6dd0a04ea734f"),
    (3, "f98f083d4371187a5a81cfab2e2b33bb36900f9521e90ad977c1bfc8ac7f5f5d"),
    (4, "00994e4650dfc4b018765adfd810e5150d6e5049a7ca1da0233d036b6ddcc710"),
])
def test_signed_float_cores_keep_their_bits(seed, digest):
    # recorded from the scatter kernel that preceded the gather: the gather
    # adds each entry's terms in the same order, so every rounding is the same
    import hashlib

    graph, k, order = _pinned_float_graph(seed)
    core = sym_power(graph, k, order=order).core
    assert core.dtype == np.float64
    assert hashlib.sha256(core.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("seed, digest", [
    (0, "235cdce495f86e964e7f399ab5f438490ad59da545668a7f0cf1fecd72e2099f"),
    (1, "e9681c24c8cf926e247a38b96059f4d2cf8174f89543971c4e065f7deea6ff1b"),
    (2, "d0ec4bda2c0a35ebaa3bbc53bad07dcafe0caaf57eb03767185b27ffbeddc1af"),
    (3, "2829c9cb7ff2400da689045c50b98723fd0072d245d99daeb758849bcd1b2317"),
    (4, "478973f7bf0651ea6b2a4f72ba5bc99a0d4657465fd5f18636e0771e45710475"),
    (5, "d66f55312656066f3972554d83cdf5436627cbf9c691d1a9ad7820cbe7c7019e"),
    (6, "8dbe037eaaaac170e23f3df5f8de2486d9105430a685c37c0f65ab64628d0dd9"),
    (7, "6bc1a8791e29c02b5d856138a45e055b42d0f432b523ded295c3e70f81869a46"),
])
def test_signed_float_orbit_cores_keep_their_bits(seed, digest):
    # recorded from the orbit kernel that tabulated the ordered tuples in
    # lexicographic order: each entry still adds the terms of orbit(j) in
    # lexicographic order, so every rounding is the same; n <= 6, k <= 4
    import hashlib

    graph, k, order = _pinned_float_graph(seed, nmax=6, kmax=4)
    core = sym_power(graph, k, method="orbit", order=order).core
    assert core.dtype == np.float64
    assert hashlib.sha256(core.tobytes()).hexdigest() == digest


def test_float_mode_close_to_exact():
    g = scepter()
    exact = sym_power(g, 3).to_dense()
    float_graph = WeightedGraph(2, {(1, 1): 1.0, (1, 2): 1.0})
    for method in ("orbit", "permanent"):
        floaty = sym_power(float_graph, 3, method=method)
        assert not floaty.exact
        assert np.allclose(floaty.to_dense(), exact, atol=1e-12)
    with pytest.raises(ValueError):
        sym_power(float_graph, 3).entry_exact(0, 0)


def test_float_kernels_agree_on_irrational_weights():
    g = WeightedGraph(3, {(1, 2): math.sqrt(2), (2, 3): 0.75, (1, 1): math.pi / 3})
    for k in (1, 2, 3):
        a = sym_power(g, k, method="orbit").to_dense()
        b = sym_power(g, k, method="permanent").to_dense()
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_orders_describe_same_matrix():
    rng = random.Random(71)
    for _ in range(5):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u, n + 1):
                if rng.random() < 0.6:
                    weights[(u, v)] = rng.randint(1, 2)
        g = WeightedGraph(n, weights or {(1, 1): 1})
        pp = sym_power(g, k, order="paper")
        ll = sym_power(g, k, order="lex")
        conv = [rank(VertexMultiset(t, n), "lex") for t in pp.tuples]
        for x in range(pp.dim):
            for y in range(pp.dim):
                assert ll.core_entry(conv[x], conv[y]) == pp.core_entry(x, y)
        assert [ll.orbit_sizes[c] for c in conv] == list(pp.orbit_sizes)


def test_huge_weights_use_python_exact_fallback():
    # (4!)^2 * (1e9)^4 blows the int64 bound, forcing Python ints in both kernels
    big = 10**9
    g = WeightedGraph(2, {(1, 1): big, (1, 2): big + 1})
    a = sym_power(g, 4, method="orbit")
    b = sym_power(g, 4, method="permanent")
    assert a.exact and a.path == b.path == "object"
    assert a.core.dtype == b.core.dtype == object
    assert np.array_equal(a.core, b.core)
    assert a.denominator == b.denominator == 1
    assert a.core_entry(0, 1) == (big + 1) ** 4  # constant tuples: plain 4th power
    assert type(a.core_entry(0, 1)) is int


@pytest.mark.parametrize("block", [1, 7, None])
def test_upper_support_scans_row_blocks_in_order(monkeypatch, block):
    # int64, object and float64 cores, with zeros on and off the diagonal
    import symgraph.power

    if block is not None:
        monkeypatch.setattr(symgraph.power, "_SUPPORT_BLOCK", block)
    rng = random.Random(61)
    graphs = [path(4), star(3), WeightedGraph(2, {(1, 1): 10**9, (1, 2): 10**9 + 1})]
    for _ in range(6):
        n = rng.randint(1, 5)
        weights = {(u, v): rng.choice([-2, -1, 1, 2, 0.5]) for u in range(1, n + 1)
                   for v in range(u, n + 1) if rng.random() < 0.4}
        graphs.append(WeightedGraph(n, weights))
    paths = set()
    for g in graphs:
        power = sym_power(g, 3)
        paths.add(power.path)
        u, v = map(np.concatenate, list(zip(*power.upper_blocks()))[:2])
        want = np.nonzero(np.triu(power.core))
        assert np.array_equal(u, want[0] + 1) and np.array_equal(v, want[1] + 1)
        # the streamed first power scans the scaled matrix in the same blocks
        dim, streamed = sym_power_upper_blocks(g.n, [edge_arrays(g)], 1)
        streamed, whole = list(streamed), list(sym_power(g, 1).upper_blocks())
        assert dim == g.n and len(streamed) == len(whole)
        for got, block in zip(streamed, whole):
            assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got, block))
    assert paths == {"int64", "object", "float64"}


def test_exact_stream_tokens_equal_the_exact_weights(monkeypatch):
    # every token of the --exact stream is str(ExactWeight.make(Fraction(S, L * d), d)),
    # d = D_i * D_j a product of a real power's orbit sizes (at n=2, k=35 past int64),
    # for seeded signed S (small ones repeat within a block, large ones pass int64)
    # and L = 1, L > 1 and L past int64, in blocks of a few hundred entries
    import symgraph.power
    from symgraph.power import _edge_blocks, _index_tables, _upper_pieces

    monkeypatch.setattr(symgraph.power, "_SUPPORT_BLOCK", 500)
    rng = random.Random(2401)
    draws = 0
    for n, k in ((3, 5), (4, 6), (2, 35)):
        sizes = _index_tables(n, k, "paper")[1]
        big = len(sizes)
        for span, dtype in ((60, np.int64), (2**70, object)):
            for denominator in (1, 12**3, 10**25):
                core = np.array([[rng.randint(-span, span) for _ in range(big)] for _ in range(big)], dtype=dtype)
                # the stream names the pairs by their 1-based vertices
                want = {(i + 1, j + 1): str(ExactWeight.make(
                            Fraction(core.item(i, j), denominator * sizes[i] * sizes[j]), sizes[i] * sizes[j]))
                        for i in range(big) for j in range(i, big) if core.item(i, j)}
                got = {}
                for rows, cols, (index, texts) in _edge_blocks(_upper_pieces(core), sizes, denominator, exact=True):
                    got.update(zip(zip(rows.tolist(), cols.tolist()), [texts[x] for x in index.tolist()]))
                assert got == want, (n, k, span, denominator)
                draws += len(want)
    assert max(sizes) ** 2 >= 2**63 and draws > 25_000


def test_a_weight_that_underflows_leaves_its_pair_out():
    # one core entry of this k=4 power is S = 5e-324, the least subnormal,
    # at D_i * D_j = 4: its weight S / 2 rounds to 0.0, so neither the stream
    # nor upper_blocks() lists the pair, as to_dense() has no edge there
    g = WeightedGraph(3, {(1, 3): 5.527147875260445e-76, (2, 2): 6.908934844075556e-77,
                          (2, 3): 2.635549485807631e-82, (3, 3): 6.747006683667535e-80})
    power = sym_power(g, 4)
    dense = np.triu(power.to_dense())
    assert np.count_nonzero(np.triu(power.core)) == np.count_nonzero(dense) + 1 == 56
    want = np.nonzero(dense)
    _, blocks = sym_power_upper_blocks(g.n, [edge_arrays(g)], 4)
    for u, v, weights in (map(np.concatenate, zip(*pairs)) for pairs in (power.upper_blocks(), blocks)):
        assert np.array_equal(u, want[0] + 1) and np.array_equal(v, want[1] + 1)
        assert np.array_equal(weights, dense[want])


def _largest_int64_row_sum(k, d_max):
    r = round((2**62 / d_max) ** (1 / k))
    while d_max * r**k >= 2**62:
        r -= 1
    while d_max * (r + 1) ** k < 2**62:
        r += 1
    return r


@pytest.mark.parametrize("over, path", [(0, "int64"), (1, "object")])
def test_int64_object_switch_at_the_bound(over, path):
    k = 3
    d_max = 3  # orbit size of (1,1,2) and (1,2,2)
    r = _largest_int64_row_sum(k, d_max) + over
    # row 1 has the largest absolute row sum, r; the minus sign makes signed sums
    g = WeightedGraph(2, {(1, 1): r - 5, (1, 2): -5, (2, 2): 1})
    fast = sym_power(g, k)
    reference = sym_power(g, k, method="orbit")
    assert max(fast.orbit_sizes) == d_max
    assert (d_max * r**k < 2**62) == (path == "int64")
    assert fast.path == reference.path == path
    assert fast.core.dtype == reference.core.dtype
    assert np.array_equal(fast.core, reference.core)
    assert fast.denominator == reference.denominator == 1
    assert fast.core_entry(0, 0) == (r - 5) ** 3


@pytest.mark.parametrize("k, path", [(5, "int64"), (6, "object"), (7, "int64"), (8, "object")])
def test_core_matches_ryser_entries_at_large_k(k, path):
    # the orbit kernel is too slow here, so Ryser's per-entry permanent is the oracle
    rng = random.Random(300 + k)
    n = 4
    weights = {}
    for u in range(1, n + 1):
        for v in range(u, n + 1):
            if rng.random() < 0.7:
                weights[(u, v)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    g = WeightedGraph(n, weights)
    rows = g.weight_rows()
    power = sym_power(g, k)
    assert power.path == path
    dim = power.dim
    nonzero = [(i, j) for i in range(dim) for j in range(i, dim) if power.core[i][j]]
    pairs = [(rng.randrange(dim), rng.randrange(dim)) for _ in range(8)]
    for i, j in pairs + rng.sample(nonzero, 8):
        ti = VertexMultiset(power.tuples[i], n)
        tj = VertexMultiset(power.tuples[j], n)
        assert power.entry_exact(i, j) == entry_permanent(rows, ti, tj)


def test_float_power_of_nonnegative_weights_keeps_the_exact_support():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(1, 4)
        weights = {(1, 2): Fraction(1, 3)}
        for u in range(1, n + 1):
            for v in range(u, n + 1):
                if rng.random() < 0.6:
                    weights[(u, v)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        exact = sym_power(WeightedGraph(n, weights), k).to_dense()
        floaty = sym_power(WeightedGraph(n, {e: float(w) for e, w in weights.items()}), k)
        assert floaty.path == "float64"
        got = floaty.to_dense()
        assert np.array_equal(got != 0, exact != 0)
        assert np.allclose(got, exact, rtol=1e-12, atol=0)


def test_size_budget(monkeypatch):
    monkeypatch.setenv("SYMTENSOR_MAX_N", "100")
    with pytest.raises(SizeBudgetError):
        sym_power(complete(10), 6)


def test_orbit_refuses_past_the_ordered_table_cap():
    # n^k = 2^21 ordered tuples is past the cap although N = 22 is tiny
    with pytest.raises(SizeBudgetError, match="ordered tuples"):
        sym_power(path(2), 21, method="orbit")
    assert sym_power(path(2), 21).dim == 22


def test_power_beyond_the_ryser_cap_is_the_all_ones_closed_form():
    # k = 25 is past Ryser's cap of 20; the linear-form core has no such cap
    power = sym_power(complete_loops(2), 25)
    for i in range(power.dim):
        for j in range(power.dim):
            d = power.orbit_sizes[i] * power.orbit_sizes[j]
            assert power.entry_exact(i, j) == ExactWeight.sqrt(d)


@pytest.mark.parametrize("big, path", [(1, "int64"), (10**9, "object")])
def test_to_dense_divides_the_core_exactly(big, path):
    # L^3 and the largest core entries pass 2^53, where dividing in float64
    # would round twice
    g = WeightedGraph(3, {(1, 1): Fraction(big, 457), (1, 2): Fraction(-big - 1, 461), (2, 3): 1})
    power = sym_power(g, 3)
    assert power.path == path and power.denominator == (457 * 461) ** 3 > 2**53
    assert max(abs(x) for x in power.core.flat) > 2**53
    dense = power.to_dense()
    for i in range(power.dim):
        for j in range(power.dim):
            d = power.orbit_sizes[i] * power.orbit_sizes[j]
            assert dense[i, j] == float(power.core_entry(i, j)) / math.sqrt(d)


def test_entry_is_the_dense_entry_bit_for_bit():
    rng = random.Random(47)
    weights = (  # int64, object, float and Fraction cores
        lambda: rng.choice((-1, 1)) * rng.randint(1, 9),
        lambda: rng.choice((-1, 1)) * rng.randint(1, 9) * 10**9,
        lambda: rng.uniform(-2, 2),
        lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((3, 7, 457, 461))),
    )
    cores = set()
    for weight in weights:
        for _ in range(6):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            g = WeightedGraph(n, {(u, v): weight() for u in range(1, n + 1) for v in range(u, n + 1)
                                  if rng.random() < 0.6} or {(1, 1): weight()})
            power = sym_power(g, k)
            cores.add((power.path, power.denominator > 1))
            entries = [[power.entry(i, j) for j in range(power.dim)] for i in range(power.dim)]
            assert np.array(entries).tobytes() == power.to_dense().tobytes()
    assert {("int64", False), ("object", False), ("float64", False), ("int64", True)} <= cores
    # an entry past the float64 range is refused as to_dense refuses it
    power = sym_power(WeightedGraph(2, {(1, 2): Fraction(10**200, 3), (1, 1): 1}), 2)
    with pytest.raises(ValueError) as dense_error:
        power.to_dense()
    with pytest.raises(ValueError) as entry_error:
        power.entry(2, 2)
    assert str(entry_error.value) == str(dense_error.value)


def test_bad_arguments():
    with pytest.raises(ValueError):
        sym_power(path(2), 0)
    with pytest.raises(ValueError):
        sym_power(path(2), 2, method="magic")


# ---------------------------------------------------------------------------
# power graphs
# ---------------------------------------------------------------------------


def test_path3_square_graph_structure():
    g = sym_power_graph(path(3), 2)
    assert g.n == 6
    labels = g.labels
    by_label = {lab: v for v, lab in enumerate(labels, start=1)}
    def w(a, b):
        return g.weight(by_label[a], by_label[b])
    assert w("1,1", "2,2") == 1
    assert w("2,2", "3,3") == 1
    assert w("2,2", "1,3") == pytest.approx(math.sqrt(2), rel=1e-15)
    assert w("1,2", "2,3") == 1
    assert w("1,2", "1,2") == 1  # loop
    assert w("2,3", "2,3") == 1  # loop
    assert g.pair_count() == 6


def test_complete_loops3_square_graph():
    g = sym_power_graph(complete_loops(3), 2)
    assert g.n == 6
    assert g.pair_count() == 21  # every unordered pair incl. loops
    by_label = {lab: v for v, lab in enumerate(g.labels, start=1)}
    assert g.weight(by_label["1,1"], by_label["1,1"]) == 1
    assert g.weight(by_label["1,2"], by_label["1,2"]) == 2
    assert g.weight(by_label["1,1"], by_label["2,3"]) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_star3_square_graph():
    g = sym_power_graph(star(3), 2)
    by_label = {lab: v for v, lab in enumerate(g.labels, start=1)}
    assert g.weight(by_label["1,1"], by_label["2,3"]) == pytest.approx(math.sqrt(2), rel=1e-15)
    mixed = [by_label["1,2"], by_label["1,3"], by_label["1,4"]]
    for u in mixed:
        for v in mixed:
            assert g.has_edge(u, v)


# ---------------------------------------------------------------------------
# permutations and equivariance
# ---------------------------------------------------------------------------


def test_sym_power_permutation_examples():
    swap = sym_power_permutation([2, 1], 2)
    assert swap.matrix().tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    swap3 = sym_power_permutation([2, 1], 3)
    assert swap3.matrix().tolist() == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    rot = sym_power_permutation([2, 3, 1], 2)
    assert rot.matrix().tolist() == [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ]


def test_all_3_vertex_permutation_one_lines():
    # one-line forms of the induced rank permutations for n=3, k=2
    want = {
        (1, 2, 3): "123456",
        (1, 3, 2): "132546",
        (2, 1, 3): "213465",
        (2, 3, 1): "231645",
        (3, 1, 2): "312564",
        (3, 2, 1): "321654",
    }
    for sigma, line in want.items():
        sp = sym_power_permutation(list(sigma), 2)
        got = "".join(str(r + 1) for r in sp.mapping)
        assert got == line
        # the base permutation is a prefix of its induced power
        assert got[:3] == "".join(map(str, sigma))


def test_identity_permutation_power():
    sp = sym_power_permutation([1, 2, 3, 4], 3)
    assert sp.mapping == tuple(range(sp.dim))


def test_symmetric_permutation_matches_graph_power():
    # the swap matrix is symmetric, so the graph pipeline applies directly
    g = WeightedGraph.from_matrix([[0, 1], [1, 0]])
    power = sym_power(g, 2)
    sp = sym_power_permutation([2, 1], 2)
    assert np.array_equal(power.to_dense(), sp.matrix().astype(float))


def test_permutation_validation():
    with pytest.raises(ValueError):
        sym_power_permutation([1, 1], 2)
    with pytest.raises(ValueError):
        sym_power_permutation([1, 2], 0)
    with pytest.raises(ValueError, match="mapping is not a bijection on ranks"):
        SymPermutation(n=2, k=1, order="paper", mapping=(0, 0))


def test_permutation_power_past_the_budget_refuses_before_listing_tuples(monkeypatch):
    import symgraph.power

    monkeypatch.setenv("SYMTENSOR_MAX_N", "10")
    assert sym_power_permutation([2, 3, 4, 1], 2).dim == 10

    def listed(*args):
        raise AssertionError("tuples listed past the budget")

    monkeypatch.setattr(symgraph.power, "_index_tables", listed)
    with pytest.raises(SizeBudgetError, match=r"power dimension N=15 \(n=5, k=2\) exceeds the budget 10"):
        sym_power_permutation([2, 3, 4, 5, 1], 2)


def test_relabel_basics():
    g = path(3)
    assert relabel(g, [1, 2, 3]) == g
    assert relabel(g, [3, 2, 1]) == g  # path reversal is an automorphism
    h = relabel(WeightedGraph(2, {(1, 1): 7}), [2, 1])
    assert h.weight(2, 2) == 7 and h.weight(1, 1) == 0
    # vertex v takes the label of the vertex that maps to it
    labeled = relabel(WeightedGraph(3, {(1, 2): 1}, ("a", "b", "c")), [2, 3, 1])
    assert labeled.labels == ("c", "a", "b") and labeled.weight(2, 3) == 1
    with pytest.raises(ValueError):
        relabel(g, [1, 2])


def test_equivariance_random():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        weights = {}
        for u in range(1, n + 1):
            for v in range(u, n + 1):
                if rng.random() < 0.6:
                    weights[(u, v)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        g = WeightedGraph(n, weights)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        a = sym_power(g, k)
        b = sym_power(relabel(g, sigma), k)
        sp = sym_power_permutation(sigma, k)
        for x in range(a.dim):
            for y in range(a.dim):
                assert b.core_entry(sp.apply(x), sp.apply(y)) == a.core_entry(x, y)
        # matrix form: E_B = P^T E_A P with P[x, image(x)] = 1
        p = sp.matrix().astype(float)
        assert np.allclose(b.to_dense(), p.T @ a.to_dense() @ p, atol=1e-12)


def test_permutation_power_matrix_is_permutation():
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        m = sym_power_permutation(sigma, k).matrix()
        assert np.array_equal(m.sum(axis=0), np.ones(m.shape[0], dtype=np.int64))
        assert np.array_equal(m.sum(axis=1), np.ones(m.shape[0], dtype=np.int64))


def test_permutation_matrix_helper():
    assert permutation_matrix([2, 3, 1]) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


# ---------------------------------------------------------------------------
# nesting
# ---------------------------------------------------------------------------


def test_injections():
    t = VertexMultiset((1, 2), 3)
    assert loop_injection(t, 3, 4).entries == (1, 2, 3, 3)
    assert edge_injection(t, 1, 2, 1).entries == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        loop_injection(t, 1, 1)


def test_nesting_scepter_loop_vertex():
    g = scepter()
    for k1, k2 in ((1, 2), (2, 3), (2, 4), (3, 5)):
        small = sym_power(g, k1)
        big = sym_power(g, k2)
        for a in range(small.dim):
            for b in range(small.dim):
                if small.core_entry(a, b):
                    ra = rank(loop_injection(VertexMultiset(small.tuples[a], 2), 1, k2))
                    rb = rank(loop_injection(VertexMultiset(small.tuples[b], 2), 1, k2))
                    assert big.core_entry(ra, rb)


def test_nesting_path_edge_alternation():
    g = path(3)
    small = sym_power(g, 1)
    big = sym_power(g, 3)
    for a in range(small.dim):
        for b in range(small.dim):
            if small.core_entry(a, b):
                ra = rank(edge_injection(VertexMultiset(small.tuples[a], 3), 1, 2, 1))
                rb = rank(edge_injection(VertexMultiset(small.tuples[b], 3), 2, 1, 1))
                assert big.core_entry(ra, rb)


def test_a_core_past_the_bytes_of_an_int64_core_at_the_budget_refuses_first(monkeypatch):
    # SYMTENSOR_MAX_N=c allows the 8 c^2 bytes of an int64 core.  An object
    # entry is priced at sys.getsizeof(bound) + 8 bytes, and sym_power holds
    # N^2 entries, the n (n + 1) of degree 1 and the k=3 core's 6 * 7 of
    # degree 2, and two temporaries of N^2 entries (N <= 128):
    # - g's N=6 core, 44-byte entries: 120 * 44 = 5,280 bytes, runs at c=30
    #   (7,200 bytes);
    # - its N=10 core, 48-byte entries: 354 * 48 = 16,992 bytes, refuses at
    #   c=30 and c=40 (12,800 bytes) before the kernel runs, runs at c=50
    #   (20,000 bytes);
    # - an int64 core of N=10 runs at c=30;
    # - the N=6 core of g with 10^300 in place of 10^9, 300-byte entries:
    #   120 * 300 = 36,000 bytes, refuses at c=30 and c=60 (28,800 bytes)
    #   before the kernel runs, runs at c=70 (39,200 bytes)
    import symgraph.power

    g = WeightedGraph(3, {(1, 1): 10**9, (1, 2): 10**9 + 1, (2, 3): -7})
    huge = WeightedGraph(3, {(1, 1): 10**300, (1, 2): 10**300 + 1, (2, 3): -7})
    monkeypatch.setenv("SYMTENSOR_MAX_N", "30")
    assert sym_power(g, 2).path == "object"
    assert sym_power(path(3), 3).path == "int64"
    monkeypatch.setenv("SYMTENSOR_MAX_N", "50")
    assert sym_power(g, 3).dim == 10
    monkeypatch.setenv("SYMTENSOR_MAX_N", "70")
    assert sym_power(huge, 2).path == "object"

    def kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(symgraph.power, "_core_linear_forms", kernel)
    for cap, graph, k, dim in (("30", g, 3, 10), ("40", g, 3, 10), ("30", huge, 2, 6), ("60", huge, 2, 6)):
        monkeypatch.setenv("SYMTENSOR_MAX_N", cap)
        with pytest.raises(SizeBudgetError, match=f"object core of N={dim} .* SYMTENSOR_MAX_N"):
            sym_power(graph, k)


@pytest.mark.parametrize("density", [1.0, 0.4])
@pytest.mark.parametrize("weight", [10**5, 10**20, 10**100, 10**300])
def test_the_object_price_is_never_below_the_core_bytes(weight, density):
    # the bytes of an object core: a pointer per entry and each distinct int
    # once (the mirrored triangle shares its ints); the price of either
    # method's whole core may not fall below them
    import sys

    from symgraph.power import _object_bytes, _scaled

    rng = random.Random(7)
    n, k = 8, 4
    g = WeightedGraph(n, {(a, b): rng.choice((-1, 1)) * rng.randint(1, 9) * weight
                          for a in range(1, n + 1) for b in range(a, n + 1) if rng.random() < density})
    power = sym_power(g, k)
    assert power.path == "object"
    ints = {id(x): x for x in power.core.flat}
    held = 8 * power.core.size + sum(map(sys.getsizeof, ints.values()))
    for method in ("permanent", "orbit"):
        scaled = _scaled(n, [edge_arrays(g)], k, method, "paper")
        assert scaled.path == "object"
        assert _object_bytes(scaled, n, k, method, True) >= held, method


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("weight", [10**20, 10**300], ids=["1e20", "1e300"])
def test_the_orbit_object_core_shares_its_ints_and_stays_within_its_price(weight, seed):
    # each finished row is written to both triangles, so (i, j) and (j, i)
    # are one int, and the kernel holds nothing beside its core and a chunk
    import tracemalloc

    from symgraph.power import _object_bytes, _ordered_table, _scaled

    rng = random.Random(f"orbit object core {weight} {seed}")
    n, k = 6, 4
    g = WeightedGraph(n, {(a, b): rng.choice((-1, 1)) * rng.randint(1, 9) * weight
                          for a in range(1, n + 1) for b in range(a, n + 1) if rng.random() < 0.4})
    price = _object_bytes(_scaled(n, [edge_arrays(g)], k, "orbit", "paper"), n, k, "orbit", True)
    _ordered_table.cache_clear()  # the peak counts the table too, whatever ran before
    tracemalloc.start()
    try:
        power = sym_power(g, k, method="orbit")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert power.path == "object"
    assert all(power.core[i, j] is power.core[j, i] for i in range(power.dim) for j in range(i, power.dim))
    assert peak <= price


def test_the_float_bound_holds_no_gather_or_masked_copy_of_the_weights():
    # the float bound reads the weights as float64 and takes |w| once:
    # scaling the 45,150 upper pairs of a dense 300-vertex graph rises at
    # most 2.5 x their bytes above what it returns (4.1 x with a gather of
    # the matrix and two masked copies)
    import tracemalloc

    from symgraph.power import _index_tables, _scaled

    n = 300
    rng = np.random.default_rng(2500)
    u, v = (x.astype(np.int64) + 1 for x in np.triu_indices(n))
    w = rng.uniform(-1.0, 1.0, len(u))
    _index_tables(n, 1, "paper")  # cached: the peak counts the scaling alone
    tracemalloc.start()
    try:
        scaled = _scaled(n, [(u, v, w)], 1, "permanent", "paper")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scaled.path == "float64" and len(w) == 45_150
    assert peak - held <= 2.5 * w.nbytes, (peak - held) / w.nbytes
    assert scaled.bound == pytest.approx(np.abs(scaled.a).sum(axis=1).max() * max(scaled.sizes), rel=1e-12)
