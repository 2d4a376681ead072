import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgraph.combinatorics import (
    CountLimitError,
    MultiplicityVector,
    VertexMultiset,
    enumerate_multisets,
    enumerate_orbit,
    multiplicity_vector,
    multiset_count,
    orbit_size,
    rank,
    unrank,
)


def test_a_tuple_prints_as_its_power_vertex_label():
    t = VertexMultiset((1, 1, 3), 4)
    assert str(t) == "1,1,3"
    m = t.multiplicity()
    assert (m.counts, m.n, m.k) == ((2, 0, 1, 0), 4, 3)


def test_multiset_count_known_values():
    assert multiset_count(2, 2) == 3
    assert multiset_count(3, 2) == 6
    assert multiset_count(2, 3) == 4
    for n in range(1, 8):
        assert multiset_count(n, 1) == n


def test_multiset_count_guard():
    with pytest.raises(CountLimitError) as exc:
        multiset_count(10**6, 12)
    assert "n=1000000" in str(exc.value)
    with pytest.raises(ValueError):
        multiset_count(0, 2)
    with pytest.raises(ValueError):
        multiset_count(2, 0)


def test_enumerate_paper_order_matches_tables():
    assert [t.entries for t in enumerate_multisets(3, 2, "paper")] == [
        (1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert [t.entries for t in enumerate_multisets(2, 3, "paper")] == [
        (1, 1, 1), (2, 2, 2), (1, 1, 2), (1, 2, 2),
    ]
    assert [t.entries for t in enumerate_multisets(2, 2, "paper")] == [
        (1, 1), (2, 2), (1, 2),
    ]


def test_enumerate_lex_order():
    assert [t.entries for t in enumerate_multisets(2, 2, "lex")] == [(1, 1), (1, 2), (2, 2)]
    seq = [t.entries for t in enumerate_multisets(4, 3, "lex")]
    assert seq == sorted(seq)


def test_orders_agree_as_sets():
    for n in range(1, 6):
        for k in range(1, 6):
            lex = {t.entries for t in enumerate_multisets(n, k, "lex")}
            pap = {t.entries for t in enumerate_multisets(n, k, "paper")}
            assert lex == pap
            assert len(lex) == multiset_count(n, k)


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        enumerate_multisets(2, 2, "alphabetical")


def test_rank_examples():
    assert rank(VertexMultiset((1, 2), 2), "lex") == 1
    assert unrank(5, 3, 2, "paper").entries == (2, 3)
    assert unrank(0, 3, 2, "paper").entries == (1, 1)


def test_rank_unrank_bijection_exhaustive():
    for n in range(1, 6):
        for k in range(1, 6):
            for order in ("lex", "paper"):
                seq = enumerate_multisets(n, k, order)
                for r, t in enumerate(seq):
                    assert rank(t, order) == r
                    assert unrank(r, n, k, order) == t


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(6, 3, 2, "paper")
    with pytest.raises(ValueError):
        unrank(-1, 3, 2, "lex")


@given(
    n=st.integers(min_value=1, max_value=9),
    k=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rank_unrank_roundtrip_property(n, k, data):
    order = data.draw(st.sampled_from(["lex", "paper"]))
    r = data.draw(st.integers(min_value=0, max_value=multiset_count(n, k) - 1))
    assert rank(unrank(r, n, k, order), order) == r


def test_multiplicity_vector_examples():
    t = VertexMultiset((1, 1, 2, 3, 3, 4), 5)  # sorted copy of (1,3,2,4,3,1)
    assert multiplicity_vector(t).counts == (2, 1, 2, 1, 0)
    assert multiplicity_vector(VertexMultiset((1, 1), 2)).counts == (2, 0)
    for i in range(1, 4):
        t = VertexMultiset((i,) * 4, 3)
        counts = multiplicity_vector(t).counts
        assert counts[i - 1] == 4 and sum(counts) == 4


def test_orbit_size_examples():
    assert orbit_size(MultiplicityVector((1, 1))) == 2
    assert orbit_size(MultiplicityVector((2, 1))) == 3
    assert orbit_size(MultiplicityVector((4, 0, 0))) == 1
    assert orbit_size(MultiplicityVector((2, 1, 2, 1, 0))) == math.factorial(6) // (2 * 2)


def test_orbit_size_guard():
    with pytest.raises(CountLimitError):
        orbit_size(MultiplicityVector((1,) * 30))


def test_enumerate_orbit_examples():
    assert set(enumerate_orbit(VertexMultiset((1, 2), 2))) == {(1, 2), (2, 1)}
    assert set(enumerate_orbit(VertexMultiset((1, 1, 2), 2))) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert enumerate_orbit(VertexMultiset((1, 1), 2)) == [(1, 1)]


def test_orbit_lengths_match_orbit_size():
    for n in range(1, 5):
        for k in range(1, 5):
            for t in enumerate_multisets(n, k):
                orbit = enumerate_orbit(t)
                assert len(orbit) == orbit_size(multiplicity_vector(t))
                assert len(set(orbit)) == len(orbit)
                assert all(tuple(sorted(p)) == t.entries for p in orbit)


def test_orbits_partition_all_tuples():
    for n in range(1, 7):
        for k in range(1, 7):
            total = sum(orbit_size(t.multiplicity()) for t in enumerate_multisets(n, k))
            assert total == n**k


def test_vertex_multiset_validation():
    with pytest.raises(ValueError):
        VertexMultiset((2, 1), 2)  # decreasing
    with pytest.raises(ValueError):
        VertexMultiset((1, 3), 2)  # exceeds n
    with pytest.raises(ValueError):
        VertexMultiset((), 2)  # empty
    with pytest.raises(ValueError):
        MultiplicityVector((0, -1))
