import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgraph.exact import ExactWeight, sqrt_token, square_free_split


def test_square_free_split():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(360) == (6, 10)
    with pytest.raises(ValueError):
        square_free_split(0)


@given(st.integers(min_value=1, max_value=200_000))
@settings(max_examples=200, deadline=None)
def test_square_free_split_property(r):
    s, d = square_free_split(r)
    assert s * s * d == r
    for f in range(2, math.isqrt(d) + 1):
        assert d % (f * f) != 0


def test_make_normalizes():
    assert ExactWeight.make(1, 8) == ExactWeight.make(2, 2)
    assert ExactWeight.make(Fraction(3, 4), 16) == ExactWeight.of(3)
    assert ExactWeight.make(1, Fraction(1, 2)) == ExactWeight.make(Fraction(1, 2), 2)
    assert ExactWeight.make(5, 0) == ExactWeight.of(0)
    assert ExactWeight.make(0, 7) == ExactWeight.of(0)
    with pytest.raises(ValueError):
        ExactWeight.make(1, -2)


def test_float_value():
    assert float(ExactWeight.sqrt(2)) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert float(ExactWeight.make(Fraction(3, 2), 8)) == pytest.approx(3 * math.sqrt(2), rel=1e-15)
    assert float(ExactWeight.of(-4)) == -4.0


def test_equality_with_rationals():
    assert ExactWeight.of(3) == 3
    assert ExactWeight.of(Fraction(1, 2)) == Fraction(1, 2)
    assert ExactWeight.sqrt(2) != 1
    assert ExactWeight.make(2, 4) == 4  # sqrt collapses


def test_hash_agrees_with_equality():
    three, half = ExactWeight.of(3), ExactWeight.of(Fraction(1, 2))
    assert hash(three) == hash(3) and hash(half) == hash(Fraction(1, 2))
    assert three in {3} and half in {Fraction(1, 2)}
    assert {3: "int"}[three] == "int" and {Fraction(1, 2): "fraction"}[half] == "fraction"
    assert 3 in {three} and Fraction(6, 2) in {three} and Fraction(1, 2) in {half}
    assert hash(ExactWeight.make(2, 8)) == hash(ExactWeight.make(4, 2))
    assert len({ExactWeight.make(2, 8), ExactWeight.make(4, 2), ExactWeight.sqrt(2), ExactWeight.make(2, 4)}) == 3


@given(
    q=st.fractions(min_value=-10, max_value=10, max_denominator=12),
    r=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_make_matches_float_arithmetic(q, r):
    a = ExactWeight.make(q, r)
    assert float(a) == pytest.approx(float(q) * math.sqrt(r), rel=1e-12, abs=1e-12)
    assert square_free_split(a.r) == (1, a.r)
    assert str(a) == sqrt_token(a.q.numerator, a.q.denominator, a.r)


def test_str_tokens():
    assert str(ExactWeight.of(0)) == "0"
    assert str(ExactWeight.of(3)) == "3"
    assert str(ExactWeight.of(Fraction(1, 2))) == "1/2"
    assert str(ExactWeight.sqrt(2)) == "sqrt(2)"
    assert str(ExactWeight.make(3, 2)) == "3*sqrt(2)"
    assert str(ExactWeight.make(Fraction(3, 2), 2)) == "3/2*sqrt(2)"


def test_sqrt_token_reduces_and_writes_each_form():
    assert sqrt_token(0, 7, 1) == "0"
    assert sqrt_token(6, 3, 1) == "2"
    assert sqrt_token(-2, 6, 1) == "-1/3"
    assert sqrt_token(3, 3, 5) == "sqrt(5)"
    assert sqrt_token(-4, 2, 5) == "-2*sqrt(5)"
    assert sqrt_token(2, 6, 7) == "1/3*sqrt(7)"
    assert sqrt_token(-3, 3, 5) == "-1*sqrt(5)" == str(ExactWeight.make(-1, 5))
    assert sqrt_token(-(2**80) * 9, 3**70, 1) == str(Fraction(-(2**80), 3**68))


def test_repr():
    assert repr(ExactWeight.make(3, 2)) == "ExactWeight(Fraction(3, 1), 2)"
