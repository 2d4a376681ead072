import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgraph.exact import ExactWeight, square_free_split


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


def test_multiplication_stays_exact():
    a = ExactWeight.sqrt(6)
    b = ExactWeight.sqrt(10)
    prod = a * b
    assert prod == ExactWeight.make(2, 15)
    assert prod.exact
    assert (ExactWeight.sqrt(2) * ExactWeight.sqrt(2)) == 2
    assert (3 * ExactWeight.sqrt(2)) == ExactWeight.make(3, 2)


def test_addition_within_class():
    s = ExactWeight.sqrt(2) + ExactWeight.make(2, 2)
    assert s == ExactWeight.make(3, 2)
    assert (ExactWeight.of(1) + ExactWeight.of(-1)) == 0
    cancel = ExactWeight.sqrt(3) + ExactWeight.make(-1, 3)
    assert cancel == 0 and cancel.exact


def test_mixed_addition_records_exactness_loss():
    mixed = ExactWeight.sqrt(2) + ExactWeight.sqrt(3)
    assert not mixed.exact
    assert float(mixed) == pytest.approx(math.sqrt(2) + math.sqrt(3), rel=1e-15)
    # inexactness is sticky through further arithmetic
    assert not (mixed * ExactWeight.of(2)).exact
    # and an inexact value never compares equal to the exact one
    assert mixed != ExactWeight.make(float(mixed))


@given(
    q1=st.fractions(min_value=-10, max_value=10, max_denominator=12),
    q2=st.fractions(min_value=-10, max_value=10, max_denominator=12),
    r1=st.integers(min_value=1, max_value=60),
    r2=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_product_matches_float_arithmetic(q1, q2, r1, r2):
    a = ExactWeight.make(q1, r1)
    b = ExactWeight.make(q2, r2)
    assert float(a * b) == pytest.approx(float(a) * float(b), rel=1e-12, abs=1e-12)
    if a.r == b.r:
        assert float(a + b) == pytest.approx(float(a) + float(b), rel=1e-12, abs=1e-12)


def test_str_tokens():
    assert str(ExactWeight.of(0)) == "0"
    assert str(ExactWeight.of(3)) == "3"
    assert str(ExactWeight.of(Fraction(1, 2))) == "1/2"
    assert str(ExactWeight.sqrt(2)) == "sqrt(2)"
    assert str(ExactWeight.make(3, 2)) == "3*sqrt(2)"
    assert str(ExactWeight.make(Fraction(3, 2), 2)) == "3/2*sqrt(2)"


def test_subtraction_negation_and_repr():
    a = ExactWeight.make(3, 2)
    assert -a == ExactWeight.make(-3, 2) and (-a).exact
    assert a - ExactWeight.sqrt(2) == ExactWeight.make(2, 2)
    assert a - a == 0 and (a - a).exact
    assert ExactWeight.of(Fraction(1, 2)) - 1 == Fraction(-1, 2)
    assert a.__sub__(0.5) is NotImplemented
    # across square-root classes the difference is a float, marked inexact
    mixed = ExactWeight.sqrt(2) - 1
    assert not mixed.exact and not (-mixed).exact
    assert float(-mixed) == -float(mixed) == pytest.approx(1 - math.sqrt(2), rel=1e-15)
    assert str(mixed) == repr(float(mixed))
    assert str(ExactWeight.inexact(0.1)) == "0.1"
    assert repr(a) == "ExactWeight(Fraction(3, 1), 2)"
    assert repr(ExactWeight.inexact(0.5)) == "ExactWeight(Fraction(1, 2), 1, exact=False)"
