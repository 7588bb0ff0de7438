from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcd.combinatorics import (
    BivariateSeries,
    as_rational,
    factorial,
    gen_binomial,
    inv_factorial,
    linear_power_coefficient,
)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(4) == 24
    assert factorial(10) == 3628800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_inv_factorial_values():
    assert inv_factorial(3) == Fraction(1, 6)
    assert inv_factorial(0) == 1
    assert inv_factorial(-1) == 0
    assert inv_factorial(-7) == 0


def test_gen_binomial_values():
    assert gen_binomial(-1, 1) == -1
    assert gen_binomial(4, 2) == 6
    # falling factorial (-2)(-3)(-4)/6
    assert gen_binomial(-2, 3) == -4
    assert gen_binomial(5, 9) == 0
    assert gen_binomial(-1, 6) == 1


def test_gen_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        gen_binomial(3, -1)


@given(st.integers(min_value=-200, max_value=200), st.integers(min_value=1, max_value=50))
def test_gen_binomial_pascal_recurrence(n, k):
    assert gen_binomial(n, k) == gen_binomial(n - 1, k) + gen_binomial(n - 1, k - 1)


@given(st.fractions(), st.fractions(), st.fractions())
def test_fraction_arithmetic_is_exact(a, b, c):
    assert (a + b) - b == a
    assert (a + b) + c == a + (b + c)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    assert as_rational("5/3") == Fraction(5, 3)
    assert as_rational(7) == 7


def _random_series(draw_coeffs):
    keys = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return BivariateSeries({key: value for key, value in zip(keys, draw_coeffs)})


small_ints = st.integers(min_value=-9, max_value=9)


@given(st.lists(small_ints, min_size=6, max_size=6), st.lists(small_ints, min_size=6, max_size=6))
def test_series_multiply_commutative(a, b):
    sa, sb = _random_series(a), _random_series(b)
    assert sa * sb == sb * sa


@settings(max_examples=50)
@given(
    st.lists(small_ints, min_size=6, max_size=6),
    st.lists(small_ints, min_size=6, max_size=6),
    st.lists(small_ints, min_size=6, max_size=6),
)
def test_series_multiply_associative(a, b, c):
    sa, sb, sc = _random_series(a), _random_series(b), _random_series(c)
    assert (sa * sb) * sc == sa * (sb * sc)


def test_series_square_mixed_coefficient():
    # [t1*t2] (1 + a*t1 + b*t2)^2 = 2ab
    s = BivariateSeries.linear(1, 3, 5)
    assert (s * s).coefficient(1, 1) == 30


@given(st.integers(min_value=-12, max_value=12), small_ints, small_ints)
def test_series_power_matches_multinomial(n, u1, u2):
    # [t1*t2] (1 + u1*t1 + u2*t2)^n = n(n-1) * u1 * u2 for any integer n
    s = BivariateSeries.linear(1, u1, u2) ** n
    assert s.coefficient(1, 1) == Fraction(n * (n - 1) * u1 * u2)
    assert s.coefficient(1, 0) == Fraction(n * u1)
    assert s.coefficient(0, 0) == 1


def test_series_inverse_is_two_sided():
    s = BivariateSeries({(0, 0): Fraction(2), (1, 0): 3, (0, 1): -1, (1, 1): 4})
    one = BivariateSeries({(0, 0): 1})
    assert s * s.inverse() == one
    assert s.inverse() * s == one


def test_series_inverse_needs_constant_term():
    with pytest.raises(ValueError):
        BivariateSeries({(1, 0): 1}).inverse()


def test_series_rejects_high_degree():
    with pytest.raises(ValueError):
        BivariateSeries({(3, 0): 1})
    with pytest.raises(ValueError):
        BivariateSeries({(2, 1): 1})


def test_negative_power_extraction_example():
    # [t1*t2] (1 + 2t1 + 3t2)^(-2) * (1 + 4t1 + 9t2)^4 = 228
    lhs = BivariateSeries.linear(1, 2, 3) ** -2
    rhs = BivariateSeries.linear(1, 4, 9) ** 4
    assert (lhs * rhs).coefficient(1, 1) == 228


def test_linear_power_coefficient_example():
    # [t^5] (10 - 2t)(1 + t)^5 = 10*C(5,5) - 2*C(5,4) = 0
    assert linear_power_coefficient(10, -2, 5, 5) == 0
    assert linear_power_coefficient(1, 0, -1, 4) == 1
    # integers in, an integer out; a Fraction or a string makes a Fraction
    assert type(linear_power_coefficient(10, -2, 5, 5)) is int
    assert linear_power_coefficient(Fraction(1, 2), "1/3", 3, 2) == Fraction(5, 2)
    assert type(linear_power_coefficient(1, Fraction(2), 3, 2)) is Fraction
    with pytest.raises(TypeError):
        linear_power_coefficient(1, 0.5, 3, 2)


def test_generating_function_residual_vanishes():
    # [t^m] (2m - 2t)(1 + t)^m = 0 for all m
    for m in range(1, 501):
        assert linear_power_coefficient(2 * m, -2, m, m) == 0
