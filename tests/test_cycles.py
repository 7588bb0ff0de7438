from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcd.catalog import subordinate_class
from symcd.cycles import (
    CycleClass,
    DivisorClass,
    divisor_class,
    evaluate_top,
    monomial_value,
    multiply,
    theta_class,
    x_class,
)
from symcd.errors import PreconditionError


def test_monomial_values():
    assert monomial_value(4, 3, 1) == 12  # 4!/2!
    assert monomial_value(4, 3, 3) == 1  # point class
    assert monomial_value(4, 5, 0) == 0  # theta^(g+1) = 0
    assert monomial_value(5, 3, 0) == 60


def test_monomial_range_errors():
    with pytest.raises(PreconditionError):
        monomial_value(4, 3, 4)
    with pytest.raises(PreconditionError):
        monomial_value(4, 3, -1)
    with pytest.raises(PreconditionError):
        monomial_value(1, 2, 0)


def test_multiply_x_times_theta():
    product = multiply(x_class(4, 2), theta_class(4, 2))
    assert product.coeffs == (Fraction(0), Fraction(1), Fraction(0))


def test_multiply_cross_check_classes():
    # (10x - 2theta)(theta - x) = 12*x*theta - 10*x^2 - 2*theta^2 on C_2
    left = divisor_class(4, 2, -2, -10)
    right = divisor_class(4, 2, 1, 1)
    product = multiply(left, right)
    assert product.coeffs == (Fraction(-2), Fraction(12), Fraction(-10))


def test_square_of_binomial():
    square = divisor_class(4, 3, 1, 1) ** 2
    assert square.coeffs == (Fraction(1), Fraction(-2), Fraction(1))


def test_multiply_rejects_mismatched_spaces():
    with pytest.raises(PreconditionError):
        multiply(theta_class(4, 2), theta_class(4, 3))
    with pytest.raises(PreconditionError):
        multiply(theta_class(4, 2), theta_class(5, 2))


def test_multiply_rejects_codimension_overflow():
    cls = theta_class(4, 2)
    with pytest.raises(PreconditionError):
        multiply(multiply(cls, cls), cls)


def test_addition_rejects_mixed_codimension():
    with pytest.raises(PreconditionError):
        theta_class(4, 3) + theta_class(4, 3) ** 2


def test_evaluate_top_examples():
    assert evaluate_top(divisor_class(4, 3, 1, 1) ** 3) == -1
    assert evaluate_top(theta_class(5, 3) ** 3) == 60
    assert evaluate_top(divisor_class(5, 3, 1, Fraction(5, 3)) ** 3) == Fraction(-80, 27)


def test_evaluate_top_requires_top_degree():
    with pytest.raises(PreconditionError):
        evaluate_top(theta_class(4, 3))


@pytest.mark.parametrize("g", range(2, 21))
def test_theta_power_evaluation(g):
    for d in range(2, g + 1):
        expected = Fraction(1)
        for i in range(d):
            expected *= g - i
        assert evaluate_top(theta_class(g, d) ** d) == expected


small_fractions = st.fractions(max_denominator=7)
coeff_vectors = st.lists(small_fractions, min_size=2, max_size=2)


@given(coeff_vectors, coeff_vectors, coeff_vectors, small_fractions, small_fractions)
def test_evaluate_top_is_bilinear(p, p2, q, s, s2):
    g, d = 5, 3
    cp = CycleClass(g, d, tuple(p))
    cp2 = CycleClass(g, d, tuple(p2))
    cq = CycleClass(g, d, (*q, Fraction(0)))  # codim 2
    combined = evaluate_top(multiply(cp.scale(s) + cp2.scale(s2), cq))
    separate = s * evaluate_top(multiply(cp, cq)) + s2 * evaluate_top(multiply(cp2, cq))
    assert combined == separate


def test_divisor_class_convention():
    div = divisor_class(4, 3, 10, 12)
    assert div.a == 10
    assert div.b == 12
    assert div.coeffs == (Fraction(10), Fraction(-12))


def test_divisor_class_requires_codim_one():
    with pytest.raises(PreconditionError):
        DivisorClass(4, 3, (Fraction(1), Fraction(0), Fraction(0)))


def test_class_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        CycleClass(1, 3, (Fraction(1),))
    with pytest.raises(PreconditionError):
        CycleClass(4, 1, (Fraction(1),))
    with pytest.raises(PreconditionError):
        CycleClass(4, 2, (Fraction(1),) * 4)  # codim 3 > d = 2


def test_string_rendering():
    assert str(divisor_class(4, 3, 1, 1)) == "theta - x"
    assert str(divisor_class(4, 2, -2, -10)) == "-2*theta + 10*x"
    assert str(CycleClass(5, 3, (Fraction(1, 2), Fraction(-2), Fraction(3)))) == (
        "(1/2)*theta^2 - 2*x*theta + 3*x^2"
    )
    assert str(CycleClass(4, 3, (Fraction(0), Fraction(0)))) == "0"


def _plain_convolution(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _plain_poincare_sum(g, d, coeffs):
    return sum(
        (c * Fraction(factorial(g), factorial(g - d + k)) for k, c in enumerate(coeffs) if g - d + k >= 0),
        Fraction(0),
    )


@st.composite
def top_degree_pairs(draw):
    """Two classes on one C_d whose codimensions add up to d; d may exceed g."""
    g = draw(st.integers(min_value=2, max_value=12))
    d = draw(st.integers(min_value=2, max_value=g + 2))
    if draw(st.booleans()):
        # a subordinate locus: coefficients C(n-g-r, k)/(d-r-k)!
        r = draw(st.integers(min_value=0, max_value=d))
        n = draw(st.integers(min_value=d, max_value=d + 2 * g))
        first = subordinate_class(g, d, n, r)
    else:
        codim = draw(st.integers(min_value=0, max_value=d))
        coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=720)
        first = CycleClass(g, d, tuple(draw(st.lists(coeffs, min_size=codim + 1, max_size=codim + 1))))
    rest = d - first.codim
    coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=120)
    second = CycleClass(g, d, tuple(draw(st.lists(coeffs, min_size=rest + 1, max_size=rest + 1))))
    return first, second


@given(top_degree_pairs())
def test_integer_kernels_match_plain_fraction_arithmetic(pair):
    p, q = pair
    product = multiply(p, q)
    assert product.coeffs == _plain_convolution(p.coeffs, q.coeffs)
    assert all(type(c) is Fraction for c in product.coeffs)
    assert evaluate_top(product) == _plain_poincare_sum(p.genus, p.d, product.coeffs)


def test_class_coerces_non_fraction_coefficients_and_refuses_floats():
    cls = CycleClass(4, 3, [1, "1/2"])
    assert cls.coeffs == (Fraction(1), Fraction(1, 2))
    assert type(cls.coeffs) is tuple and all(type(c) is Fraction for c in cls.coeffs)
    with pytest.raises(TypeError):
        CycleClass(4, 3, (Fraction(1), 0.5))
