import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcd import cycles
from symcd.catalog import subordinate_class
from symcd.combinatorics import gen_binomial, inv_factorial
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
    assert str(CycleClass(4, 3, (Fraction(0), Fraction(-1, 3)))) == "-(1/3)*x"
    assert str(CycleClass(4, 3, (Fraction(-1),))) == "-1"
    assert str(CycleClass(4, 3, (Fraction(5, 2),))) == "(5/2)"


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


def _assert_lowest_terms(cls):
    assert cls.denominator > 0
    assert math.gcd(cls.denominator, *cls.numerators) == 1
    assert all(type(n) is int for n in cls.numerators)


def _plain_power(coeffs, exponent):
    result = (Fraction(1),)
    for _ in range(exponent):
        result = _plain_convolution(result, coeffs)
    return result


@st.composite
def same_space_pairs(draw):
    """Two classes of one codimension c on one C_d, with 2c <= d."""
    g = draw(st.integers(min_value=2, max_value=8))
    d = draw(st.integers(min_value=2, max_value=g + 2))
    codim = draw(st.integers(min_value=0, max_value=d // 2))
    coeffs = st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=60), min_size=codim + 1, max_size=codim + 1
    )
    return CycleClass(g, d, tuple(draw(coeffs))), CycleClass(g, d, draw(coeffs))


@given(same_space_pairs(), st.fractions(max_denominator=30), st.integers(min_value=0, max_value=4))
def test_arithmetic_matches_plain_fraction_arithmetic(pair, scalar, exponent):
    p, q = pair
    if p.codim:
        exponent = min(exponent, p.d // p.codim)
    cases = [
        (p + q, tuple(a + b for a, b in zip(p.coeffs, q.coeffs))),
        (p - q, tuple(a - b for a, b in zip(p.coeffs, q.coeffs))),
        (-p, tuple(-a for a in p.coeffs)),
        (p.scale(scalar), tuple(scalar * a for a in p.coeffs)),
        (multiply(p, q), _plain_convolution(p.coeffs, q.coeffs)),
        (p**exponent, _plain_power(p.coeffs, exponent)),
    ]
    for result, expected in cases:
        _assert_lowest_terms(result)
        assert result.coeffs == expected
        assert all(type(c) is Fraction for c in result.coeffs)


def test_arithmetic_never_coerces_through_as_rational(monkeypatch):
    p = CycleClass(5, 4, (Fraction(1, 2), Fraction(-2, 3)))
    q = CycleClass(5, 4, (Fraction(3), Fraction(5, 6)))

    def refuse(value):
        raise AssertionError(f"as_rational called on {value!r}")

    monkeypatch.setattr(cycles, "as_rational", refuse)
    CycleClass(5, 4, (Fraction(1), Fraction(1, 3)))  # a tuple of Fractions is kept as given
    for result in (p + q, p - q, -p, multiply(p, q), p**4):
        _assert_lowest_terms(result)
    assert evaluate_top(p**4) == evaluate_top(CycleClass(5, 4, _plain_power(p.coeffs, 4)))


def test_equal_classes_from_different_routes_compare_and_hash_equal():
    parsed = CycleClass(4, 3, ["2/4", 1])
    scaled = divisor_class(4, 3, Fraction(1, 4), Fraction(-1, 2)).scale(2)
    summed = CycleClass(4, 3, [Fraction(1, 6), Fraction(1, 3)]) + CycleClass(4, 3, [Fraction(1, 3), Fraction(2, 3)])
    integer = CycleClass.from_numerators(4, 3, [-3, -6], -6)
    for cls in (scaled, summed, integer):
        assert cls == parsed
        assert hash(cls) == hash(parsed)
        assert (cls.numerators, cls.denominator) == ((1, 2), 2)
    assert len({parsed, scaled, summed, integer}) == 1
    assert CycleClass(4, 3, [1, 2]) != parsed
    assert CycleClass(5, 3, ["1/2", 1]) != parsed


def test_from_numerators_reduces_and_refuses_a_zero_denominator():
    cls = CycleClass.from_numerators(6, 4, [4, -6, 0], 8)
    assert (cls.numerators, cls.denominator) == ((2, -3, 0), 4)
    assert cls.coeffs == (Fraction(1, 2), Fraction(-3, 4), Fraction(0))
    zero = CycleClass.from_numerators(6, 4, [0, 0], 7)
    assert (zero.numerators, zero.denominator) == ((0, 0), 1)
    with pytest.raises(ZeroDivisionError):
        CycleClass.from_numerators(6, 4, [1, 2], 0)
    with pytest.raises(PreconditionError):
        CycleClass.from_numerators(6, 4, [1] * 6, 3)  # codim 5 > d = 4
    with pytest.raises(PreconditionError):
        DivisorClass.from_numerators(6, 4, [1, 0, 0])


def test_divisor_and_cycle_classes_stay_distinct():
    div = divisor_class(4, 3, 1, 1)
    plain = CycleClass(4, 3, (1, -1))
    assert div.coeffs == plain.coeffs
    assert div != plain and plain != div
    assert div == DivisorClass.from_numerators(4, 3, [1, -1])
    assert type(-div) is CycleClass and type(multiply(div, div)) is CycleClass


def test_classes_are_frozen():
    cls = divisor_class(4, 3, 1, 1)
    for field in ("genus", "d", "coeffs", "numerators", "denominator"):
        with pytest.raises(FrozenInstanceError):
            setattr(cls, field, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(cls, field)
    assert cls == divisor_class(4, 3, 1, 1)


def test_repr_keeps_the_dataclass_layout():
    assert repr(CycleClass(4, 3, ["1/2", 1])) == (
        "CycleClass(genus=4, d=3, coeffs=(Fraction(1, 2), Fraction(1, 1)))"
    )
    assert repr(theta_class(5, 2)) == "DivisorClass(genus=5, d=2, coeffs=(Fraction(1, 1), Fraction(0, 1)))"


def test_classes_survive_pickle_and_copy():
    for cls in (CycleClass(5, 3, ["1/2", -2, 3]), divisor_class(4, 3, 10, 12)):
        for clone in (pickle.loads(pickle.dumps(cls)), copy.copy(cls), copy.deepcopy(cls)):
            assert clone == cls and type(clone) is type(cls)


@pytest.mark.parametrize("g", range(2, 13))
def test_stepped_evaluate_top_matches_monomial_values(g):
    # d runs past g, where theta^j = 0 for j > g
    for d in range(2, g + 3):
        for k in range(d + 1):
            monomial = CycleClass.from_numerators(g, d, [int(i == k) for i in range(d + 1)])
            assert evaluate_top(monomial) == monomial_value(g, d, k), (g, d, k)
        coeffs = [Fraction(k - 3, k + 2) for k in range(d + 1)]
        expected = sum(c * monomial_value(g, d, k) for k, c in enumerate(coeffs))
        assert evaluate_top(CycleClass(g, d, coeffs)) == expected, (g, d)


def _stepped_evaluate_top(p):
    """Reference: each numerator times perm(g, d-k), the factor stepped down from k = d."""
    total, value = 0, 1
    for k in range(p.d, -1, -1):
        total += p.numerators[k] * value
        value *= p.genus - p.d + k
    return Fraction(total, p.denominator)


@pytest.mark.parametrize("g", range(2, 41))
def test_horner_evaluate_top_matches_the_stepped_sum(g):
    # d runs past g, where the zero factor must wipe out every lower term
    for d in range(2, g + 3):
        numerators = [(-1) ** k * (k * k + 3) ** (k % 5) - 7 * (k % 3 == 0) for k in range(d + 1)]
        for denominator in (1, 6, 2**70 + 1):
            p = CycleClass.from_numerators(g, d, numerators, denominator)
            assert evaluate_top(p) == _stepped_evaluate_top(p), (g, d, denominator)
        big = CycleClass.from_numerators(g, d, [n * 10**40 + k for k, n in enumerate(numerators)])
        assert evaluate_top(big) == _stepped_evaluate_top(big), (g, d)


def _fraction_subordinate_coeffs(g, d, n, r):
    """The subordinate-locus coefficients C(n-g-r, k)/(d-r-k)! in plain Fractions."""
    codim = d - r
    return tuple(Fraction(gen_binomial(n - g - r, k)) * inv_factorial(codim - k) for k in range(codim + 1))


def test_integer_subordinate_class_matches_fraction_formula():
    for g in range(2, 9):
        for d in range(2, g + 3):
            for r in range(d + 1):
                for n in range(d, d + 2 * g + 1):
                    cls = subordinate_class(g, d, n, r)
                    _assert_lowest_terms(cls)
                    assert cls.coeffs == _fraction_subordinate_coeffs(g, d, n, r), (g, d, n, r)


# ------------------------------------------------------------ fused products


@st.composite
def classes_with_a_divisor(draw):
    """A class of codimension d-1 and a divisor on one C_d; d may exceed g."""
    g = draw(st.integers(min_value=2, max_value=14))
    d = draw(st.integers(min_value=2, max_value=g + 3))
    rationals = st.fractions(min_value=-60, max_value=60, max_denominator=720)
    if draw(st.booleans()):
        # a subordinate locus of dimension 1: coefficients C(n-g-1, k)/(d-1-k)!
        p = subordinate_class(g, d, draw(st.integers(min_value=d, max_value=d + 2 * g)), 1)
    else:
        p = CycleClass(g, d, tuple(draw(st.lists(rationals, min_size=d, max_size=d))))
    return p, divisor_class(g, d, draw(rationals), draw(rationals))


@given(classes_with_a_divisor())
def test_fused_divisor_product_matches_the_built_product(pair):
    p, divisor = pair
    assert evaluate_top(p, divisor) == evaluate_top(multiply(p, divisor))
    assert evaluate_top(divisor, p) == evaluate_top(multiply(divisor, p))


@given(top_degree_pairs())
def test_fused_product_matches_the_built_product(pair):
    p, q = pair
    assert evaluate_top(p, q) == evaluate_top(multiply(p, q))


def test_fused_product_refuses_what_multiply_and_evaluate_top_refuse():
    theta = theta_class(4, 3)
    with pytest.raises(PreconditionError):
        evaluate_top(theta, theta)  # codimension 2 on C_3
    with pytest.raises(PreconditionError):
        evaluate_top(theta**2, theta**2)  # codimension 4 on C_3
    with pytest.raises(PreconditionError):
        evaluate_top(theta**2, theta_class(5, 3))  # another genus


def test_integer_divisor_classes_equal_the_fraction_built_ones():
    for a, b in ((1, 0), (0, -1), (10, 12), (-3, 7)):
        built = DivisorClass(4, 3, (Fraction(a), Fraction(-b)))
        assert divisor_class(4, 3, a, b) == built
        assert repr(divisor_class(4, 3, a, b)) == repr(built)
    assert theta_class(6, 4) == DivisorClass(6, 4, (Fraction(1), Fraction(0)))
    assert x_class(6, 4) == DivisorClass(6, 4, (Fraction(0), Fraction(1)))
    assert divisor_class(4, 3, Fraction(1, 2), 2) == DivisorClass(4, 3, (Fraction(1, 2), Fraction(-2)))
