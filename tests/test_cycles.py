import copy
import math
import pickle
import re
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcd import cycles
from symcd.catalog import hyperelliptic_pencil_locus_class, subordinate_class
from symcd.combinatorics import gen_binomial
from symcd.cycles import (
    CycleClass,
    divisor_class,
    evaluate_top,
    multiply,
    theta_class,
    x_class,
)
from symcd.errors import PreconditionError


def _monomial(g, d, k):
    """The class x^k * theta^(d-k) on C_d."""
    return CycleClass.from_numerators(g, d, [int(i == k) for i in range(d + 1)])


def test_monomial_values():
    assert evaluate_top(_monomial(4, 3, 1)) == 12  # 4!/2!
    assert evaluate_top(_monomial(4, 3, 3)) == 1  # point class
    assert evaluate_top(_monomial(4, 5, 0)) == 0  # theta^(g+1) = 0
    assert evaluate_top(_monomial(5, 3, 0)) == 60


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
    # A class adds to classes only: a number is refused on either side and in a difference.
    theta = theta_class(4, 3)
    for sums in (lambda: theta + 1, lambda: 1 + theta, lambda: theta - 1):
        with pytest.raises(TypeError):
            sums()


def test_evaluate_top_examples():
    assert evaluate_top(divisor_class(4, 3, 1, 1) ** 3) == -1
    assert evaluate_top(theta_class(5, 3) ** 3) == 60
    assert evaluate_top(divisor_class(5, 3, 1, Fraction(5, 3)) ** 3) == Fraction(-80, 27)


def test_evaluate_top_requires_top_degree():
    line = "top-degree evaluation on C_3 needs codimension 3 (got 1)"
    with pytest.raises(PreconditionError, match=re.escape(line)):
        evaluate_top(theta_class(4, 3))
    line = "top-degree evaluation on C_5 needs codimension 5 (got 4)"
    with pytest.raises(PreconditionError, match=re.escape(line)):
        evaluate_top(theta_class(6, 5) ** 2, x_class(6, 5) ** 2)


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
    assert (div.numerators, div.denominator) == ((10, -12), 1)
    assert div.coeffs == (Fraction(10), Fraction(-12))


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


# A class's text is written from its integers, with no Fraction built, yet reads as the Fraction's.
@given(st.integers(min_value=-(2**200), max_value=2**200), st.integers(min_value=1, max_value=2**200))
@example(0, 1)
@example(0, 12)
@example(-6, 4)
@example(-(2**150) * 3, 2**150)
def test_a_coefficient_text_is_the_text_of_its_fraction(numerator, denominator):
    assert cycles._ratio_text(numerator, denominator) == str(Fraction(numerator, denominator))


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


@st.composite
def sparse_top_degree_pairs(draw):
    """Two classes on one C_d whose codimensions add up to d, each with a
    run of leading zero numerators, as the small and two-part diagonals have."""
    g = draw(st.integers(min_value=2, max_value=14))
    d = draw(st.integers(min_value=2, max_value=g + 2))
    codim = draw(st.integers(min_value=0, max_value=d))
    pair = []
    for length in (codim + 1, d - codim + 1):
        zeros = draw(st.integers(min_value=0, max_value=length - 1))
        numerators = st.integers(min_value=-(10**6), max_value=10**6)
        rest = draw(st.lists(numerators, min_size=length - zeros, max_size=length - zeros))
        denominator = draw(st.integers(min_value=1, max_value=720))
        pair.append(CycleClass.from_numerators(g, d, [0] * zeros + rest, denominator))
    return pair


@given(st.one_of(top_degree_pairs(), sparse_top_degree_pairs()))
def test_evaluate_top_takes_its_operands_in_either_order(pair):
    # solve_test_curve_system passes the short class as p and the sparse one as factor
    p, q = pair
    assert evaluate_top(p, q) == evaluate_top(q, p) == evaluate_top(multiply(p, q))


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

    expected = evaluate_top(CycleClass(5, 4, _plain_power(p.coeffs, 4)))
    monkeypatch.setattr(cycles, "as_rational", refuse)
    for result in (p + q, p - q, -p, multiply(p, q), p**4):
        _assert_lowest_terms(result)
    assert evaluate_top(p**4) == expected


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


def test_a_class_is_equal_to_itself_whichever_constructor_built_it():
    summed = theta_class(4, 3) + x_class(4, 3)
    built = divisor_class(4, 3, 1, -1)
    assert summed == built
    assert len({summed, built}) == 1
    assert hyperelliptic_pencil_locus_class(6, 4) == subordinate_class(6, 4, 6, 3)


@st.composite
def divisor_numbers(draw):
    """Genus, d, and the numerators of a divisor over a positive denominator, not reduced."""
    numerators = st.integers(min_value=-(10**6), max_value=10**6)
    return (
        draw(st.integers(min_value=2, max_value=12)),
        draw(st.integers(min_value=2, max_value=12)),
        (draw(numerators), draw(numerators)),
        draw(st.integers(min_value=1, max_value=10**4)),
    )


def _routes(genus, d, numerators, denominator):
    """The class numerators / denominator, built by each public route the property covers."""
    theta, x = [Fraction(n, denominator) for n in numerators]
    unit = Fraction(1, denominator)
    built = CycleClass(genus, d, [theta, x])
    yield built
    yield CycleClass(genus, d, [str(theta), str(x)])
    yield CycleClass.from_numerators(genus, d, [6 * n for n in numerators], 6 * denominator)
    yield CycleClass.from_numerators(genus, d, [-n for n in numerators], -denominator)
    yield divisor_class(genus, d, theta, -x)
    yield divisor_class(genus, d, numerators[0], -numerators[1]).scale(unit)
    yield theta_class(genus, d).scale(theta) + x_class(genus, d).scale(x)
    yield (theta_class(genus, d) * numerators[0] + numerators[1] * x_class(genus, d)) * unit
    yield -(-built)
    yield pickle.loads(pickle.dumps(built))
    yield copy.deepcopy(built)


@settings(max_examples=500, deadline=None)
@given(divisor_numbers())
def test_equal_numbers_give_equal_classes_however_they_were_built(case):
    genus, d, numerators, denominator = case
    reference = CycleClass.from_numerators(genus, d, numerators, denominator)
    routes = list(_routes(genus, d, numerators, denominator))
    for cls in routes:
        assert type(cls) is CycleClass
        assert cls == reference and reference == cls
        assert hash(cls) == hash(reference)
        assert repr(cls) == repr(reference)
        assert (cls.genus, cls.d, cls.numerators, cls.denominator) == (
            genus,
            d,
            reference.numerators,
            reference.denominator,
        )
    assert len({reference, *routes}) == 1


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
    assert repr(theta_class(5, 2)) == "CycleClass(genus=5, d=2, coeffs=(Fraction(1, 1), Fraction(0, 1)))"


class OneField(cycles._Frozen):
    __slots__ = ("only",)


def test_a_value_type_of_one_field_keeps_the_value_contract(value_contract):
    # attrgetter returns a bare value for one name: a tuple field shows whether it was wrapped.
    value_contract(OneField, {"only": (1, 2)}, "OneField(only=(1, 2))")


def test_classes_survive_pickle_and_copy():
    for cls in (CycleClass(5, 3, ["1/2", -2, 3]), divisor_class(4, 3, 10, 12)):
        for clone in (pickle.loads(pickle.dumps(cls)), copy.copy(cls), copy.deepcopy(cls)):
            assert clone == cls and type(clone) is type(cls)


@pytest.mark.parametrize("g", range(2, 13))
def test_stepped_evaluate_top_matches_monomial_values(g):
    # d runs past g, where theta^j = 0 for j > g
    for d in range(2, g + 3):
        values = [factorial(g) // factorial(g - d + k) if g - d + k >= 0 else 0 for k in range(d + 1)]
        for k in range(d + 1):
            assert evaluate_top(_monomial(g, d, k)) == values[k], (g, d, k)
        coeffs = [Fraction(k - 3, k + 2) for k in range(d + 1)]
        expected = sum(c * value for c, value in zip(coeffs, values))
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
    return tuple(Fraction(gen_binomial(n - g - r, k), factorial(codim - k)) for k in range(codim + 1))


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
        built = CycleClass(4, 3, (Fraction(a), Fraction(-b)))
        assert divisor_class(4, 3, a, b) == built
        assert repr(divisor_class(4, 3, a, b)) == repr(built)
    assert theta_class(6, 4) == CycleClass(6, 4, (Fraction(1), Fraction(0)))
    assert x_class(6, 4) == CycleClass(6, 4, (Fraction(0), Fraction(1)))
    assert divisor_class(4, 3, Fraction(1, 2), 2) == CycleClass(4, 3, (Fraction(1, 2), Fraction(-2)))


# Packed (Kronecker-substitution) products and powers against a schoolbook reference.


def _schoolbook(left, right):
    """Reference convolution of two integer vectors, term by term."""
    sums = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            sums[i + j] += a * b
    return sums


def _reference_product(p, q):
    return CycleClass.from_numerators(
        p.genus, p.d, _schoolbook(p.numerators, q.numerators), p.denominator * q.denominator
    )


def _reference_power(p, exponent):
    result = CycleClass.from_numerators(p.genus, p.d, (1,))
    for _ in range(exponent):
        result = _reference_product(result, p)
    return result


# Signed numerators up to 2^300, with zeros and small values frequent.
numerators = st.one_of(st.integers(min_value=-3, max_value=3), st.integers(min_value=-(2**300), max_value=2**300))
denominators = st.one_of(st.just(1), st.integers(min_value=2, max_value=2**80))


@st.composite
def numerator_vectors(draw, max_codim):
    codim = draw(st.integers(min_value=0, max_value=max_codim))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return [0] * (codim + 1)
    return draw(st.lists(numerators, min_size=codim + 1, max_size=codim + 1))


@st.composite
def packed_product_pairs(draw):
    """Two classes on one C_d, d at least their total codimension."""
    left, right = draw(numerator_vectors(8)), draw(numerator_vectors(8))
    d = max(2, len(left) + len(right) - 2)
    g = draw(st.integers(min_value=2, max_value=d + 2))
    return (
        CycleClass.from_numerators(g, d, left, draw(denominators)),
        CycleClass.from_numerators(g, d, right, draw(denominators)),
    )


@given(packed_product_pairs())
def test_packed_multiply_matches_the_schoolbook_convolution(pair):
    p, q = pair
    product = multiply(p, q)
    assert product == _reference_product(p, q)
    assert type(product) is CycleClass
    _assert_lowest_terms(product)


@given(numerator_vectors(4), denominators, st.integers(min_value=0, max_value=12))
def test_packed_power_matches_repeated_multiplication(vector, denominator, exponent):
    d = max(2, (len(vector) - 1) * max(1, exponent))
    p = CycleClass.from_numerators(d + 1, d, vector, denominator)
    folded = CycleClass.from_numerators(p.genus, d, (1,))
    for _ in range(exponent):
        folded = multiply(folded, p)
    power = p**exponent
    assert power == folded == _reference_power(p, exponent)
    _assert_lowest_terms(power)


@pytest.mark.parametrize(
    "left, right",
    [
        ([2500, 2500], [2500, 2500]),  # middle coefficient 2 * 2500^2 = 12,500,000: 24 bits, the bound
        ([-2500, 2500], [2500, -2500]),
        ([127], [1]),  # the bound has 7 bits: one byte with the offset bit
        ([-128], [1]),  # 8 bits: two bytes
        ([255, -1, 255], [255, 255, -255]),
        ([0, 0, 0], [5, 7]),
        ([0], [2**300, -(2**300)]),
        ([2**300], [2**300 - 1, 0, -(2**299)]),
    ],
)
def test_packed_multiply_at_the_edge_of_a_slot(left, right):
    d = len(left) + len(right)
    p, q = CycleClass.from_numerators(d, d, left), CycleClass.from_numerators(d, d, right)
    assert multiply(p, q) == _reference_product(p, q)
    assert multiply(q, p) == _reference_product(q, p)


@pytest.mark.parametrize(
    "vector, exponent",
    [
        ([-3], 5),  # -243: the bound 3^5 has 8 bits, so the slot needs two bytes
        ([3], 5),
        ([-2], 127),
        ([1, 1], 10),  # C(10, 5) = 252 < 2^10, but above max|a|^10 = 1
        ([1, -1], 12),
        ([2**300, -1, 7], 3),
        ([0, 0], 4),
        ([5, 0, -5], 0),
    ],
)
def test_packed_power_at_the_edge_of_a_slot(vector, exponent):
    d = max(2, (len(vector) - 1) * max(1, exponent))
    p = CycleClass.from_numerators(d + 1, d, vector, 3)
    assert p**exponent == _reference_power(p, exponent)


@pytest.mark.parametrize(
    "base, exponent, message",
    [
        (theta_class(4, 3), 4, "product has codimension 4, beyond the dimension of C_3"),
        (theta_class(6, 5) ** 2, 3, "product has codimension 6, beyond the dimension of C_5"),
        (theta_class(6, 5), 10**18, f"product has codimension {10**18}, beyond the dimension of C_5"),
    ],
)
def test_power_refuses_its_codimension_before_computing(base, exponent, message):
    start = time.perf_counter()
    with pytest.raises(PreconditionError) as refused:
        base**exponent
    assert time.perf_counter() - start < 1
    assert str(refused.value) == message


def test_power_of_a_unit_codimension_zero_class_is_quick():
    start = time.perf_counter()
    assert theta_class(4, 3) ** 0 == CycleClass.from_numerators(4, 3, (1,))
    assert (-(theta_class(4, 3) ** 0)) ** (10**12 + 1) == CycleClass.from_numerators(4, 3, (-1,))
    assert time.perf_counter() - start < 1


@given(numerator_vectors(4), st.integers(min_value=0, max_value=8))
def test_a_power_has_a_numerator_at_least_the_largest_to_the_power_over_its_length(vector, exponent):
    # The bound the CLI refuses a class power by before computing it.
    d = max(2, (len(vector) - 1) * max(1, exponent))
    power = CycleClass.from_numerators(d + 1, d, vector) ** exponent
    assert max(map(abs, power.numerators)) * len(power.numerators) >= max(map(abs, vector)) ** exponent


# Each route of multiply and __pow__ -- a sparse factor's shifted sums, a
# monomial power, a two-term power's binomial step, Miller's recurrence,
# packed integers -- against the schoolbook references.  A route that must
# not run is made to fail, so each test runs the route it names.


def _refused(*args):
    raise AssertionError("this route should not run here")


@st.composite
def sparse_classes(draw, most=2, max_codim=6):
    """A class on C_d with at most ``most`` nonzero numerators, the zero class among them, with d = 3 * max_codim."""
    codim = draw(st.integers(min_value=0, max_value=max_codim))
    places = draw(st.lists(st.integers(min_value=0, max_value=codim), max_size=most, unique=True))
    values = dict(zip(places, draw(st.lists(numerators, min_size=len(places), max_size=len(places)))))
    d = 3 * max_codim
    return CycleClass.from_numerators(d + 1, d, [values.get(k, 0) for k in range(codim + 1)], draw(denominators))


@settings(max_examples=200, deadline=None)
@given(sparse_classes(), numerator_vectors(6), denominators)
@example(CycleClass.from_numerators(19, 18, (0, 0, 0)), [4, -5, 6], 1)  # the zero class
@example(CycleClass.from_numerators(19, 18, (0, 0, 0, 0, 0, 0, -7), 2), [2**300, 0, -3], 5)  # a monomial at the far end
@example(CycleClass.from_numerators(19, 18, (5, 0, 0, -(2**200)), 3), [-7], 1)  # two non-adjacent terms times a scalar
def test_a_factor_of_at_most_two_terms_shifts_the_other_in_either_order(sparse, vector, denominator):
    other = CycleClass.from_numerators(sparse.genus, sparse.d, vector, denominator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        assert multiply(sparse, other) == _reference_product(sparse, other)
        assert multiply(other, sparse) == _reference_product(other, sparse)


@settings(max_examples=100, deadline=None)
@given(sparse_classes(most=1), st.integers(min_value=0, max_value=3))
def test_a_monomial_power_is_one_entry_wherever_it_is(monomial, exponent):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        patch.setattr(cycles, "_recurrence_power", _refused)
        power = monomial**exponent
    assert power == _reference_power(monomial, exponent)


@pytest.mark.parametrize(
    "left, right",
    [
        ([0, 1, 1, 1], [1, 2, 3, 4]),  # three nonzero numerators or more in each: packed
        ([5, -1, 0, 2], [0, 7, 0, 0, -2**200, 3]),
    ],
)
def test_factors_of_three_terms_or_more_are_packed(left, right):
    d = len(left) + len(right)
    p, q = CycleClass.from_numerators(d, d, left), CycleClass.from_numerators(d, d, right)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        with pytest.raises(AssertionError, match="should not run"):
            multiply(p, q)
    assert multiply(p, q) == _reference_product(p, q)


@pytest.mark.parametrize(
    "base, exponent",
    [
        (CycleClass.from_numerators(9, 8, (-7,), 3), 5),  # a codimension-0 scalar
        (CycleClass.from_numerators(9, 8, (0,)), 0),
        (CycleClass.from_numerators(9, 8, (0, 0)), 0),  # the zero class to the 0th is 1
        (CycleClass.from_numerators(9, 8, (0, 0)), 4),
        (theta_class(9, 8), 8),
        (x_class(9, 8), 8),
        (CycleClass.from_numerators(9, 8, (0, -(2**90), 0), 5), 4),
    ],
)
def test_a_monomial_power_is_one_entry(base, exponent):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        patch.setattr(cycles, "_recurrence_power", _refused)
        power = base**exponent
    assert power == _reference_power(base, exponent)
    assert sum(map(bool, power.numerators)) <= 1
    _assert_lowest_terms(power)


@st.composite
def two_term_classes(draw, max_codim=4, max_exponent=12):
    """A class with exactly two nonzero numerators, adjacent or not, on C_d with d = max_codim * max_exponent."""
    codim = draw(st.integers(min_value=1, max_value=max_codim))
    places = draw(st.lists(st.integers(min_value=0, max_value=codim), min_size=2, max_size=2, unique=True))
    values = dict(zip(places, draw(st.lists(numerators.filter(bool), min_size=2, max_size=2))))
    d = max_codim * max_exponent
    return CycleClass.from_numerators(d + 1, d, [values.get(k, 0) for k in range(codim + 1)], draw(denominators))


def _binomial_power(p, exponent):
    """p^exponent for a two-term p = a*t^i + b*t^j, summed as C(e, k) a^(e-k) b^k by math.comb."""
    i, j = (k for k, n in enumerate(p.numerators) if n)
    a, b = p.numerators[i], p.numerators[j]
    sums = [0] * (p.codim * exponent + 1)
    for k in range(exponent + 1):
        sums[i * exponent + (j - i) * k] += math.comb(exponent, k) * a ** (exponent - k) * b**k
    return CycleClass.from_numerators(p.genus, p.d, sums, p.denominator**exponent)


@settings(max_examples=150, deadline=None)
@given(two_term_classes(), st.integers(min_value=0, max_value=12))
@example(CycleClass.from_numerators(49, 48, (-5, 3)), 0)
@example(CycleClass.from_numerators(49, 48, (0, -(2**300), 0, 7), 11), 1)
@example(CycleClass.from_numerators(49, 48, (-(2**300), 0, 0, 0, 2**300 - 1), 2**80), 12)
def test_a_two_term_power_takes_the_binomial_step(base, exponent):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        patch.setattr(cycles, "_recurrence_power", _refused)
        power = base**exponent
    assert power == _reference_power(base, exponent)
    _assert_lowest_terms(power)


@pytest.mark.parametrize(
    "vector, denominator, exponent",
    [
        ([1, -1], 1, 100),  # intersect-large's (theta - x)^100
        ([1, -1], 3, 1000),  # the powers of one binomial, (-1)^k C(1000, k), over 3^1000
        ([-3, 1], 1, 300),  # a negative a
        ([0, 2**31 - 1, 0, -5], 7, 300),  # non-adjacent, zeros on both sides
        ([0, -(2**100), 3], 2**80, 300),  # a denominator
        ([7, 0, -(2**100)], 1, 12),  # a low exponent of large coefficients
    ],
)
def test_a_large_two_term_power_takes_the_binomial_step(vector, denominator, exponent):
    d = (len(vector) - 1) * exponent
    p = CycleClass.from_numerators(d + 1, d, vector, denominator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        patch.setattr(cycles, "_recurrence_power", _refused)
        power = p**exponent
    assert power == _binomial_power(p, exponent)
    if exponent == 100:
        assert power == _reference_power(p, exponent)
    if exponent == 1000 and denominator == 3:
        assert power.numerators == tuple((-1) ** k * math.comb(exponent, k) for k in range(exponent + 1))
        assert power.denominator == 3**exponent


def _recurrence_class(p, exponent):
    """p^exponent with its numerators from the recurrence, called directly."""
    return CycleClass.from_numerators(p.genus, p.d, cycles._recurrence_power(p.numerators, exponent), p.denominator**exponent)


@pytest.mark.parametrize(
    "vector, denominator, exponent",
    [
        ([0, 2, -3], 1, 5),  # a zero leading coefficient is shifted off
        ([0, 0, 5, 0, -1, 0], 1, 3),  # zeros on both sides
        ([-3, 1, 4], 1, 4),  # a negative a_0
        ([-(2**70), 3, 0, 2**65], 1, 3),
        ([4, -9, 2], 6, 5),  # a denominator
        ([3, 5, -7], 1, 0),
        ([0, 3, 5, -7], 10, 0),
        ([3, 5, -7], 1, 1),
        ([0, -3, 5], 7, 1),
    ],
)
def test_the_recurrence_on_small_shapes(vector, denominator, exponent):
    d = max(2, (len(vector) - 1) * max(1, exponent))
    p = CycleClass.from_numerators(d + 1, d, vector, denominator)
    assert _recurrence_class(p, exponent) == _reference_power(p, exponent)


@settings(max_examples=150, deadline=None)
@given(numerator_vectors(4), denominators, st.integers(min_value=0, max_value=12))
def test_the_recurrence_matches_the_reference_power(vector, denominator, exponent):
    if not any(vector):
        vector = [*vector[:-1], 1]
    d = max(2, (len(vector) - 1) * max(1, exponent))
    p = CycleClass.from_numerators(d + 1, d, vector, denominator)
    assert _recurrence_class(p, exponent) == _reference_power(p, exponent)


# The rule for a base of three terms or more: Miller's recurrence when
# e * bits(S) > 16c, S the sum of |numerators| and c the codimension.
_WIDE = [(-1) ** k * (2**299 + k) for k in range(11)]  # codimension 10, 300-bit numerators
_NARROW = [(-1) ** k * (128 + k % 100) for k in range(301)]  # codimension 300, 8-bit numerators


@pytest.mark.parametrize(
    "vector, exponent",
    [
        ([2**300, 3, -(2**299)], 30),  # codimension 2: 30 * 301 > 32
        ([0, 2**200 + 1, -5, 0], 40),  # the codimension counts its zeros: 40 * 201 > 48
        ([2**300, 1, -1], 4),  # an exponent of at most 2c: 4 * 301 > 32
        ([5, -2, 1], 9),  # one above the line: 9 * bits(8) = 36 > 32
        (_WIDE, 20),  # 20 * 303 > 160
    ],
)
def test_a_large_power_of_a_low_codimension_class_runs_the_recurrence(vector, exponent):
    d = (len(vector) - 1) * exponent
    p = CycleClass.from_numerators(d + 1, d, vector, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        power = p**exponent
    assert power == _reference_power(p, exponent)


@st.composite
def powers_by_the_line(draw, above):
    """A class and an exponent e with e * bits(S) above 16c if ``above``, at most 16c if not."""
    vector = draw(numerator_vectors(4).filter(any) if above else numerator_vectors(4))
    codim = len(vector) - 1
    d = 4 * 70  # at least the codimension times the largest exponent drawn (64 + 6)
    p = CycleClass.from_numerators(d + 1, d, vector, draw(denominators))  # reduced: read S after
    bits = sum(map(abs, p.numerators)).bit_length()
    line = 16 * codim // bits if bits else 40  # the largest exponent at or below the line
    exponent = draw(st.integers(min_value=line + 1, max_value=line + 6) if above else st.integers(min_value=0, max_value=min(line, 40)))
    return p, exponent


@settings(max_examples=150, deadline=None)
@given(powers_by_the_line(above=False))
def test_a_power_at_or_below_the_line_never_runs_the_recurrence(case):
    p, exponent = case
    assert exponent * sum(map(abs, p.numerators)).bit_length() <= 16 * p.codim
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_recurrence_power", _refused)
        power = p**exponent
    assert power == _reference_power(p, exponent)


@settings(max_examples=150, deadline=None)
@given(powers_by_the_line(above=True))
def test_a_power_above_the_line_never_packs(case):
    p, exponent = case
    assert exponent * sum(map(abs, p.numerators)).bit_length() > 16 * p.codim
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_pack", _refused)
        power = p**exponent
    assert power == _reference_power(p, exponent)


@pytest.mark.parametrize(
    "vector, exponent",
    [
        ([1, 2, 3, 4, 5], 9),  # 9 * bits(15) = 36 <= 64
        ([5, -2, 1], 8),  # on the line: 8 * bits(8) = 32 = 16c
        (_NARROW, 2),  # 2 * 16 = 32 <= 4,800
    ],
)
def test_a_small_or_low_exponent_power_stays_packed(vector, exponent):
    d = (len(vector) - 1) * exponent
    p = CycleClass.from_numerators(d + 1, d, vector)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_recurrence_power", _refused)
        power = p**exponent
        patch.setattr(cycles, "_pack", _refused)  # so the row is one the packed pow answers
        with pytest.raises(AssertionError, match="should not run"):
            p**exponent
    assert power == _reference_power(p, exponent)
