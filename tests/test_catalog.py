import time
from fractions import Fraction
from math import comb, factorial

import pytest

from symcd import catalog
from symcd.catalog import (
    binomial_convolution_identity,
    bipartition_diagonal_class,
    bipartition_diagonal_extraction,
    hyperelliptic_pencil_locus_class,
    pencil_residual_divisor_class,
    pencil_residual_sums,
    ramification_divisor_class,
    small_diagonal_class,
    solve_test_curve_system,
    subordinate_class,
    subordinate_pencil_intersections,
)
from symcd.combinatorics import BivariateSeries, gen_binomial
from symcd.cycles import CycleClass, divisor_class, evaluate_top, multiply, theta_class, x_class
from symcd.errors import PreconditionError


# ---------------------------------------------------------------- subordinate


def test_subordinate_residual_series_is_theta_minus_x():
    for g in range(4, 21):
        cls = subordinate_class(g, g - 1, 2 * g - 3, g - 2)
        assert cls.coeffs == (Fraction(1), Fraction(-1))


def test_subordinate_power_of_pencil():
    # degree 2(d-1), dimension d-1 gives theta - (g-d+1)x
    cls = subordinate_class(5, 3, 4, 2)
    assert cls.coeffs == (Fraction(1), Fraction(-3))


def test_subordinate_codim_two_example():
    cls = subordinate_class(5, 3, 4, 1)
    assert cls.coeffs == (Fraction(1, 2), Fraction(-2), Fraction(3))


def test_subordinate_canonical_series_shape_is_genus_independent():
    # degree 2g-2, dimension g-1 on C_(g+1): always theta^2/2 - x*theta + x^2
    for g in range(3, 21):
        cls = subordinate_class(g, g + 1, 2 * g - 2, g - 1)
        assert cls.coeffs == (Fraction(1, 2), Fraction(-1), Fraction(1))


def test_subordinate_rejects_bad_ordering():
    with pytest.raises(PreconditionError):
        subordinate_class(5, 3, 2, 1)  # n < d
    with pytest.raises(PreconditionError):
        subordinate_class(5, 3, 4, -1)  # r < 0
    with pytest.raises(PreconditionError):
        subordinate_class(5, 3, 5, 4)  # r > d


@pytest.mark.parametrize("g", [1, -(10**4000)], ids=["one", "huge-negative"])
def test_subordinate_refuses_a_low_genus_before_building(g):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="genus must be at least 2"):
        subordinate_class(g, 300, 300, 0)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("codim", [1, 2, 3, 7, 50, 200])
def test_subordinate_numerators_match_the_degeneracy_locus_sum(codim):
    # sum_k C(N, k) x^k theta^(c-k) / (c-k)! with N = n-g-r and c = d-r, for N
    # negative, zero, and positive below c, where the sum stops at k = N
    for upper in sorted({-codim - 3, -2, -1, 0, 1, codim // 2, codim - 1}):
        for r in (1, 3):
            d = codim + r
            n = d + max(0, upper + 2 - codim)  # keeps g = n - r - N at 2 or more
            cls = subordinate_class(n - r - upper, d, n, r)
            expected = tuple(Fraction(gen_binomial(upper, k), factorial(codim - k)) for k in range(codim + 1))
            assert cls.coeffs == expected, (codim, upper, r)
            if 0 <= upper < codim:
                assert expected[upper] and not any(expected[upper + 1 :])


# -------------------------------------------------------------- small diagonal


def test_small_diagonal_examples():
    assert small_diagonal_class(4, 3).coeffs == (Fraction(0), Fraction(-6), Fraction(27))
    assert small_diagonal_class(4, 2).coeffs == (Fraction(-2), Fraction(10))
    assert small_diagonal_class(7, 2).coeffs == (Fraction(-2), Fraction(16))


def test_small_diagonal_matches_first_degeneration():
    # at d = 2 the class is 2(-theta + (g+1)x)
    for g in range(2, 31):
        assert small_diagonal_class(g, 2).coeffs == (Fraction(-2), Fraction(2 * (g + 1)))


def _fraction_small_diagonal(g, d):
    """The small diagonal as built from Fraction coefficients before it was integer."""
    coeffs = [Fraction(0)] * d
    coeffs[d - 1] = Fraction(d * ((d - 1) * g + 1))
    coeffs[d - 2] = Fraction(-d * (d - 1))
    return CycleClass(g, d, tuple(coeffs))


def test_integer_small_diagonal_matches_fraction_formula():
    for g in range(2, 21):
        for d in range(2, g + 3):
            assert small_diagonal_class(g, d) == _fraction_small_diagonal(g, d), (g, d)


def test_small_diagonal_rejects_points():
    with pytest.raises(PreconditionError):
        small_diagonal_class(4, 1)


# ---------------------------------------------------------- two-part diagonal


def test_bipartition_closed_form_example():
    cls = bipartition_diagonal_class(4, 3)
    # 6x(38x^2 - 15x*theta + 2*theta^2)
    assert cls.coeffs == (Fraction(0), Fraction(12), Fraction(-90), Fraction(228))
    assert cls.codim == 3 and cls.d == 5


def test_bipartition_statement_variant_differs_in_x_theta():
    statement = bipartition_diagonal_class(4, 3, variant="statement")
    assert statement.coeffs == (Fraction(0), Fraction(12), Fraction(-102), Fraction(228))
    with pytest.raises(PreconditionError):
        bipartition_diagonal_class(4, 3, variant="folklore")


def test_bipartition_extraction_example():
    cls = bipartition_diagonal_extraction(4, 3)
    assert cls.coeffs == (Fraction(0), Fraction(12), Fraction(-90), Fraction(228))


def test_extraction_per_beta_coefficients():
    # the beta-indexed [t1*t2] extractions behind the (4, 3) case
    expected = [228, 138, 72, 30]
    for beta, value in enumerate(expected):
        series = BivariateSeries.linear(1, 2, 3) ** (2 - 4 + beta) * BivariateSeries.linear(1, 4, 9) ** (4 - beta)
        assert series.coefficient(1, 1) == value


def _series_extraction(g, d):
    """The extraction with every [t1*t2] taken from truncated series powers."""
    base_linear = BivariateSeries.linear(1, g - d + 1, d)
    base_square = BivariateSeries.linear(1, (g - d + 1) ** 2, d**2)
    mixed = [
        (base_linear ** (2 - g + beta) * base_square ** (g - beta)).coefficient(1, 1)
        for beta in range(g)
    ]
    scale = Fraction(1, 2) if 2 * d == g + 1 else 1
    coeffs = [Fraction(0)] * g
    for alpha in range(g):
        coeffs[g - 1 - alpha] = scale * sum(
            Fraction((-1) ** (alpha + beta), factorial(beta) * factorial(alpha - beta)) * mixed[beta]
            for beta in range(alpha + 1)
        )
    return tuple(coeffs)


@pytest.mark.parametrize("g", range(3, 13))
def test_closed_form_extraction_matches_series_powers(g):
    for d in range(2, g):
        assert bipartition_diagonal_extraction(g, d).coeffs == _series_extraction(g, d), (g, d)


def _double_sum_extraction(g, d):
    """The extraction as its docstring states it: the coefficient of
    x^(g-1-a) theta^a is sum_b (-1)^(a+b) C(a, b) f(b) / a!, each f(b) a
    [t1*t2] coefficient taken from the terms of degree at most 2 of two
    binomial series, (1 + X)^n = 1 + C(n, 1) X + C(n, 2) X^2 + ..."""
    u, v = g - d + 1, d

    def low_terms(n, a, b):
        # the t1, t2 and t1*t2 coefficients of (1 + a*t1 + b*t2)^n
        return gen_binomial(n, 1) * a, gen_binomial(n, 1) * b, 2 * gen_binomial(n, 2) * a * b

    def mixed(n, m):
        (a1, a2, a12), (b1, b2, b12) = low_terms(n, u, v), low_terms(m, u * u, v * v)
        return a12 + a1 * b2 + a2 * b1 + b12

    scale = Fraction(1, 2) if 2 * d == g + 1 else 1
    return tuple(
        scale
        * Fraction(
            sum((-1) ** (a + b) * comb(a, b) * mixed(2 - g + b, g - b) for b in range(a + 1)), factorial(a)
        )
        for a in range(g - 1, -1, -1)
    )


@pytest.mark.parametrize("g", range(3, 31))
def test_extraction_matches_the_double_sum(g):
    for d in range(2, g):
        assert bipartition_diagonal_extraction(g, d).coeffs == _double_sum_extraction(g, d), (g, d)


def _full_table_extraction(g, d):
    """The extraction with its difference table differenced to the last row:
    the coefficient of x^(g-1-a) theta^a is the a-th difference of f at 0
    over a!, with f the closed [t1*t2] coefficient."""
    u, v = g - d + 1, d

    def mixed(n, m):
        return n * (n - 1) * u * v + m * (m - 1) * u**2 * v**2 + n * m * (u * v**2 + v * u**2)

    scale = Fraction(1, 2) if 2 * d == g + 1 else 1
    row = [mixed(2 - g + b, g - b) for b in range(g)]
    coeffs = []
    for a in range(g):
        coeffs.append(scale * Fraction(row[0], factorial(a)))
        row = [later - earlier for earlier, later in zip(row, row[1:])]
    return tuple(reversed(coeffs))


@pytest.mark.parametrize("g", range(3, 61))
def test_extraction_stopped_at_a_zero_row_matches_the_full_table(g):
    for d in range(2, g):
        assert bipartition_diagonal_extraction(g, d).coeffs == _full_table_extraction(g, d), (g, d)


def test_bipartition_top_theta_coefficients_vanish():
    # the explicit x^(g-3) factor kills theta^(g-1) (and x*theta^(g-2) for g >= 5)
    for g in range(4, 10):
        for d in range(2, g):
            coeffs = bipartition_diagonal_class(g, d).coeffs
            assert coeffs[0] == 0
            if g >= 5:
                assert coeffs[1] == 0


def test_bipartition_halving_at_equal_parts():
    # d = (g+1)/2 is a 2:1 parametrization; both routes carry the same factor
    closed = bipartition_diagonal_class(5, 3)
    extracted = bipartition_diagonal_extraction(5, 3)
    assert closed.coeffs == extracted.coeffs
    doubled = bipartition_diagonal_class(5, 3)
    assert doubled.coeffs[4] == Fraction(9, 2) * (2 * 125 - 7 * 25 + 5 * 5 + 2)


def _fraction_bipartition(g, d, variant):
    """The two-part diagonal as built from Fraction coefficients before it was integer."""
    a_coeff = (d - 1) * g**3 - (d * d - 2) * g**2 + (d * d - d - 1) * g + 2
    if variant == "proof":
        b_coeff = (2 - 2 * d) * g**2 + (2 * d * d - 3) * g - (2 * d * d - 2 * d - 1)
    else:
        b_coeff = (2 - 2 * d) * g**2 + (2 * d * d - 3) * g - (2 * d * d - d - 2)
    c_coeff = (d - 1) * (g - d)
    scale = (Fraction(1, 2) if 2 * d == g + 1 else Fraction(1)) * d * (g - d + 1)
    coeffs = [Fraction(0)] * g
    coeffs[g - 1] = scale * a_coeff
    coeffs[g - 2] = scale * b_coeff
    coeffs[g - 3] = scale * c_coeff
    return CycleClass(g, g + 1, tuple(coeffs))


@pytest.mark.parametrize("variant", ["proof", "statement"])
def test_integer_bipartition_matches_fraction_formula(variant):
    cases = [(g, d) for g in range(3, 21) for d in range(2, g)]
    for g, d in cases:
        assert bipartition_diagonal_class(g, d, variant) == _fraction_bipartition(g, d, variant), (g, d)
    # the halved classes at d = (g+1)/2 are among them
    assert sum(2 * d == g + 1 for g, d in cases) == 9


def test_bipartition_agreement_sweep():
    for g in range(3, 13):
        for d in range(2, g):
            closed = bipartition_diagonal_class(g, d)
            extracted = bipartition_diagonal_extraction(g, d)
            assert closed.coeffs == extracted.coeffs, (g, d)


def test_bipartition_range_errors():
    with pytest.raises(PreconditionError):
        bipartition_diagonal_class(4, 4)
    with pytest.raises(PreconditionError):
        bipartition_diagonal_extraction(4, 1)


# ------------------------------------------------------- ramification divisor


def test_ramification_examples():
    div = ramification_divisor_class(4, 3)
    assert (div.a, div.b) == (10, 12)
    div = ramification_divisor_class(5, 4)
    assert (div.a, div.b) == (14, 16)


def test_ramification_slope_at_top_index():
    for g in range(4, 31):
        div = ramification_divisor_class(g, g - 1)
        assert div.b / div.a == 1 + Fraction(1, 2 * g - 3)


def test_ramification_range_errors():
    with pytest.raises(PreconditionError):
        ramification_divisor_class(3, 2)
    with pytest.raises(PreconditionError):
        ramification_divisor_class(5, 5)


def test_solve_test_curve_system_spot_values():
    solution = solve_test_curve_system(4, 3)
    assert solution.x_curve_intersection == 28
    assert solution.diagonal_intersection == 324
    assert (solution.divisor.a, solution.divisor.b) == (10, 12)


def test_solved_system_matches_closed_form():
    for g in range(4, 13):
        for d in range(2, g):
            solved = solve_test_curve_system(g, d).divisor
            closed = ramification_divisor_class(g, d)
            assert solved.coeffs == closed.coeffs, (g, d)


def _fraction_test_curve_solution(g, d):
    """Reference: both sides and the 2x2 solve in chained Fraction divisions."""
    chi_side = (g - 2) * evaluate_top(
        multiply(small_diagonal_class(g, g - d + 1), subordinate_class(g, g - d + 1, 2 * g - d - 1, g - d))
    )
    diagonal_side = (1 + (2 * d == g + 1)) * evaluate_top(
        multiply(bipartition_diagonal_class(g, d), subordinate_class(g, g + 1, 2 * g - 2, g - 1))
    )
    a = (diagonal_side / d - chi_side) / (g * (d - 1))
    b = a * g - chi_side
    return catalog.TestCurveSolution(divisor_class(g, d, a, b), chi_side, diagonal_side)


@pytest.mark.parametrize("g", range(4, 41))
def test_integer_solve_matches_fraction_solve(g):
    for d in range(2, g):
        solution = solve_test_curve_system(g, d)
        expected = _fraction_test_curve_solution(g, d)
        assert solution == expected, (g, d)


def test_test_curve_solution_value_contract(value_contract):
    solution = solve_test_curve_system(4, 3)
    fields = {
        "divisor": solution.divisor,
        "x_curve_intersection": solution.x_curve_intersection,
        "diagonal_intersection": solution.diagonal_intersection,
    }
    expected = (
        "TestCurveSolution(divisor=DivisorClass(genus=4, d=3, coeffs=(Fraction(10, 1), Fraction(-12, 1))), "
        "x_curve_intersection=Fraction(28, 1), diagonal_intersection=Fraction(324, 1))"
    )
    value_contract(catalog.TestCurveSolution, fields, expected)


def test_diagonal_side_equals_direct_intersection():
    # the raw diagonal intersection is also d*(a*d*g - b), i.e. the direct
    # product of the small diagonal with the solved divisor on C_d
    for g, d in ((4, 3), (5, 3), (6, 4), (7, 2)):
        solution = solve_test_curve_system(g, d)
        direct = evaluate_top(multiply(small_diagonal_class(g, d), solution.divisor))
        assert direct == solution.diagonal_intersection, (g, d)


# ------------------------------------------------------ pencil-residual divisor


def test_pencil_residual_class_at_three():
    div = pencil_residual_divisor_class(3)
    assert div.coeffs == (Fraction(3), Fraction(-5))
    assert div.genus == 5 and div.d == 3


def test_pencil_residual_direction():
    for k in range(3, 51):
        div = pencil_residual_divisor_class(k)
        assert div.a > 0
        assert div.b / div.a == 2 - Fraction(1, k)


def test_pencil_residual_sums_are_signed():
    a_sum, b_sum = pencil_residual_sums(3)
    assert (a_sum, b_sum) == (6, -10)


def test_stepped_pencil_residual_sums_match_binomial_sums():
    for k in range(3, 61):
        a_sum = sum(
            (-1) ** l * (l + 1) * gen_binomial(2 * k - 4 - l, k - 2) * gen_binomial(2 * k - 2, l + 3)
            for l in range(k - 1)
        )
        b_sum = sum(
            (-1) ** l * l * (l + 1) * gen_binomial(2 * k - 4 - l, k - 2) * gen_binomial(2 * k - 1, l + 3)
            for l in range(k - 1)
        )
        assert pencil_residual_sums(k) == (a_sum, b_sum), k


def test_pencil_residual_needs_k_three():
    with pytest.raises(PreconditionError):
        pencil_residual_divisor_class(2)


# ------------------------------------------------------ hyperelliptic pencil locus


def test_hyperelliptic_pencil_locus_examples():
    assert hyperelliptic_pencil_locus_class(5, 3).coeffs == (Fraction(1), Fraction(-3))
    assert hyperelliptic_pencil_locus_class(4, 4).coeffs == (Fraction(1), Fraction(-1))


def test_hyperelliptic_pencil_locus_closed_form_sweep():
    for g in range(2, 21):
        for d in range(2, g + 1):
            locus = hyperelliptic_pencil_locus_class(g, d)
            assert locus.coeffs == divisor_class(g, d, 1, g - d + 1).coeffs, (g, d)


def test_hyperelliptic_pencil_locus_range():
    with pytest.raises(PreconditionError):
        hyperelliptic_pencil_locus_class(4, 5)


# ------------------------------------------------------------ pencil intersections


def test_pencil_intersections_values():
    assert subordinate_pencil_intersections(3) == (5, 3)
    assert subordinate_pencil_intersections(2) == (3, 2)


def test_pencil_intersections_match_evaluation():
    for k in range(2, 61):
        g = 2 * k - 1
        locus = subordinate_class(g, k, k + 1, 1)
        theta_value = evaluate_top(multiply(locus, theta_class(g, k)))
        x_value = evaluate_top(multiply(locus, x_class(g, k)))
        assert subordinate_pencil_intersections(k) == (theta_value, x_value)
        assert (theta_value, x_value) == (2 * k - 1, k)
        assert (evaluate_top(locus, theta_class(g, k)), evaluate_top(locus, x_class(g, k))) == (2 * k - 1, k)


def test_stepped_pencil_intersections_match_binomial_sums():
    for k in range(2, 61):
        theta_sum = sum(
            (-1) ** j * gen_binomial(k - 2 + j, j) * gen_binomial(2 * k - 2, k - 1 - j) for j in range(k)
        )
        x_sum = sum((-1) ** j * gen_binomial(k - 2 + j, j) * gen_binomial(2 * k - 1, k - 1 - j) for j in range(k))
        assert subordinate_pencil_intersections(k) == ((2 * k - 1) * theta_sum, x_sum), k


def test_pencil_orthogonality():
    for k in range(2, 101):
        g = 2 * k - 1
        locus = subordinate_class(g, k, k + 1, 1)
        orthogonal = divisor_class(g, k, 1, 2 - Fraction(1, k))
        assert evaluate_top(multiply(locus, orthogonal)) == 0


# ------------------------------------------------------------ convolution identity


def test_convolution_identity_values():
    assert binomial_convolution_identity(1) == (30, 30)
    lhs, rhs = binomial_convolution_identity(2)
    assert lhs == rhs == 336


def test_convolution_identity_sweep():
    for m in range(1, 201):
        lhs, rhs = binomial_convolution_identity(m)
        assert lhs == rhs, m


def test_stepped_convolution_sums_match_binomial_sums():
    # Every m up to 250, then every 10th up to the stress bound of 400; every
    # m to 400 would take about 3 s.
    for m in [*range(1, 251), *range(260, 401, 10)]:
        lhs = (2 * m + 3) * sum(
            (-1) ** l * (l + 1) * gen_binomial(2 * m - l, m) * gen_binomial(2 * m + 2, l + 3)
            for l in range(m + 1)
        )
        rhs = -(m + 2) * sum(
            (-1) ** l * l * (l + 1) * gen_binomial(2 * m - l, m) * gen_binomial(2 * m + 3, l + 3)
            for l in range(m + 1)
        )
        assert binomial_convolution_identity(m) == (lhs, rhs), m


def test_convolution_links_to_pencil_residual():
    # (2k-1) * A = -k * B at m = k-2
    for k in range(3, 51):
        a_sum, b_sum = pencil_residual_sums(k)
        assert (2 * k - 1) * a_sum == -k * b_sum
