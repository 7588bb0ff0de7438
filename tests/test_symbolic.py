"""Symbolic proofs, for every parameter value, of identities the library sweeps.

sympy closes the binomial sums by Gosper's and Zeilberger's methods
(Petkovsek-Wilf-Zeilberger, *A = B*, 1996), and the volume identity by
induction, since it is the binomial theorem.  The convolution sums call
Gosper's algorithm directly, which takes about a third of the time
``sympy.summation`` spends trying other methods first.  Symbolic summation
has returned wrong closed forms before, so each closed form is also checked
against the library's integer kernel at a few points.
"""

from fractions import Fraction

import pytest
import sympy
from sympy import binomial, factorial
from sympy.concrete.gosper import gosper_sum

from symcd.catalog import (
    _residual_sums,
    bipartition_diagonal_class,
    bipartition_diagonal_extraction,
    binomial_convolution_identity,
    hyperelliptic_pencil_locus_class,
    ramification_divisor_class,
    subordinate_class,
    subordinate_pencil_intersections,
)
from symcd.cones import effective_slope_bound
from symcd.cycles import evaluate_top, theta_class, x_class
from symcd.verify import pencil_expansion_polynomial, volume_polynomial

m, k, j, l = sympy.symbols("m k j l", integer=True, positive=True)


# ------------------------------------------------------------ convolution identity

# The two pencil-residual sums of _residual_sums, closed for every m >= 1.
CONVOLUTION_A = 4 * factorial(2 * m + 1) / ((m + 3) * factorial(m) * factorial(m - 1))
CONVOLUTION_B = -4 * (2 * m + 3) * factorial(2 * m + 1) / ((m + 2) * (m + 3) * factorial(m) * factorial(m - 1))
KERNEL_POINTS = (1, 2, 3, 10, 50)


@pytest.fixture(scope="module")
def convolution_sums():
    """Gosper's closed forms of A(m) and B(m), summed over 0 <= l <= m."""
    a_sum = gosper_sum((-1) ** l * (l + 1) * binomial(2 * m - l, m) * binomial(2 * m + 2, l + 3), (l, 0, m))
    b_sum = gosper_sum((-1) ** l * l * (l + 1) * binomial(2 * m - l, m) * binomial(2 * m + 3, l + 3), (l, 0, m))
    return a_sum, b_sum


def _vanishes(expression) -> bool:
    return sympy.simplify(sympy.gammasimp(expression)) == 0


def test_convolution_sums_close_to_the_stated_forms(convolution_sums):
    a_sum, b_sum = convolution_sums
    # gosper_sum returns None for a sum it cannot close
    assert a_sum is not None and b_sum is not None
    assert _vanishes(a_sum - CONVOLUTION_A)
    assert _vanishes(b_sum - CONVOLUTION_B)


def test_convolution_identity_holds_for_every_m(convolution_sums):
    a_sum, b_sum = convolution_sums
    assert _vanishes((2 * m + 3) * CONVOLUTION_A + (m + 2) * CONVOLUTION_B)
    assert _vanishes((2 * m + 3) * a_sum + (m + 2) * b_sum)


@pytest.mark.parametrize("point", KERNEL_POINTS)
def test_convolution_closed_forms_match_the_kernel(convolution_sums, point):
    kernel = _residual_sums(point)
    for closed in (*convolution_sums, CONVOLUTION_A, CONVOLUTION_B):
        assert closed.subs(m, point) != 0
    assert (CONVOLUTION_A.subs(m, point), CONVOLUTION_B.subs(m, point)) == kernel
    assert tuple(sympy.gammasimp(s.subs(m, point)) for s in convolution_sums) == kernel
    lhs, rhs = binomial_convolution_identity(point)
    assert lhs == rhs == (2 * point + 3) * kernel[0]


def test_residual_term_factors_through_one_common_binomial():
    # Trinomial revision: _residual_sums steps C(m+3, l+3) and applies
    # C(2m+2, m+3) once, at the end.
    term = binomial(2 * m - l - 1, m - 1) * binomial(2 * m + 2, l + 3)
    assert _vanishes(term - binomial(2 * m + 2, m + 3) * binomial(m + 3, l + 3))


# ------------------------------------------------------------ pencil sums


@pytest.fixture(scope="module")
def pencil_sums():
    """sympy's closed forms of the theta- and x-sums, over 0 <= j <= k-1."""
    return tuple(
        sympy.summation((-1) ** j * binomial(k - 2 + j, j) * binomial(top, k - 1 - j), (j, 0, k - 1))
        for top in (2 * k - 2, 2 * k - 1)
    )


def test_pencil_sums_close_to_one_and_k(pencil_sums):
    theta, x = pencil_sums
    assert sympy.simplify(theta) == 1
    assert sympy.simplify(x) == k


@pytest.mark.parametrize("point", (2, 3, 5, 10, 40))
def test_pencil_closed_forms_match_the_kernel(pencil_sums, point):
    theta, x = (sympy.simplify(s.subs(k, point)) for s in pencil_sums)
    assert (theta, x) == (1, point)
    assert subordinate_pencil_intersections(point) == ((2 * point - 1) * theta, x)


def test_pencil_theta_term_is_a_multiple_of_the_x_term():
    # subordinate_pencil_intersections steps only the x term and weights it
    # by k+j for the theta value.
    assert _vanishes((2 * k - 1) * binomial(2 * k - 2, k - 1 - j) - (k + j) * binomial(2 * k - 1, k - 1 - j))


# ------------------------------------------------------------ [t1*t2] closed form

n_, m_, a_, b_, c_, e_, t1, t2 = sympy.symbols("n m a b c e t1 t2")
MIXED = sympy.diff((1 + a_ * t1 + b_ * t2) ** n_ * (1 + c_ * t1 + e_ * t2) ** m_, t1, t2).subs({t1: 0, t2: 0})


def test_mixed_coefficient_closed_form_for_every_exponent():
    closed = n_ * (n_ - 1) * a_ * b_ + m_ * (m_ - 1) * c_ * e_ + n_ * m_ * (a_ * e_ + b_ * c_)
    assert sympy.expand(MIXED - closed) == 0


def _extraction_from_the_mixed_derivative(g, d):
    """The two-part diagonal's coefficients, each [t1*t2] the derivative above."""
    u, v = g - d + 1, d
    mixed = [
        MIXED.subs({n_: 2 - g + beta, m_: g - beta, a_: u, b_: v, c_: u * u, e_: v * v}) for beta in range(g)
    ]
    scale = sympy.Rational(1, 2) if 2 * d == g + 1 else 1
    coeffs = [0] * g
    for alpha in range(g):
        coeffs[g - 1 - alpha] = scale * sum(
            sympy.Rational((-1) ** (alpha + beta), factorial(beta) * factorial(alpha - beta)) * mixed[beta]
            for beta in range(alpha + 1)
        )
    return coeffs


@pytest.mark.parametrize("g, d", [(3, 2), (4, 3), (5, 3), (7, 2), (9, 6)])
def test_mixed_derivative_reproduces_the_diagonal_extraction(g, d):
    expected = _extraction_from_the_mixed_derivative(g, d)
    assert any(expected)
    assert list(bipartition_diagonal_extraction(g, d).coeffs) == expected


# ------------------------------------------------------------ divisor classes in g and d

g_, d_ = sympy.symbols("g d", integer=True, positive=True)


def _subordinate_formula(g, d, n, r):
    """The coefficients of sum_k C(n-g-r, k) x^k theta^(d-r-k) / (d-r-k)!, the
    degeneracy-locus class of the locus subordinate to a g^r_n on C_d, for a
    codimension d - r that is a number."""
    codim = sympy.simplify(d - r)
    assert codim.is_Integer
    return [sympy.expand_func(binomial(n - g - r, k)) / factorial(codim - k) for k in range(codim + 1)]


def test_hyperelliptic_pencil_locus_is_theta_minus_g_minus_d_plus_one_x():
    # the (d-1)-st power of the hyperelliptic pencil is a g^(d-1)_(2d-2)
    coeffs = _subordinate_formula(g_, d_, 2 * (d_ - 1), d_ - 1)
    assert [sympy.simplify(c) for c in coeffs] == [1, -(g_ - d_ + 1)]


@pytest.mark.parametrize("g, d", [(2, 2), (5, 2), (5, 5), (9, 4), (40, 17)])
def test_hyperelliptic_closed_form_matches_the_kernel(g, d):
    point = {g_: g, d_: d}
    formula = [c.subs(point) for c in _subordinate_formula(g_, d_, 2 * (d_ - 1), d_ - 1)]
    assert list(subordinate_class(g, d, 2 * (d - 1), d - 1).coeffs) == formula
    assert list(hyperelliptic_pencil_locus_class(g, d).coeffs) == formula == [1, d - g - 1]


# The ramification divisor a*theta - b*x, as its docstring states it.
RAMIFICATION_A = (g_ - d_ + 1) * (g_**2 - d_ * g_ + d_ - 2)
RAMIFICATION_B = (g_ - d_ + 1) * (g_**2 - (d_ - 1) * g_ - 2)
SLOPE_BOUND = 1 + (g_ - d_) / (g_**2 - d_ * g_ + d_ - 2)


def test_ramification_slope_is_the_effective_bound_as_a_rational_function():
    assert sympy.cancel(RAMIFICATION_B / RAMIFICATION_A - SLOPE_BOUND) == 0


def test_ramification_closed_form_matches_the_kernel():
    # The kernel's a and b are polynomials of degree at most 3 in each of g
    # and d, so agreeing on a 4 x 4 grid they agree everywhere.
    for g in range(10, 14):
        for d in range(2, 6):
            point = {g_: g, d_: d}
            divisor = ramification_divisor_class(g, d)
            theta, x = divisor.numerators
            assert divisor.denominator == 1
            assert (theta, -x) == (RAMIFICATION_A.subs(point), RAMIFICATION_B.subs(point))
            assert effective_slope_bound(g, d) == SLOPE_BOUND.subs(point) == Fraction(-x, theta)


# ------------------------------------------------------------ two-part diagonal in g and d

beta_, p_, q_ = sympy.symbols("beta p q", integer=True, nonnegative=True)
# f(beta) of bipartition_diagonal_extraction, by the mixed coefficient proved above.
DIAGONAL_F = MIXED.subs(
    {n_: 2 - g_ + beta_, m_: g_ - beta_, a_: g_ - d_ + 1, b_: d_, c_: (g_ - d_ + 1) ** 2, e_: d_**2}
)
# bipartition_diagonal_class as its docstring states it, and the statement variant's B.
DIAGONAL_SCALE = d_ * (g_ - d_ + 1)
DIAGONAL_A = (d_ - 1) * g_**3 - (d_**2 - 2) * g_**2 + (d_**2 - d_ - 1) * g_ + 2
DIAGONAL_B = (2 - 2 * d_) * g_**2 + (2 * d_**2 - 3) * g_ - (2 * d_**2 - 2 * d_ - 1)
DIAGONAL_B_STATEMENT = (2 - 2 * d_) * g_**2 + (2 * d_**2 - 3) * g_ - (2 * d_**2 - d_ - 2)
DIAGONAL_C = (d_ - 1) * (g_ - d_)


def test_two_part_diagonal_extraction_is_the_closed_form_for_every_g_and_d():
    # The extraction's coefficient of x^(g-1-alpha) theta^alpha is the alpha-th
    # forward difference of f at 0 over alpha!, and the closed form's is scale
    # times A, B, C and then 0; the halving is the same factor on both sides.
    differences = [sympy.expand(DIAGONAL_F)]
    for _ in range(3):
        differences.append(sympy.expand(differences[-1].subs(beta_, beta_ + 1) - differences[-1]))
    # f is quadratic in beta, so its third difference, and every later one, is 0.
    assert sympy.degree(differences[0], beta_) == 2 and differences[3] == 0
    closed = (DIAGONAL_SCALE * DIAGONAL_A, DIAGONAL_SCALE * DIAGONAL_B, 2 * DIAGONAL_SCALE * DIAGONAL_C)
    assert [sympy.expand(f.subs(beta_, 0) - c) for f, c in zip(differences, closed)] == [0, 0, 0]


def test_two_part_diagonal_statement_variant_differs_for_every_g_and_d():
    gap = sympy.expand(DIAGONAL_SCALE * (DIAGONAL_B_STATEMENT - DIAGONAL_B))
    assert sympy.expand(gap + DIAGONAL_SCALE * (d_ - 1)) == 0
    # On the range d = 2 + p, g = d + 1 + q with p, q >= 0, -gap is a polynomial
    # with positive coefficients and a positive constant, so it is never 0.
    shifted = sympy.Poly(-gap.subs(g_, d_ + 1 + q_).subs(d_, 2 + p_), p_, q_)
    assert shifted.coeff_monomial(1) > 0 and all(c > 0 for c in shifted.coeffs())


@pytest.mark.parametrize("g, d", [(3, 2), (5, 3), (4, 3), (7, 2), (12, 5)])
def test_two_part_diagonal_closed_forms_match_the_kernels(g, d):
    point = {g_: g, d_: d}
    halving = 2 if 2 * d == g + 1 else 1
    scale, a, b, c = (sympy.Rational(e.subs(point)) for e in (DIAGONAL_SCALE, DIAGONAL_A, DIAGONAL_B, DIAGONAL_C))
    expected = [0] * (g - 3) + [scale * c / halving, scale * b / halving, scale * a / halving]
    assert list(bipartition_diagonal_class(g, d).coeffs) == expected
    assert list(bipartition_diagonal_extraction(g, d).coeffs) == expected
    expected[g - 2] -= scale * (d - 1) / halving
    assert expected[g - 2] == scale * DIAGONAL_B_STATEMENT.subs(point) / halving
    assert list(bipartition_diagonal_class(g, d, "statement").coeffs) == expected


# ------------------------------------------------------------ volume identity

t_, u_ = sympy.symbols("t u")
n_exp = sympy.symbols("n", integer=True, nonnegative=True)
k_exp = sympy.symbols("k", integer=True, nonnegative=True)


def _binomial_term(n, k):
    """C(n, k) t^k u^(n-k): with u = 1 - t, the coefficient of x^k theta^(n-k)
    in ((1-t)theta + t*x)^n, as the induction below shows."""
    return binomial(n, k) * t_**k * u_ ** (n - k)


# The volume polynomial as volume_polynomial states it, term k of the sum.
VOLUME_TERM = (
    binomial(g_ - 1, k_exp) * factorial(g_) / factorial(k_exp + 1) * t_**k_exp * u_ ** (g_ - 1 - k_exp)
)


def test_volume_identity_holds_for_every_g():
    # The binomial theorem, by induction on n.  At n = 0 the power is 1.  One
    # more factor (1-t)theta + t*x sends the coefficient of x^k theta^(n-k)
    # to u times it plus t times that of x^(k-1) theta^(n-k+1), the step
    # pencil_expansion_polynomial takes; the terms satisfy it for every n
    # and k, as polynomials in t and u.
    assert [_binomial_term(0, k) for k in range(3)] == [1, 0, 0]
    step = (
        _binomial_term(n_exp + 1, k_exp) - t_ * _binomial_term(n_exp, k_exp - 1) - u_ * _binomial_term(n_exp, k_exp)
    )
    assert sympy.simplify(sympy.combsimp(step / (t_**k_exp * u_ ** (n_exp + 1 - k_exp)))) == 0
    assert sympy.simplify(step.subs(k_exp, 0)) == 0
    # Poincare's formula x^k theta^(d-k) = g!/(g-d+k)! on C_d, at d = g-1.
    poincare = factorial(g_) / factorial(g_ - (g_ - 1) + k_exp)
    assert sympy.simplify(poincare - factorial(g_) / factorial(k_exp + 1)) == 0
    # Evaluating ((1-t)theta + t*x)^(g-1) term by term gives the volume sum.
    assert sympy.simplify(_binomial_term(g_ - 1, k_exp) * poincare - VOLUME_TERM) == 0


@pytest.mark.parametrize("g", (4, 5, 10, 20))
def test_volume_closed_form_matches_the_kernels(g):
    volume = sympy.Poly(sum(VOLUME_TERM.subs({g_: g, k_exp: k, u_: 1 - t_}) for k in range(g)), t_)
    coefficients = volume.all_coeffs()[::-1]
    assert coefficients == volume_polynomial(g) == pencil_expansion_polynomial(g)
    assert sum(coefficients) == 1
    d = g - 1
    for k in range(g):
        monomial = x_class(g, d) ** k * theta_class(g, d) ** (d - k)
        assert evaluate_top(monomial) == factorial(g) / factorial(k + 1)
