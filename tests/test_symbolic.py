"""Symbolic proofs, for every parameter value, of identities the library sweeps.

sympy closes the binomial sums by Gosper's and Zeilberger's methods
(Petkovsek-Wilf-Zeilberger, *A = B*, 1996).  The convolution sums call
Gosper's algorithm directly, which takes about a third of the time
``sympy.summation`` spends trying other methods first.  Symbolic summation
has returned wrong closed forms before, so each closed form is also checked
against the library's integer kernel at a few points.
"""

import pytest
import sympy
from sympy import binomial, factorial
from sympy.concrete.gosper import gosper_sum

from symcd.catalog import (
    _residual_sums,
    bipartition_diagonal_extraction,
    binomial_convolution_identity,
    subordinate_pencil_intersections,
)

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
