"""Acceptance suite: every exit criterion, at exact (zero) tolerance.

Each test re-derives one headline computation over its full stated parameter
range and prints a PASS line on success; pytest reports any failure as usual.
Everything here goes through the public API and the verification module, and
all comparisons are exact rational equalities.
"""

from fractions import Fraction
from math import factorial

import pytest

from symcd import (
    CurveContext,
    CurveType,
    Membership,
    Ray,
    bipartition_diagonal_class,
    bipartition_diagonal_extraction,
    divisor_class,
    effective_cone,
    effective_slope_bound,
    evaluate_top,
    pencil_residual_divisor_class,
    residuation_pullback,
    solve_test_curve_system,
    subordinate_class,
    volume_general,
    volume_hyperelliptic,
    volume_integrality,
)
from symcd.verify import (
    CheckStatus,
    check_combsum,
    check_diagonal_agreement,
    check_dd_system,
    check_orth,
    check_pencil_residual_link,
    check_volume_identity,
    diagonal_statement_discrepancy,
    pencil_expansion_polynomial,
    volume_polynomial,
)


def _report(number: int, text: str) -> None:
    print(f"acceptance criterion {number:2d}: PASS  {text}")


def test_criterion_01_subordinate_residual_class():
    for g in range(4, 21):
        cls = subordinate_class(g, g - 1, 2 * g - 3, g - 2)
        assert cls.coeffs == (Fraction(1), Fraction(-1)), g
    _report(1, "subordinate class is theta - x for 4 <= g <= 20")


def test_criterion_02_test_curve_system():
    report = check_dd_system(20)
    assert report.status is CheckStatus.PASS, report
    for g in range(4, 21):
        for d in range(2, g):
            solved = solve_test_curve_system(g, d).divisor
            assert solved.a == (g - d + 1) * (g * g - d * g + d - 2), (g, d)
            assert solved.b == (g - d + 1) * (g * g - (d - 1) * g - 2), (g, d)
            assert solved.b / solved.a == effective_slope_bound(g, d), (g, d)
    spot = solve_test_curve_system(4, 3)
    assert spot.x_curve_intersection == 28
    assert spot.diagonal_intersection == 324
    assert (spot.divisor.a, spot.divisor.b) == (10, 12)
    _report(2, "test-curve system solves to the closed form for 4 <= g <= 20; spot (4,3) = (28, 324, (10,12))")


def test_criterion_03_diagonal_oracle():
    report = check_diagonal_agreement(12)
    assert report.status is CheckStatus.PASS, report
    for g in range(3, 13):
        for d in range(2, g):
            assert (
                bipartition_diagonal_class(g, d).coeffs
                == bipartition_diagonal_extraction(g, d).coeffs
            ), (g, d)
    spot = bipartition_diagonal_class(4, 3)
    assert spot.coeffs == (Fraction(0), Fraction(12), Fraction(-90), Fraction(228))
    discrepancy = diagonal_statement_discrepancy()
    assert discrepancy.status is CheckStatus.DISCREPANCY
    statement = bipartition_diagonal_class(4, 3, variant="statement")
    assert statement.coeffs[2] == -102 and spot.coeffs[2] == -90
    _report(3, "extraction oracle matches the closed form for 3 <= g <= 12; statement variant documented")


def test_criterion_04_convolution_identity_and_link():
    assert check_combsum(200).status is CheckStatus.PASS
    assert check_pencil_residual_link(50).status is CheckStatus.PASS
    div = pencil_residual_divisor_class(3)
    assert div.coeffs == (Fraction(3), Fraction(-5))
    for k in range(3, 51):
        assert Ray.from_class(pencil_residual_divisor_class(k)) == Ray(k, -(2 * k - 1)), k
    _report(4, "convolution identity holds to m = 200 and links to the pencil-residual class; E_(3) = 3*theta - 5*x")


def test_criterion_05_pencil_intersections():
    assert check_orth(100).status is CheckStatus.PASS
    _report(5, "pencil-subordinate intersections are (2k-1, k) with exact orthogonality for 2 <= k <= 100")


def test_criterion_06_volume_polynomial_identity():
    assert check_volume_identity(20).status is CheckStatus.PASS
    for g in range(4, 21):
        assert pencil_expansion_polynomial(g) == volume_polynomial(g), g
        assert volume_general(g, 1) == 1, g
    assert volume_general(4, Fraction(1, 2)) == Fraction(73, 8)
    _report(6, "volume formula equals the pencil expansion for 4 <= g <= 20; vol(1) = 1, vol_4(1/2) = 73/8")


def test_criterion_07_hyperelliptic_volume_and_integrality():
    for g in range(4, 21):
        assert volume_hyperelliptic(g, g - 1, 1) == Fraction(factorial(g), 2 ** (g - 1)), g
    assert volume_hyperelliptic(4, 3, 1) == 3
    assert volume_hyperelliptic(5, 4, 1) == Fraction(15, 2)
    for g in range(2, 65):
        value, integral = volume_integrality(g)
        two_adic_valuation = g - bin(g).count("1")  # Legendre's formula for v_2(g!)
        assert integral == (two_adic_valuation >= g - 1), g
        assert integral == (bin(g).count("1") == 1), g
    _report(7, "hyperelliptic volume g!/2^(g-1) for 4 <= g <= 20; integral iff g is a power of 2 up to 64")


def test_criterion_08_cone_catalog():
    for g in range(2, 21):
        for d in range(2, g + 1):
            cone = effective_cone(CurveContext(g, d, CurveType.HYPERELLIPTIC))
            assert cone.upper == Ray(-1, g + d - 1), (g, d)
            assert cone.lower == Ray(1, -(g - d + 1)), (g, d)
    for g in range(4, 21):
        cone = effective_cone(CurveContext(g, g - 1, CurveType.GENERAL))
        assert cone.upper == Ray(-1, 2 * g - 2), g
        assert cone.lower == Ray(2 * g - 3, -(2 * g - 2)), g
    genus5 = effective_cone(CurveContext(5, 3, CurveType.GENERAL))
    assert genus5.upper == Ray(-1, 7)
    assert genus5.lower == Ray(3, -5)
    # membership agrees with the ray geometry
    corollary_cone = effective_cone(CurveContext(6, 5, CurveType.GENERAL))
    assert corollary_cone.membership(divisor_class(6, 5, 1, 1)) is Membership.INSIDE
    boundary = divisor_class(6, 5, 1, 1 + Fraction(1, 9))
    assert corollary_cone.membership(boundary) is Membership.BOUNDARY
    assert corollary_cone.membership(divisor_class(6, 5, 1, 2)) is Membership.OUTSIDE
    hyper = effective_cone(CurveContext(5, 3, CurveType.HYPERELLIPTIC))
    assert hyper.membership(divisor_class(5, 3, 1, 4)) is Membership.OUTSIDE
    assert hyper.membership(divisor_class(5, 3, -1, -7)) is Membership.BOUNDARY
    _report(8, "cone rays match on all stated families and membership answers are consistent")


def test_criterion_09_residuation():
    grid = [Fraction(n, 3) for n in range(-6, 7)]
    for a in grid:
        for b in grid:
            assert residuation_pullback(*residuation_pullback(a, b)) == (a, b)
    assert residuation_pullback(1, 0) == (1, 0)  # theta |-> theta
    assert residuation_pullback(0, 1) == (1, -1)  # x |-> theta - x
    for t in grid:
        assert residuation_pullback(1, -t) == (1 - t, t)  # theta - t*x |-> (1-t)*theta + t*x
    for bad in ((0.5, 1), (1, 0.5)):
        with pytest.raises(TypeError):
            residuation_pullback(*bad)
    _report(9, "residuation is an involution: theta |-> theta, x |-> theta - x, theta - t*x |-> (1-t)theta + t*x")


def test_criterion_10_non_nef_witness():
    assert evaluate_top(divisor_class(4, 3, 1, 1) ** 3) == -1
    assert volume_general(4, 1) == 1
    negative = evaluate_top(divisor_class(5, 3, 1, Fraction(5, 3)) ** 3)
    assert negative == Fraction(-80, 27)
    assert negative < 0
    _report(10, "top self-intersection -1 vs volume 1 at g = 4; (theta - 5/3 x)^3 = -80/27 < 0")
