import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcd.cones import (
    Cone2D,
    ConeStatus,
    CurveContext,
    CurveType,
    Membership,
    NefFacts,
    Ray,
    effective_cone,
    effective_slope_bound,
    general_volume_limit,
    hyperelliptic_volume_limit,
    nef_facts,
    volume_general,
    volume_hyperelliptic,
    volume_integrality,
)
from symcd.catalog import hyperelliptic_pencil_locus_class
from symcd.combinatorics import gen_binomial
from symcd.cycles import CycleClass, divisor_class, theta_class, x_class
from symcd.errors import OutOfProvenDomainError, PreconditionError


def _general(g, d):
    return CurveContext(g, d, CurveType.GENERAL)


def _hyperelliptic(g, d):
    return CurveContext(g, d, CurveType.HYPERELLIPTIC)


# ------------------------------------------------------------------------ rays


def test_ray_normalizes_to_primitive():
    assert Ray(2, -4) == Ray(1, -2)
    assert Ray(-3, 21) == Ray(-1, 7)
    assert Ray.from_rationals(1, Fraction(-6, 5)) == Ray(5, -6)
    assert str(Ray(-1, 7)) == "-theta + 7*x"
    assert str(Ray(1, 0)) == "theta"
    assert str(Ray(3, -5)) == "3*theta - 5*x"
    assert str(Ray(0, -1)) == "-x"


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
def test_ray_from_class_matches_the_ray_of_its_coefficients(a, b):
    if a or b:
        assert Ray.from_class(divisor_class(6, 4, a, b)) == Ray.from_rationals(a, -b)


def test_ray_from_class_refuses_classes_that_are_not_divisors():
    for cls in (CycleClass(6, 4, [1]), theta_class(6, 4) ** 2):  # codimension 0 and 2
        with pytest.raises(PreconditionError, match="only divisor classes span rays"):
            Ray.from_class(cls)


def test_ray_rejects_zero():
    with pytest.raises(PreconditionError):
        Ray(0, 0)


def test_ray_keeps_orientation():
    # rays are half-lines: opposite directions are different rays
    assert Ray(-1, 7) != Ray(1, -7)


# --------------------------------------------------------------- slope bound


def test_slope_bound_values():
    assert effective_slope_bound(4, 3) == Fraction(6, 5)
    assert effective_slope_bound(5, 4) == Fraction(8, 7)
    for g in range(4, 31):
        assert effective_slope_bound(g, g - 1) == 1 + Fraction(1, 2 * g - 3)


def test_slope_bound_range():
    with pytest.raises(PreconditionError):
        effective_slope_bound(3, 2)
    with pytest.raises(PreconditionError):
        effective_slope_bound(5, 5)


# ------------------------------------------------------------ effective cones


def test_hyperelliptic_cone_is_exact():
    cone = effective_cone(_hyperelliptic(5, 3))
    assert cone.status is ConeStatus.EXACT
    assert cone.upper == Ray(-1, 7)
    assert cone.lower == Ray(1, -3)
    assert cone.lower_outer is None


def test_hyperelliptic_cone_sweep_matches_pencil_locus():
    for g in range(2, 21):
        for d in range(2, g + 1):
            cone = effective_cone(_hyperelliptic(g, d))
            assert cone.upper == Ray(-1, g + d - 1)
            assert cone.lower == Ray.from_class(hyperelliptic_pencil_locus_class(g, d))


def test_top_symmetric_power_cone_is_exact():
    cone = effective_cone(_general(4, 3))
    assert cone.status is ConeStatus.EXACT
    assert cone.upper == Ray(-1, 6)
    assert cone.lower == Ray(5, -6)


def test_genus_five_third_power_cone_is_exact():
    cone = effective_cone(_general(5, 3))
    assert cone.status is ConeStatus.EXACT
    assert cone.upper == Ray(-1, 7)
    assert cone.lower == Ray(3, -5)


def test_bracket_cone_with_kouvidakis_inner_bound():
    # 3 <= d <= g/2: theta - 2x beats the ramification slope
    cone = effective_cone(_general(8, 4))
    assert cone.status is ConeStatus.BRACKET
    assert cone.lower == Ray(1, -2)
    assert cone.lower_outer == Ray(1, -5)
    assert cone.upper == Ray(-1, 11)


def test_bracket_cone_with_pencil_residual_inner_bound():
    # (g, d) = (2k-1, k), k = 4: inner slope 2 - 1/4
    cone = effective_cone(_general(7, 4))
    assert cone.status is ConeStatus.BRACKET
    assert cone.lower == Ray(4, -7)
    assert cone.lower_outer == Ray(1, -4)


def test_bracket_cone_with_ramification_inner_bound():
    cone = effective_cone(_general(9, 7))
    assert cone.status is ConeStatus.BRACKET
    assert cone.lower == Ray.from_rationals(1, -effective_slope_bound(9, 7))
    assert cone.lower == Ray(23, -25)
    assert cone.lower_outer == Ray(1, -3)


def test_effective_cone_range_errors():
    with pytest.raises(PreconditionError):
        effective_cone(_general(3, 2))
    with pytest.raises(PreconditionError):
        effective_cone(_general(5, 5))
    with pytest.raises(PreconditionError):
        effective_cone(_hyperelliptic(4, 5))


# ----------------------------------------------------------------- membership


def test_membership_in_exact_cone():
    g = 6
    cone = effective_cone(_general(g, g - 1))
    assert cone.membership(divisor_class(g, g - 1, 1, 1)) is Membership.INSIDE
    boundary = divisor_class(g, g - 1, 1, 1 + Fraction(1, 2 * g - 3))
    assert cone.membership(boundary) is Membership.BOUNDARY
    assert cone.membership(divisor_class(g, g - 1, 1, 2)) is Membership.OUTSIDE


def test_membership_hyperelliptic_outside():
    cone = effective_cone(_hyperelliptic(5, 3))
    assert cone.membership(divisor_class(5, 3, 1, 4)) is Membership.OUTSIDE
    assert cone.membership(divisor_class(5, 3, 1, 3)) is Membership.BOUNDARY
    assert cone.membership(divisor_class(5, 3, 1, 2)) is Membership.INSIDE


def test_membership_in_bracket_cone():
    cone = effective_cone(_general(8, 4))  # inner theta - 2x, outer theta - 5x
    assert cone.membership(divisor_class(8, 4, 1, 1)) is Membership.INSIDE
    assert cone.membership(divisor_class(8, 4, 1, 3)) is Membership.UNDETERMINED
    assert cone.membership(divisor_class(8, 4, 1, 2)) is Membership.UNDETERMINED
    assert cone.membership(divisor_class(8, 4, 1, 5)) is Membership.UNDETERMINED
    assert cone.membership(divisor_class(8, 4, 1, 6)) is Membership.OUTSIDE
    # the diagonal side is exact even in bracket status
    assert cone.membership(divisor_class(8, 4, -1, -11)) is Membership.BOUNDARY
    assert cone.membership(divisor_class(8, 4, -1, -10)) is Membership.OUTSIDE


def test_membership_rejects_foreign_classes():
    cone = effective_cone(_general(6, 5))
    with pytest.raises(PreconditionError):
        cone.membership(divisor_class(6, 4, 1, 1))
    with pytest.raises(PreconditionError):
        cone.membership(divisor_class(7, 5, 1, 1))


def test_membership_refuses_classes_that_are_not_divisors():
    cone = effective_cone(_general(6, 5))
    for cls in (CycleClass(6, 5, [1]), theta_class(6, 5) * x_class(6, 5)):  # codimension 0 and 2
        with pytest.raises(PreconditionError, match="divisor classes only"):
            cone.membership(cls)


positive_weights = st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50)


@given(positive_weights, positive_weights)
def test_membership_of_positive_combinations(alpha, beta):
    cone = effective_cone(_hyperelliptic(6, 4))
    combo = divisor_class(
        6,
        4,
        alpha * cone.upper.theta + beta * cone.lower.theta,
        -(alpha * cone.upper.x + beta * cone.lower.x),
    )
    assert cone.membership(combo) is Membership.INSIDE


def _fraction_membership(cone, divisor):
    """Membership by solving divisor = alpha*upper + beta*lower in Fractions
    (Cramer's rule) and testing the signs of alpha and beta: the reference for
    the integer sign tests of ``Cone2D.membership``."""

    def decompose(upper, lower):
        theta, x = divisor.coeffs
        det = Fraction(upper.theta * lower.x - upper.x * lower.theta)
        return (theta * lower.x - x * lower.theta) / det, (upper.theta * x - upper.x * theta) / det

    def locate(lower):
        alpha, beta = decompose(cone.upper, lower)
        if alpha > 0 and beta > 0:
            return Membership.INSIDE
        if alpha < 0 or beta < 0:
            return Membership.OUTSIDE
        return Membership.BOUNDARY

    inner = locate(cone.lower)
    if cone.status is ConeStatus.EXACT or inner is Membership.INSIDE:
        return inner
    if inner is Membership.BOUNDARY:
        # settled on the upper ray and at the apex, not on the inner ray
        return Membership.BOUNDARY if decompose(cone.upper, cone.lower)[1] == 0 else Membership.UNDETERMINED
    return Membership.OUTSIDE if locate(cone.lower_outer) is Membership.OUTSIDE else Membership.UNDETERMINED


# every exact and every bracket cone with 4 <= g <= 13
EVERY_CONE = [effective_cone(_general(g, d)) for g in range(4, 14) for d in range(2, g)] + [
    effective_cone(_hyperelliptic(g, d)) for g in range(4, 14) for d in range(2, g + 1)
]


def _rays(cone):
    return [ray for ray in (cone.upper, cone.lower, cone.lower_outer) if ray is not None]


def _on_ray(cone, ray, multiple):
    g, d = cone.context.genus, cone.context.d
    return divisor_class(g, d, multiple * ray.theta, -multiple * ray.x)


def test_bracket_cones_settle_only_the_upper_ray():
    assert {cone.status for cone in EVERY_CONE} == set(ConeStatus)
    bracket = [cone for cone in EVERY_CONE if cone.status is ConeStatus.BRACKET]
    # the upper ray is settled in a bracket; the inner ray is not, the outer ray is outside it
    for cone in bracket:
        assert cone.membership(_on_ray(cone, cone.upper, 1)) is Membership.BOUNDARY
        assert cone.membership(_on_ray(cone, cone.lower, 1)) is Membership.UNDETERMINED
        assert cone.membership(_on_ray(cone, cone.lower_outer, 1)) is Membership.UNDETERMINED
        assert cone.membership(_on_ray(cone, cone.lower_outer, -1)) is Membership.OUTSIDE


def test_membership_of_every_ray_multiple_matches_the_fraction_solve():
    for cone in EVERY_CONE:
        g, d = cone.context.genus, cone.context.d
        divisors = [divisor_class(g, d, 0, 0)]
        for ray in _rays(cone):
            divisors += [_on_ray(cone, ray, m) for m in (1, -1, Fraction(7, 3), Fraction(-1, 2))]
        for first in _rays(cone):
            for second in _rays(cone):
                divisors.append(_on_ray(cone, first, 1) + _on_ray(cone, second, Fraction(-1, 3)))
        for divisor in divisors:
            assert cone.membership(divisor) is _fraction_membership(cone, divisor), (cone.context, divisor)


_weights = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def cones_and_divisors(draw):
    """A cone with 4 <= g <= 13 and a divisor: rational, a multiple of one of its
    rays, a combination of two of them (possibly on a ray), or zero."""
    cone = draw(st.sampled_from(EVERY_CONE))
    g, d = cone.context.genus, cone.context.d
    kind = draw(st.sampled_from(("rational", "ray", "combination", "zero")))
    if kind == "rational":
        return cone, divisor_class(g, d, draw(_weights), draw(_weights))
    if kind == "ray":
        multiple = draw(_weights.filter(bool))
        return cone, _on_ray(cone, draw(st.sampled_from(_rays(cone))), multiple)
    if kind == "combination":
        first, second = draw(st.sampled_from(_rays(cone))), draw(st.sampled_from(_rays(cone)))
        weight = st.sampled_from((0, 1, -1, Fraction(1, 2), Fraction(-5, 3))) | _weights
        return cone, _on_ray(cone, first, draw(weight)) + _on_ray(cone, second, draw(weight))
    return cone, divisor_class(g, d, 0, 0)


@settings(max_examples=300, deadline=None)
@given(cones_and_divisors())
def test_integer_membership_matches_the_fraction_solve(case):
    cone, divisor = case
    assert cone.membership(divisor) is _fraction_membership(cone, divisor)


def test_cone_invariants():
    with pytest.raises(PreconditionError):
        Cone2D(_general(6, 5), Ray(1, -2), Ray(2, -4), ConeStatus.EXACT, ())
    with pytest.raises(PreconditionError):
        Cone2D(_general(6, 5), Ray(-1, 11), Ray(1, -2), ConeStatus.BRACKET, ())


# ------------------------------------------------------------------ nef facts


def test_nef_facts_general():
    facts = nef_facts(_general(4, 3))
    assert facts.diagonal_nef_ray == Ray(-1, 12)
    assert facts.theta_boundary_ray is None
    assert facts.gonality == 3


def test_nef_facts_gonality_predicate():
    assert nef_facts(_general(7, 3)).theta_minus_x_ample is True  # gonality 5 > 3
    assert nef_facts(_general(7, 5)).theta_minus_x_ample is False
    assert nef_facts(_general(6, 3)).theta_minus_x_ample is True  # gonality 4
    assert nef_facts(_general(6, 4)).theta_minus_x_ample is False


def test_nef_facts_hyperelliptic():
    facts = nef_facts(_hyperelliptic(5, 3))
    assert facts.theta_boundary_ray == Ray(1, 0)
    assert facts.gonality == 2
    assert facts.theta_minus_x_ample is False


def test_nef_facts_diagonal_needs_d_three():
    assert nef_facts(_general(5, 2)).diagonal_nef_ray is None


# ----------------------------------------------------------------- value types

_GENERAL_CONTEXT_REPR = "CurveContext(genus=8, d=3, curve_type=<CurveType.GENERAL: 'general'>)"
_HYPERELLIPTIC_CONTEXT_REPR = "CurveContext(genus=4, d=3, curve_type=<CurveType.HYPERELLIPTIC: 'hyperelliptic'>)"
_DIAGONAL_RAY_LINE = "half-diagonal class -theta + (g+d-1)x spans an effective boundary ray (Kouvidakis)"


def test_curve_context_value_contract(value_contract):
    fields = {"genus": 8, "d": 3, "curve_type": CurveType.GENERAL}
    value_contract(CurveContext, fields, _GENERAL_CONTEXT_REPR)
    with pytest.raises(PreconditionError):
        CurveContext(genus=1, d=3, curve_type=CurveType.GENERAL)
    with pytest.raises(PreconditionError):
        CurveContext(curve_type=CurveType.GENERAL, d=1, genus=4)


def test_ray_value_contract(value_contract):
    # The fields are normalized on construction, by keyword too.
    value_contract(Ray, {"theta": 2, "x": -4}, "Ray(theta=1, x=-2)")
    assert Ray(x=-6, theta=3) == Ray(1, -2)
    with pytest.raises(PreconditionError):
        Ray(theta=0, x=0)


def test_cone_value_contract(value_contract):
    cone = effective_cone(_hyperelliptic(4, 3))
    fields = {
        "context": cone.context,
        "upper": cone.upper,
        "lower": cone.lower,
        "status": cone.status,
        "provenance": cone.provenance,
        "lower_outer": None,
    }
    expected = (
        f"Cone2D(context={_HYPERELLIPTIC_CONTEXT_REPR}, upper=Ray(theta=-1, x=6), "
        "lower=Ray(theta=1, x=-2), status=<ConeStatus.EXACT: 'exact'>, "
        f"provenance=('{_DIAGONAL_RAY_LINE}', 'theta - (g-d+1)x is the class of the pencil locus "
        "C^1_d, contracted by the Abel map'), lower_outer=None)"
    )
    value_contract(Cone2D, fields, expected, defaults=("lower_outer",))
    with pytest.raises(PreconditionError):
        Cone2D(**dict(fields, lower_outer=Ray(1, -2)))


def test_bracket_cone_repr_and_keyword_outer_ray(value_contract):
    cone = effective_cone(_general(8, 3))
    assert repr(cone) == (
        f"Cone2D(context={_GENERAL_CONTEXT_REPR}, upper=Ray(theta=-1, x=10), "
        "lower=Ray(theta=1, x=-2), status=<ConeStatus.BRACKET: 'inner-and-outer-bracket'>, "
        f"provenance=('{_DIAGONAL_RAY_LINE}', 'inner bound: theta - 2x is effective for 3 <= d <= g/2 "
        "(Kouvidakis)', 'outer bound: degeneration to a hyperelliptic curve caps the slope at g-d+1'), "
        "lower_outer=Ray(theta=1, x=-6))"
    )
    rebuilt = Cone2D(cone.context, cone.upper, cone.lower, cone.status, cone.provenance, lower_outer=Ray(1, -6))
    assert rebuilt == cone and hash(rebuilt) == hash(cone)


def test_nef_facts_value_contract(value_contract):
    facts = nef_facts(_hyperelliptic(4, 3))
    fields = {
        "context": facts.context,
        "diagonal_nef_ray": facts.diagonal_nef_ray,
        "theta_boundary_ray": facts.theta_boundary_ray,
        "gonality": facts.gonality,
        "theta_minus_x_ample": facts.theta_minus_x_ample,
        "provenance": facts.provenance,
    }
    expected = (
        f"NefFacts(context={_HYPERELLIPTIC_CONTEXT_REPR}, diagonal_nef_ray=Ray(theta=-1, x=12), "
        "theta_boundary_ray=Ray(theta=1, x=0), gonality=2, theta_minus_x_ample=False, "
        "provenance=('-theta + dg*x is nef and big with augmented base locus the small diagonal (Pacienza)', "
        "'theta spans a common boundary ray of the nef and movable cones when the Abel map is a divisorial "
        "contraction', 'theta - x is ample whenever no degree-d divisor moves in a pencil (d below the "
        "gonality)'))"
    )
    value_contract(NefFacts, fields, expected)


# -------------------------------------------------------------------- volumes


def test_volume_general_values():
    assert volume_general(4, 1) == 1
    assert volume_general(4, Fraction(1, 2)) == Fraction(73, 8)
    for g in range(4, 15):
        assert volume_general(g, 0) == volume_integrality(g)[0] * 2 ** (g - 1)


def _fraction_volume_general(g, t):
    """Reference: the volume sum taken term by term in Fractions."""
    return sum(
        gen_binomial(g - 1, k) * Fraction(math.factorial(g), math.factorial(k + 1)) * t**k * (1 - t) ** (g - 1 - k)
        for k in range(g)
    )


@pytest.mark.parametrize("g", range(4, 61))
def test_integer_volume_general_matches_fraction_sum(g):
    # Both ends of the proven interval, and points inside it.
    limit = general_volume_limit(g)
    long_ts = (Fraction(123456789, 123456790), Fraction(10**30 - 7, 10**30))
    for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(g, g + 1), Fraction(1), limit / 2, limit, *long_ts):
        assert volume_general(g, t) == _fraction_volume_general(g, t), (g, t)


def test_volume_general_domain():
    limit = 1 + Fraction(1, 4 * 4 - 4 - 1)
    assert volume_general(4, limit) > 0
    with pytest.raises(OutOfProvenDomainError):
        volume_general(4, limit + Fraction(1, 1000))
    with pytest.raises(OutOfProvenDomainError):
        volume_general(4, Fraction(-1, 2))
    with pytest.raises(PreconditionError):
        volume_general(3, Fraction(1, 2))


def test_volume_general_positive_and_decreasing():
    for g in range(4, 11):
        limit = 1 + Fraction(1, g * g - g - 1)
        grid = [limit * j / 16 for j in range(17)]
        values = [volume_general(g, t) for t in grid]
        assert all(v > 0 for v in values[:-1])
        assert all(earlier > later for earlier, later in zip(values, values[1:]))


def test_volume_hyperelliptic_values():
    assert volume_hyperelliptic(4, 3, 1) == 3
    assert volume_hyperelliptic(5, 4, 1) == Fraction(15, 2)
    for g in range(2, 15):
        for d in range(2, g + 1):
            assert volume_hyperelliptic(g, d, g - d + 1) == 0
            top = volume_hyperelliptic(g, d, 0)
            expected = Fraction(1)
            for i in range(d):
                expected *= g - i
            assert top == expected


def test_volume_hyperelliptic_domain():
    with pytest.raises(OutOfProvenDomainError):
        volume_hyperelliptic(5, 3, Fraction(7, 2))
    with pytest.raises(PreconditionError):
        volume_hyperelliptic(4, 5, 1)


@pytest.mark.parametrize("g, d", [(4, 5), (4, 20000), (4, 1), (5000, -3), (1, 1)])
def test_hyperelliptic_volume_limit_refuses_d_outside_its_domain(g, d):
    with pytest.raises(PreconditionError, match=r"hyperelliptic volume needs 2 <= d <= g"):
        hyperelliptic_volume_limit(g, d)


def test_volume_limits_are_the_enforced_domains():
    step = Fraction(1, 10**9)
    for g in range(4, 13):
        limit = general_volume_limit(g)
        assert limit == 1 + Fraction(1, g * g - g - 1)
        assert volume_general(g, limit) > 0
        with pytest.raises(OutOfProvenDomainError):
            volume_general(g, limit + step)
        for d in range(2, g + 1):
            limit = hyperelliptic_volume_limit(g, d)
            assert limit == g - d + 1
            assert volume_hyperelliptic(g, d, limit) == 0
            with pytest.raises(OutOfProvenDomainError):
                volume_hyperelliptic(g, d, limit + step)


def test_volume_integrality():
    value, integral = volume_integrality(4)
    assert (value, integral) == (3, True)
    assert volume_integrality(5) == (Fraction(15, 2), False)
    assert volume_integrality(8) == (315, True)
    for g in range(2, 65):
        _, integral = volume_integrality(g)
        # Legendre: v_2(g!) = g - (binary digit sum of g)
        assert integral == (bin(g).count("1") == 1)
        if integral:
            assert volume_integrality(g)[0].numerator % 2 == 1


def test_volume_and_self_intersection_disagree_off_the_nef_cone():
    from symcd.cycles import divisor_class, evaluate_top

    assert evaluate_top(divisor_class(4, 3, 1, 1) ** 3) == -1
    assert volume_general(4, 1) == 1
