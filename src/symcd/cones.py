"""Cone boundaries, volume functions and residuation for divisors on C_d.

The effective cone of C_d lives in the plane spanned by theta and x.  One
boundary ray is always the half-diagonal class -theta + (g+d-1)x (Kouvidakis).
The other side is settled exactly in three situations:

* hyperelliptic curves, 2 <= d <= g: the ray of theta - (g-d+1)x, the class of
  the pencil locus C^1_d contracted by the Abel map;
* general nonhyperelliptic curves, d = g-1: the ray of the Gauss-map
  ramification divisor, slope 1 + 1/(2g-3);
* general curves of genus 5, d = 3: the pencil-residual ray theta - (5/3)x.

Elsewhere only a bracket is known: an inner (proven effective) ray, which is
theta - 2x for 2d <= g (Kouvidakis), theta - (2 - 1/k)x at (g, d) = (2k-1, k),
and the ramification ray otherwise, since both are proven steeper than the
ramification ray where they apply; and an outer ray theta - (g-d+1)x obtained
by degenerating to the hyperelliptic cone.

The functions take g and d directly, and ``effective_cone`` and ``nef_facts``
a keyword ``hyperelliptic`` for the curve type; each proven (g, d) range is
checked by the one helper in :mod:`symcd.errors`.  The two volume formulas are
likewise restricted to their proven parameter ranges, and evaluation outside
them raises :class:`OutOfProvenDomainError` rather than extrapolating.
"""

from __future__ import annotations

import enum
import math

from . import _EXPORTS
from .cycles import CycleClass, _fraction, _Frozen, _set, _signed_sum, as_rational
from .errors import OutOfProvenDomainError, PreconditionError, _check_range, _check_space, shown

__all__ = list(_EXPORTS["cones"])

DIAGONAL_RAY_PROVENANCE = "half-diagonal class -theta + (g+d-1)x spans an effective boundary ray (Kouvidakis)"
HYPERELLIPTIC_RAY_PROVENANCE = (
    "theta - (g-d+1)x is the class of the pencil locus C^1_d, contracted by the Abel map"
)
RAMIFICATION_RAY_PROVENANCE = (
    "Gauss-map ramification divisor: theta - (1 + 1/(2g-3))x spans the boundary on C_(g-1)"
)
PENCIL_RESIDUAL_RAY_PROVENANCE = (
    "pencil-residual divisor: theta - (5/3)x spans the boundary of C_3 in genus 5"
)
RAMIFICATION_BOUND_PROVENANCE = "inner bound: ramification divisor makes theta - r*x effective"
KOUVIDAKIS_BOUND_PROVENANCE = "inner bound: theta - 2x is effective for 3 <= d <= g/2 (Kouvidakis)"
PENCIL_RESIDUAL_BOUND_PROVENANCE = (
    "inner bound: pencil-residual divisor makes theta - (2 - 1/k)x effective at d = (g+1)/2"
)
OUTER_BOUND_PROVENANCE = (
    "outer bound: degeneration to a hyperelliptic curve caps the slope at g-d+1"
)
DIAGONAL_NEF_PROVENANCE = (
    "-theta + dg*x is nef and big with augmented base locus the small diagonal (Pacienza)"
)
THETA_BOUNDARY_PROVENANCE = (
    "theta spans a common boundary ray of the nef and movable cones when the Abel map is a divisorial contraction"
)
AMPLENESS_PROVENANCE = (
    "theta - x is ample whenever no degree-d divisor moves in a pencil (d below the gonality)"
)


class Ray(_Frozen):
    """Primitive integer direction u*theta + v*x; rays are half-lines, so the
    overall sign is meaningful and never normalized away."""

    __slots__ = ("theta", "x")

    def __post_init__(self):
        if not isinstance(self.theta, int) or not isinstance(self.x, int):
            raise PreconditionError("ray coefficients must be integers")
        if self.theta == 0 and self.x == 0:
            raise PreconditionError("the zero vector spans no ray")
        g = math.gcd(self.theta, self.x)
        if g != 1:
            _set(self, "theta", self.theta // g)
            _set(self, "x", self.x // g)

    @classmethod
    def from_class(cls, divisor: CycleClass) -> "Ray":
        if divisor.codim != 1:
            raise PreconditionError("only divisor classes span rays in the plane")
        # The numerators are the coefficients times a positive denominator.
        return cls(*divisor.numerators)

    def __str__(self) -> str:
        return _signed_sum(((str(self.theta), "theta"), (str(self.x), "x")))


class ConeStatus(enum.Enum):
    EXACT = "exact"
    BRACKET = "inner-and-outer-bracket"


class Membership(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"
    UNDETERMINED = "undetermined"


def _coordinates(upper: Ray, lower: Ray, numerators) -> tuple[int, int]:
    # alpha and beta in numerators = alpha*upper + beta*lower by Cramer's rule, times
    # the squared determinant and the class's denominator, so with their signs.
    theta, x = numerators
    det = upper.theta * lower.x - upper.x * lower.theta
    return (theta * lower.x - x * lower.theta) * det, (upper.theta * x - upper.x * theta) * det


class Cone2D(_Frozen):
    """A 2-dimensional cone in the (theta, x)-plane of C_d in genus ``genus``.

    ``upper`` is always exact (the half-diagonal side).  Without
    ``lower_outer`` the cone is ``EXACT`` and ``lower`` is the second boundary
    ray; with it the cone is a ``BRACKET``, ``lower`` is the proven-effective
    inner ray and ``lower_outer`` the outer bound, and membership between them
    is reported as undetermined.
    """

    __slots__ = ("genus", "d", "upper", "lower", "provenance", "lower_outer")
    _defaults = {"lower_outer": None}

    def __post_init__(self):
        if self.upper.theta * self.lower.x == self.upper.x * self.lower.theta:
            raise PreconditionError("boundary rays of a 2-dimensional cone cannot be proportional")

    @property
    def status(self) -> ConeStatus:
        return ConeStatus.EXACT if self.lower_outer is None else ConeStatus.BRACKET

    def membership(self, divisor: CycleClass) -> Membership:
        """Locate a divisor class relative to the cone by exact sign tests."""
        if divisor.codim != 1:
            raise PreconditionError("membership is defined for divisor classes only")
        if divisor.genus != self.genus or divisor.d != self.d:
            raise PreconditionError(
                f"class on C_{shown(divisor.d)} (g={shown(divisor.genus)}) tested against the cone of "
                f"C_{shown(self.d)} (g={shown(self.genus)})"
            )
        alpha, beta = _coordinates(self.upper, self.lower, divisor.numerators)
        if alpha > 0 and beta > 0:
            return Membership.INSIDE
        if alpha >= 0 and beta >= 0:
            # On the upper ray (or at the apex) the cone is settled; on the
            # inner ray of a bracket only effectivity is known, not extremality.
            if self.lower_outer is None or beta == 0:
                return Membership.BOUNDARY
            return Membership.UNDETERMINED
        if self.lower_outer is None:
            return Membership.OUTSIDE
        alpha, beta = _coordinates(self.upper, self.lower_outer, divisor.numerators)
        return Membership.OUTSIDE if alpha < 0 or beta < 0 else Membership.UNDETERMINED


def effective_slope_bound(g: int, d: int) -> Fraction:
    """The proven-effective slope r = 1 + (g-d)/(g^2 - dg + (d-2)).

    theta - r*x is the direction of the Gauss-map ramification divisor; at
    d = g-1 the bound becomes 1 + 1/(2g-3) and is sharp.  The ``Fraction``
    of :func:`_slope_bound`'s integers.
    """
    return _fraction(*_slope_bound(g, d))


def _slope_bound(g: int, d: int) -> tuple[int, int]:
    """Integer core of :func:`effective_slope_bound`: (q + g - d, q) with
    q = g^2 - dg + d - 2, not reduced."""
    _check_range("slope bound", g, d, hyperelliptic=False)
    q = g * g - d * g + d - 2
    return q + g - d, q


def effective_cone(g: int, d: int, *, hyperelliptic: bool) -> Cone2D:
    """Effective-cone data for C_d in genus g on a general hyperelliptic curve, or a
    general nonhyperelliptic one; exact where proven and bracketed elsewhere."""
    _check_range("hyperelliptic cone" if hyperelliptic else "nonhyperelliptic cone", g, d, hyperelliptic)
    upper = Ray(-1, g + d - 1)
    if hyperelliptic:
        return Cone2D(g, d, upper, Ray(1, -(g - d + 1)), (DIAGONAL_RAY_PROVENANCE, HYPERELLIPTIC_RAY_PROVENANCE))
    slope, q = _slope_bound(g, d)
    if d == g - 1:
        return Cone2D(g, d, upper, Ray(q, -slope), (DIAGONAL_RAY_PROVENANCE, RAMIFICATION_RAY_PROVENANCE))
    if g == 5 and d == 3:
        return Cone2D(g, d, upper, Ray(3, -5), (DIAGONAL_RAY_PROVENANCE, PENCIL_RESIDUAL_RAY_PROVENANCE))
    # The inner ray is the steepest proven one, and the algebra orders them.  The
    # ramification slope is r = slope/q with q = g^2 - dg + d - 2 > 0, and
    # 2 - r = (g-2)(g-d+1)/q > 0, so theta - 2x is steeper wherever it applies; at
    # g = 2d-1, (2 - 1/d) - r = (2d^3 - 5d^2 + 2d + 1)/(d(2d^2 - 2d - 1)) > 0, so
    # the pencil-residual ray is steeper there too.  The two never apply together,
    # since 2d <= g excludes g = 2d-1, and d = 2 puts g = 2d-1 below the range.
    if 3 <= d and 2 * d <= g:
        inner, inner_provenance = Ray(1, -2), KOUVIDAKIS_BOUND_PROVENANCE
    elif g == 2 * d - 1:
        inner, inner_provenance = Ray(d, 1 - 2 * d), PENCIL_RESIDUAL_BOUND_PROVENANCE
    else:
        inner, inner_provenance = Ray(q, -slope), RAMIFICATION_BOUND_PROVENANCE
    provenance = (DIAGONAL_RAY_PROVENANCE, inner_provenance, OUTER_BOUND_PROVENANCE)
    return Cone2D(g, d, upper, inner, provenance, lower_outer=Ray(1, -(g - d + 1)))


class NefFacts(_Frozen):
    """Nef/movable cone facts known for C_d.

    ``diagonal_nef_ray`` (-theta + dg*x, for d >= 3) bounds the nef cone on the
    diagonal side for any curve.  ``theta_boundary_ray`` is set for
    hyperelliptic curves, where theta spans a common boundary ray of the nef
    and movable cones.  ``theta_minus_x_ample`` records whether theta - x is
    ample, which holds exactly when d is below the gonality.
    """

    __slots__ = ("diagonal_nef_ray", "theta_boundary_ray", "gonality", "theta_minus_x_ample", "provenance")


def nef_facts(g: int, d: int, *, hyperelliptic: bool) -> NefFacts:
    """Nef-cone facts for C_d in genus g, on a general hyperelliptic curve if
    ``hyperelliptic`` (proven for 2 <= d <= g), else on a general curve."""
    if hyperelliptic:
        _check_range("hyperelliptic nef data", g, d, hyperelliptic=True)
    else:
        _check_space(g, d)
    provenance: list[str] = []
    diagonal_ray = None
    if d >= 3:
        diagonal_ray = Ray(-1, d * g)
        provenance.append(DIAGONAL_NEF_PROVENANCE)
    theta_ray = None
    if hyperelliptic:
        gonality = 2
        theta_ray = Ray(1, 0)
        provenance.append(THETA_BOUNDARY_PROVENANCE)
    else:
        # A general curve of genus g has gonality ceil(g/2) + 1.
        gonality = (g + 1) // 2 + 1
    ample = d < gonality
    provenance.append(AMPLENESS_PROVENANCE)
    return NefFacts(diagonal_ray, theta_ray, gonality, ample, tuple(provenance))


def general_volume_limit(g: int) -> Fraction:
    """Right end of the proven interval [0, 1 + 1/(g^2-g-1)] of :func:`volume_general`,
    which is proven on C_(g-1) for g >= 4 only."""
    _check_range("general volume", g, g - 1, hyperelliptic=False)
    return 1 + _fraction(1, g * g - g - 1)


def hyperelliptic_volume_limit(g: int, d: int) -> int:
    """Right end of the proven interval [0, g-d+1] of :func:`volume_hyperelliptic`,
    which is proven for 2 <= d <= g only."""
    _check_range("hyperelliptic volume", g, d, hyperelliptic=True)
    return g - d + 1


def residuation_pullback(a: int | Fraction, b: int | Fraction) -> tuple[Fraction, Fraction]:
    """Image of a*theta + b*x under residuation: (a + b, -b).

    Residuation sends a complete series |L| of degree 2g-2-d to the unique
    member of |K - L|; only the linear map it induces on classes is modeled,
    into the basis (theta_hat, X_hat) of C_(2g-2-d), the images of theta and
    theta - x.  On C_(g-1) the bases coincide, and the map is the involution
    that sends theta - t*x to (1-t)theta + t*x, which proves
    :func:`volume_general`.  Floats are refused.
    """
    a, b = as_rational(a), as_rational(b)
    return a + b, -b


def volume_general(g: int, t: int | Fraction) -> Fraction:
    """Volume of theta - t*x on C_(g-1) for a general nonhyperelliptic curve.

        vol = sum_{k=0}^{g-1} C(g-1, k) * g!/(k+1)! * t^k (1-t)^(g-1-k)

    proven for 0 <= t <= 1 + 1/(g^2-g-1): residuation carries theta - t*x to
    (1-t)theta + t*x, which stays nef on that interval, so the volume is its
    top self-intersection.  Outside the interval the formula is not known to
    hold and evaluation is refused.
    """
    limit = general_volume_limit(g)
    t = as_rational(t)
    if not 0 <= t <= limit:
        raise OutOfProvenDomainError(
            f"t={shown(t)} is outside the proven interval [0, {shown(limit)}] for genus {shown(g)}"
        )
    # With t = p/q the sum is one integer over q^(g-1): the sum of
    # T_k p^k (q-p)^(g-1-k), taken by Horner's rule in q-p, so each step
    # multiplies the growing numbers only by p, q-p and small factors.
    p, q = t.numerator, t.denominator
    total = 0
    for term in _volume_terms(g, p):
        total = total * (q - p) + term
    return _fraction(total, q ** (g - 1))


def _volume_terms(g: int, p: int):
    """T_k p^k for k = 0 .. g-1, T_k = C(g-1, k) g!/(k+1)!: the terms of
    :func:`volume_general`.  Each steps to the next by p (g-1-k)/((k+1)(k+2)),
    an exact division since the next term is an integer."""
    term = math.factorial(g)
    for k in range(g):
        yield term
        term = term * p * (g - 1 - k) // ((k + 1) * (k + 2))


def volume_hyperelliptic(g: int, d: int, t: int | Fraction) -> Fraction:
    """Volume of theta - t*x on C_d for a general hyperelliptic curve.

        vol = g!/(g-d)! * (1 - t/(g-d+1))^d        for 0 <= t <= g-d+1

    by the Zariski decomposition with positive part proportional to theta;
    the volume vanishes exactly at the endpoint t = g-d+1.
    """
    limit = hyperelliptic_volume_limit(g, d)
    t = as_rational(t)
    if not 0 <= t <= limit:
        raise OutOfProvenDomainError(
            f"t={shown(t)} is outside the proven interval [0, {shown(limit)}] for (g, d)=({shown(g)}, {shown(d)})"
        )
    return _fraction(math.factorial(g), math.factorial(g - d)) * (1 - _fraction(t, limit)) ** d


def volume_integrality(g: int) -> tuple[Fraction, bool]:
    """The hyperelliptic volume g!/2^(g-1) of theta - x on C_(g-1), and whether
    it is an integer.

    By Legendre's formula the 2-adic valuation of g! is g minus the binary
    digit sum of g, so the value is an integer (necessarily odd) precisely when
    g is a power of 2.
    """
    if g < 2:
        raise PreconditionError(f"integrality check needs g >= 2 (got {shown(g)})")
    value = _fraction(math.factorial(g), 2 ** (g - 1))
    return value, value.denominator == 1
