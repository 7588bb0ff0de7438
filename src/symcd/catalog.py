"""Constructors for the named cycle classes on symmetric powers of a curve.

Each constructor returns the numerical class of a concrete geometric locus:

* ``subordinate_class``        -- divisors subordinate to a linear series
                                  (degeneracy-locus formula, after
                                  Arbarello-Cornalba-Griffiths-Harris VIII.3);
* ``small_diagonal_class``     -- divisors of the form d*p;
* ``bipartition_diagonal_class`` -- divisors of the form (g-d+1)*p + d*q on
                                  C_(g+1), in two variants (see below), with an
                                  independent coefficient-extraction route;
* ``ramification_divisor_class`` -- the ramification divisor of the Gauss map,
                                  swept by divisors subordinate to
                                  K(-(g-d+1)p), together with the test-curve
                                  linear system that determines it;
* ``pencil_residual_divisor_class`` -- for genus 2k-1, the divisor on C_k swept
                                  by loci subordinate to residuals of pencils
                                  of degree k+1;
* ``hyperelliptic_pencil_locus_class`` -- on a hyperelliptic curve, the locus
                                  C^1_d of divisors moving in a pencil.

Everything is exact rational arithmetic; the few double-route computations
(closed form versus brute-force extraction, closed form versus solved linear
system) are deliberately kept independent so that they can cross-check each
other.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .cycles import CycleClass, _evaluate_top, _Frozen, divisor_class
from .errors import PreconditionError, shown

__all__ = [
    "subordinate_class",
    "small_diagonal_class",
    "bipartition_diagonal_class",
    "bipartition_diagonal_extraction",
    "ramification_divisor_class",
    "solve_test_curve_system",
    "TestCurveSolution",
    "pencil_residual_divisor_class",
    "pencil_residual_sums",
    "hyperelliptic_pencil_locus_class",
    "subordinate_pencil_intersections",
    "binomial_convolution_identity",
]


def subordinate_class(g: int, d: int, n: int, r: int) -> CycleClass:
    """Class of the locus of degree-d divisors subordinate to a linear series.

    For a series of degree n and (projective) dimension r with n >= d >= r >= 0,
    the locus ``{D in C_d : V cap H^0(L(-D)) != 0}`` has codimension d - r and
    fundamental class

        sum_{k=0}^{d-r}  C(n-g-r, k) * x^k * theta^(d-r-k) / (d-r-k)!

    The upper binomial index N = n - g - r is frequently negative (e.g. -1 for
    the residual series used throughout).  Over the denominator (d-r)!, term k
    is C(N, k) * perm(d-r, k), and one running numerator steps to the next by
    (N-k)(d-r-k)/(k+1); the division is exact for any integer N, because the
    next numerator is again a binomial times a falling factorial.
    """
    # Checked ahead of CycleClass's own check: at a huge negative genus the
    # binomials below would run for seconds first.
    if g < 2:
        raise PreconditionError(f"genus must be at least 2 (got {shown(g)})")
    if not (n >= d >= r >= 0):
        raise PreconditionError(
            f"subordinate locus needs n >= d >= r >= 0 (got n={shown(n)}, d={shown(d)}, r={shown(r)})"
        )
    codim = d - r
    # C(N, k+1) = C(N, k)(N-k)/(k+1) and perm(codim, k+1) = perm(codim, k)(codim-k).
    upper = n - g - r
    numerator = 1
    numerators = []
    for k in range(codim + 1):
        numerators.append(numerator)
        numerator = numerator * ((upper - k) * (codim - k)) // (k + 1)
    return CycleClass.from_numerators(g, d, numerators, math.factorial(codim))


def small_diagonal_class(g: int, d: int) -> CycleClass:
    """Class of the small diagonal {d*p : p in C} inside C_d.

    Codimension d - 1, value d * x^(d-2) * (((d-1)g + 1)x - (d-1)theta).
    """
    if d < 2:
        raise PreconditionError(f"the small diagonal needs d >= 2 (got {shown(d)})")
    return CycleClass.from_numerators(g, d, [0] * (d - 2) + [-d * (d - 1), d * ((d - 1) * g + 1)])


def _bipartition_halving(g: int, d: int) -> int:
    # The parametrization (p, q) |-> (g-d+1)p + dq is 2:1 onto its image
    # exactly when the two parts coincide, i.e. d = (g+1)/2; the class is
    # then halved.
    return 2 if 2 * d == g + 1 else 1


def _check_bipartition_range(g: int, d: int) -> None:
    if g < 3 or not 2 <= d <= g - 1:
        raise PreconditionError(
            f"two-part diagonal needs g >= 3 and 2 <= d <= g-1 (got g={shown(g)}, d={shown(d)})"
        )


def bipartition_diagonal_class(g: int, d: int, variant: str = "proof") -> CycleClass:
    """Closed-form class of the two-part diagonal {(g-d+1)p + dq} in C_(g+1).

    The class is

        (1 - delta/2) * d(g-d+1) * x^(g-3) * (A x^2 + B x*theta + C theta^2)

    with delta the Kronecker delta at d = (g+1)/2 and

        A = (d-1)g^3 - (d^2-2)g^2 + (d^2-d-1)g + 2
        B = (2-2d)g^2 + (2d^2-3)g - (2d^2-2d-1)
        C = (d-1)(g-d)

    Two published versions of the x*theta coefficient are in circulation; they
    differ by d - 1.  The default ``variant="proof"`` value above is the one
    confirmed by the independent coefficient extraction
    (:func:`bipartition_diagonal_extraction`); ``variant="statement"`` builds
    the other one, with B replaced by (2-2d)g^2 + (2d^2-3)g - (2d^2-d-2), and
    is kept only so the discrepancy can be demonstrated.
    """
    _check_bipartition_range(g, d)
    if variant not in ("proof", "statement"):
        raise PreconditionError(f"variant must be 'proof' or 'statement' (got {variant!r})")
    a_coeff = (d - 1) * g**3 - (d * d - 2) * g**2 + (d * d - d - 1) * g + 2
    if variant == "proof":
        b_coeff = (2 - 2 * d) * g**2 + (2 * d * d - 3) * g - (2 * d * d - 2 * d - 1)
    else:
        b_coeff = (2 - 2 * d) * g**2 + (2 * d * d - 3) * g - (2 * d * d - d - 2)
    c_coeff = (d - 1) * (g - d)
    scale = d * (g - d + 1)
    return CycleClass.from_numerators(
        g,
        g + 1,
        [0] * (g - 3) + [scale * c_coeff, scale * b_coeff, scale * a_coeff],
        _bipartition_halving(g, d),
    )


def bipartition_diagonal_extraction(g: int, d: int) -> CycleClass:
    """Two-part diagonal class by brute-force coefficient extraction.

    Pushing the fundamental class of C x C forward along
    (p, q) |-> (g-d+1)p + dq expresses the coefficient of x^(g-1-a)*theta^a as

        sum_{b=0}^{a} (-1)^(a+b)/(b!(a-b)!) *
            [t1*t2] (1 + (g-d+1)t1 + d*t2)^(2-g+b) * (1 + (g-d+1)^2 t1 + d^2 t2)^(g-b)

    all times the same 2:1 multiplicity correction as the closed form.  Times
    a!, the sum over b is the integer sum_b (-1)^(a+b) C(a, b) f(b), with f(b)
    the [t1*t2] coefficient, so each coefficient is one integer over a!.  That
    sum is the a-th forward difference of f at 0, so one difference table,
    differenced once per a until a row is all zero, gives every coefficient;
    its entries are integer differences, so nothing is divided.  For any
    integers n and m the mixed coefficient is

        [t1*t2] (1 + a*t1 + b*t2)^n (1 + c*t1 + e*t2)^m
            = n(n-1)ab + m(m-1)ce + nm(ae + bc)

    (only the t1 and t2 terms of each binomial series reach t1*t2), here with
    (a, b) = (u, v), (c, e) = (u^2, v^2), u = g-d+1 and v = d.  This route
    shares no algebra with :func:`bipartition_diagonal_class` and serves as
    its oracle.
    """
    _check_bipartition_range(g, d)
    u, v = g - d + 1, d
    ab, ce, ae_bc = u * v, u * u * v * v, u * v * (u + v)

    def mixed_coefficient(n: int, m: int) -> int:
        return n * (n - 1) * ab + m * (m - 1) * ce + n * m * ae_bc

    differences = [mixed_coefficient(2 - g + beta, g - beta) for beta in range(g)]
    # Numerators over (g-1)!: the alpha-th difference at 0 times (g-1)!/alpha!,
    # which is perm(g-1, g-1-alpha).  Every row after an all-zero row is zero.
    numerators = [0] * g
    for alpha in range(g):
        numerators[g - 1 - alpha] = differences[0] * math.perm(g - 1, g - 1 - alpha)
        differences = list(map(operator.sub, differences[1:], differences[:-1]))
        if not any(differences):
            break
    return CycleClass.from_numerators(g, g + 1, numerators, _bipartition_halving(g, d) * math.factorial(g - 1))


def _check_ramification_range(g: int, d: int) -> None:
    if g < 4 or not 2 <= d <= g - 1:
        raise PreconditionError(
            f"ramification divisor needs g >= 4 and 2 <= d <= g-1 (got g={shown(g)}, d={shown(d)})"
        )


def ramification_divisor_class(g: int, d: int) -> CycleClass:
    """Closed-form class a*theta - b*x of the Gauss-map ramification divisor on C_d.

        a = (g-d+1)(g^2 - dg + (d-2)),   b = (g-d+1)(g^2 - (d-1)g - 2)

    The slope b/a equals 1 + (g-d)/(g^2 - dg + (d-2)), the proven-effective
    bound for the cone of C_d.
    """
    _check_ramification_range(g, d)
    a = (g - d + 1) * (g * g - d * g + d - 2)
    b = (g - d + 1) * (g * g - (d - 1) * g - 2)
    return divisor_class(g, d, a, b)


class TestCurveSolution(_Frozen):
    """Outcome of the two-test-curve computation of the ramification divisor.

    ``x_curve_intersection`` is the intersection with the curve of divisors
    p + q_1 + ... + q_(d-1) (class x^(d-1)); ``diagonal_intersection`` is the
    raw intersection with the small-diagonal curve.  ``divisor`` is the solved
    class a*theta - b*x, the codimension-1 ``CycleClass`` with coefficients
    (a, -b); it satisfies a*g - b = x_curve_intersection and
    a*d*g - b = diagonal_intersection / d.
    """

    __slots__ = ("divisor", "x_curve_intersection", "diagonal_intersection")


def solve_test_curve_system(g: int, d: int) -> TestCurveSolution:
    """Recompute the ramification divisor class from first principles.

    The intersection with the moving-point curve is evaluated on C_(g-d+1) as

        (g-2) * [small diagonal] . [subordinate to a series of degree 2g-d-1
                                    and dimension g-d]

    and the intersection with the small-diagonal curve on C_(g+1) as

        h * [two-part diagonal] . [subordinate to a series of degree 2g-2
                                   and dimension g-1]

    with h = 2 at d = (g+1)/2 and h = 1 elsewhere, which undoes the halving of
    the two-part diagonal's class (:func:`_bipartition_halving`).  The direct
    evaluation of the diagonal intersection against a*theta - b*x gives
    d*(a*d*g - b), hence the division by d before solving the 2x2 system; the
    system is never singular since its determinant is g(d-1) != 0 for d >= 2.
    """
    _check_ramification_range(g, d)
    small_power = g - d + 1
    # The short subordinate class is p: Horner's rule runs over its 2 or 3 numerators.
    chi, chi_denominator = _evaluate_top(
        subordinate_class(g, small_power, 2 * g - d - 1, g - d), small_diagonal_class(g, small_power)
    )
    diagonal, diagonal_denominator = _evaluate_top(
        subordinate_class(g, g + 1, 2 * g - 2, g - 1), bipartition_diagonal_class(g, d)
    )
    chi_side = Fraction((g - 2) * chi, chi_denominator)
    diagonal_side = Fraction(_bipartition_halving(g, d) * diagonal, diagonal_denominator)
    # Over the common denominator L of the two sides, chi_side = C/L and
    # diagonal_side = D/L, so a = (D - dC)/(Ldg(d-1)) and b = a*g - chi_side
    # = g(D - d^2 C)/(Ldg(d-1)): one integer solve, reduced once.
    common = math.lcm(chi_side.denominator, diagonal_side.denominator)
    chi = chi_side.numerator * (common // chi_side.denominator)
    diagonal = diagonal_side.numerator * (common // diagonal_side.denominator)
    divisor = CycleClass.from_numerators(
        g, d, [diagonal - d * chi, g * (d * d * chi - diagonal)], common * d * g * (d - 1)
    )
    return TestCurveSolution(divisor, chi_side, diagonal_side)


def pencil_residual_sums(k: int) -> tuple[int, int]:
    """The theta- and x-coefficient sums of the pencil-residual divisor on C_k.

    For genus 2k-1, pushing C^(k-2)_(3k-5) down to C_k gives a divisor whose
    class is (1/(k-1)) * (A*theta + B*x) with

        A = sum_{l=0}^{k-2} (-1)^l (l+1) C(2k-4-l, k-2) C(2k-2, l+3)
        B = sum_{l=0}^{k-2} (-1)^l l(l+1) C(2k-4-l, k-2) C(2k-1, l+3)

    B is intrinsically negative; both sums are returned verbatim, signs intact.
    """
    if k < 3:
        raise PreconditionError(f"pencil-residual divisor needs k >= 3 (got {shown(k)})")
    return _residual_sums(k - 2)


def _residual_sums(m: int) -> tuple[int, int]:
    """sum_{l=0}^m (-1)^l (l+1) C(2m-l, m) C(2m+2, l+3) and
    sum_{l=0}^m (-1)^l l(l+1) C(2m-l, m) C(2m+3, l+3), for m >= 1.

    Both run over one term R_l = C(2m-l-1, m-1) C(2m+2, l+3).  As C(2m-l, m)
    is C(2m-l-1, m-1)(2m-l)/m and C(2m+3, l+3) is C(2m+2, l+3)(2m+3)/(2m-l),
    the terms are (2m-l) s_l / m and (2m+3) l s_l / m with
    s_l = (-1)^l (l+1) R_l.  Trinomial revision splits R_l as K C(m+3, l+3)
    with K = C(2m+2, m+3), a factor common to every term, so the loop steps
    s_l / K, numbers of about m bits rather than 3m, by
    C(n, j+1) = C(n, j)(n-j)/(j+1):

        s_(l+1) = s_l (l+2)(l-m) / ((l+1)(l+4)),

    an exact division since s_(l+1) / K is an integer.  With T0 = sum s_l / K
    and T1 = sum l s_l / K the sums are K (2m T0 - T1)/m and K (2m+3) T1/m,
    each divided by m once, exactly, at the end.  Abel summation gives T1 from
    the partial sums P_l = s_0 + ... + s_l as (m+1) T0 - sum_{l<=m} P_l, so a
    step takes one product of a big integer by a small one.
    """
    s = math.comb(m + 3, 3)
    t0 = partials = 0
    for l in range(m + 1):
        t0 += s
        partials += t0
        s = s * ((l + 2) * (l - m)) // ((l + 1) * (l + 4))
    t1 = (m + 1) * t0 - partials
    common = math.comb(2 * m + 2, m + 3)
    return common * (2 * m * t0 - t1) // m, common * (2 * m + 3) * t1 // m


def pencil_residual_divisor_class(k: int) -> CycleClass:
    """Class of the divisor on C_k (genus 2k-1) swept by residuals of pencils.

    Proportional to theta - (2 - 1/k)x; at k = 3 it is 3*theta - 5*x, which
    spans a boundary ray of the effective cone of C_3 in genus 5.
    """
    return CycleClass.from_numerators(2 * k - 1, k, pencil_residual_sums(k), k - 1)


def hyperelliptic_pencil_locus_class(g: int, d: int) -> CycleClass:
    """Class of C^1_d = {D : dim|D| >= 1} on a hyperelliptic curve of genus g.

    C^1_d coincides with the locus subordinate to the (d-1)-st power of the
    hyperelliptic pencil, a series of degree 2(d-1) and dimension d-1, so its
    class is the :func:`subordinate_class` of that series, returned as built;
    it simplifies to theta - (g-d+1)x.
    """
    if not 2 <= d <= g:
        raise PreconditionError(
            f"hyperelliptic pencil locus needs 2 <= d <= g (got g={shown(g)}, d={shown(d)})"
        )
    return subordinate_class(g, d, 2 * (d - 1), d - 1)


def subordinate_pencil_intersections(k: int) -> tuple[int, int]:
    """Intersections of the pencil-subordinate locus on C_k, genus 2k-1.

    For a pencil of degree k+1, the curve of subordinate divisors meets theta
    and x in

        (2k-1) * sum_j (-1)^j C(k-2+j, j) C(2k-2, k-1-j)   and
                 sum_j (-1)^j C(k-2+j, j) C(2k-1, k-1-j)

    which collapse to 2k-1 and k.  The raw alternating sums are computed here;
    the collapsed values (and the evaluate_top route) live in the test suite.

    Only the x term u_j = (-1)^j C(k-2+j, j) C(2k-1, k-1-j) is stepped, each
    step an exact division: u_(j+1) = u_j (k-1+j)(j+1-k) / ((j+1)(k+1+j)).  As
    C(2k-1, i) is C(2k-2, i)(2k-1)/(2k-1-i), each theta term (2k-1) t_j is
    (k+j) u_j, so Abel summation over the partial sums P_j = u_0 + ... + u_j
    gives the theta value as 2k U - sum_{j<k} P_j, with U = sum_j u_j.
    """
    if k < 2:
        raise PreconditionError(f"pencil intersections need k >= 2 (got {shown(k)})")
    term = math.comb(2 * k - 1, k - 1)
    x_sum = partials = 0
    for j in range(k):
        x_sum += term
        partials += x_sum
        term = term * ((k - 1 + j) * (j + 1 - k)) // ((j + 1) * (k + 1 + j))
    return 2 * k * x_sum - partials, x_sum


def binomial_convolution_identity(m: int) -> tuple[int, int]:
    """Both sides of the convolution identity linking the two pencil-residual sums.

    For m >= 1,

        (2m+3) * sum_{l=0}^m (-1)^l (l+1) C(2m-l, m) C(2m+2, l+3)
      = -(m+2) * sum_{l=0}^m (-1)^l l(l+1) C(2m-l, m) C(2m+3, l+3)

    Returns (lhs, rhs); equality is what makes the pencil-residual divisor
    proportional to theta - (2 - 1/k)x at m = k - 2.
    """
    if m < 1:
        raise PreconditionError(f"the identity needs m >= 1 (got {shown(m)})")
    lhs_sum, rhs_sum = _residual_sums(m)
    return (2 * m + 3) * lhs_sum, -(m + 2) * rhs_sum

