"""One-command re-derivation of every identity the package can check exactly.

Each check sweeps a parameter range and compares two independently computed
exact values; there are no tolerances anywhere.  A failing check reports the
first counterexample with both values.  The known published discrepancy in the
two-part diagonal class is reported as its own first-class outcome
(``documented-discrepancy``) so that it is neither hidden nor counted as a
failure.

The sweeps compute in integers from their inputs to their comparisons:
binomials are stepped by exact ratios, classes are integer numerators over
one denominator and are compared as classes, a product is evaluated in top
degree without being built, and the formal expansion of the volume runs over
Z[t].  The only ``Fraction``s in a check are the values that
``evaluate_top`` and ``effective_slope_bound`` return.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction

from .catalog import (
    binomial_convolution_identity,
    bipartition_diagonal_class,
    bipartition_diagonal_extraction,
    pencil_residual_divisor_class,
    pencil_residual_sums,
    ramification_divisor_class,
    solve_test_curve_system,
    subordinate_class,
    subordinate_pencil_intersections,
)
from .cones import Ray, effective_slope_bound
from .cycles import CycleClass, DivisorClass, _Frozen, evaluate_top, theta_class, x_class
from .errors import PreconditionError, shown

__all__ = [
    "CheckStatus",
    "Counterexample",
    "CheckReport",
    "SUITES",
    "sweep",
    "check_combsum",
    "check_pencil_residual_link",
    "check_orth",
    "check_diagonal_agreement",
    "diagonal_statement_discrepancy",
    "check_dd_system",
    "check_volume_identity",
    "run_all",
    "all_passed",
    "volume_polynomial",
    "pencil_expansion_polynomial",
]


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    DISCREPANCY = "documented-discrepancy"


class Counterexample(_Frozen):
    __slots__ = ("parameters", "lhs", "rhs")


class CheckReport(_Frozen):
    __slots__ = ("name", "parameter_range", "status", "counterexample", "note")
    _defaults = {"counterexample": None, "note": ""}


def sweep(name: str, parameter_range: str, cases: Iterable, sides: Callable) -> CheckReport:
    """Compare two independently computed values over a parameter sweep.

    ``sides(params)`` returns a (lhs, rhs) pair; the first inequality turns
    into a FAIL report carrying the counterexample, otherwise the check passes.
    A sweep without a single case is refused rather than passed vacuously.
    """
    checked = 0
    for params in cases:
        checked += 1
        lhs, rhs = sides(params)
        if lhs != rhs:
            return CheckReport(
                name,
                parameter_range,
                CheckStatus.FAIL,
                Counterexample(params if isinstance(params, tuple) else (params,), str(lhs), str(rhs)),
            )
    if not checked:
        raise PreconditionError(f"{name}: the range {parameter_range} holds no cases")
    return CheckReport(name, parameter_range, CheckStatus.PASS)


def check_combsum(m_max: int = 200) -> CheckReport:
    """Both sides of the binomial convolution identity agree."""
    return sweep(
        "binomial-convolution-identity", f"1 <= m <= {shown(m_max)}", range(1, m_max + 1), binomial_convolution_identity
    )


def check_pencil_residual_link(k_max: int = 50) -> CheckReport:
    """(2k-1)*A = -k*B links the convolution identity at m = k-2 to the
    pencil-residual divisor, which must span the ray of theta - (2 - 1/k)x."""

    def sides(k: int):
        a_sum, b_sum = pencil_residual_sums(k)
        ray = Ray.from_class(pencil_residual_divisor_class(k))
        return ((2 * k - 1) * a_sum, ray), (-k * b_sum, Ray(k, -(2 * k - 1)))

    return sweep("pencil-residual-link", f"3 <= k <= {shown(k_max)}", range(3, k_max + 1), sides)


def check_orth(k_max: int = 100) -> CheckReport:
    """The pencil-subordinate curve meets theta in 2k-1 and x in k, by the
    displayed alternating sums and again by top-degree evaluation, and the
    class theta - (2 - 1/k)x is exactly orthogonal to it."""

    def sides(k: int):
        g = 2 * k - 1
        sums = subordinate_pencil_intersections(k)
        locus = subordinate_class(g, k, k + 1, 1)
        top = (evaluate_top(locus, theta_class(g, k)), evaluate_top(locus, x_class(g, k)))
        # theta - (2 - 1/k)x, as (k*theta - (2k-1)x)/k
        orthogonal = evaluate_top(locus, DivisorClass.from_numerators(g, k, (k, 1 - 2 * k), k))
        expected = (2 * k - 1, k)
        return (sums, top, orthogonal), (expected, expected, 0)

    return sweep("pencil-orthogonality", f"2 <= k <= {shown(k_max)}", range(2, k_max + 1), sides)


def check_diagonal_agreement(g_max: int = 12) -> CheckReport:
    """Closed form of the two-part diagonal (proof variant) equals the
    brute-force coefficient extraction."""
    if g_max < 4:
        raise PreconditionError(f"diagonal sweep needs g_max >= 4 (got {shown(g_max)})")

    def sides(params: tuple[int, int]):
        g, d = params
        return bipartition_diagonal_class(g, d), bipartition_diagonal_extraction(g, d)

    cases = ((g, d) for g in range(3, g_max + 1) for d in range(2, g))
    return sweep("bipartition-diagonal-agreement", f"3 <= g <= {shown(g_max)}, 2 <= d <= g-1", cases, sides)


def diagonal_statement_discrepancy() -> CheckReport:
    """Document that the statement variant of the two-part diagonal disagrees
    with the extraction oracle (x*theta coefficient off by d-1 for d >= 2)."""
    statement = bipartition_diagonal_class(4, 3, variant="statement")
    extracted = bipartition_diagonal_extraction(4, 3)
    return CheckReport(
        "bipartition-diagonal-statement-variant",
        "(g, d) = (4, 3)",
        CheckStatus.DISCREPANCY,
        Counterexample(
            (4, 3),
            f"{statement.coeffs[2]} (statement variant, x^2*theta coefficient)",
            f"{extracted.coeffs[2]} (coefficient extraction)",
        ),
        note=(
            "known erratum: the statement's x*theta constant 2d^2-d-2 should be "
            "2d^2-2d-1 as in the proof; the extraction oracle confirms the proof value"
        ),
    )


def check_dd_system(g_max: int = 20) -> CheckReport:
    """The test-curve linear system reproduces the closed-form ramification
    divisor, with slope b/a equal to the proven effective bound."""

    def sides(params: tuple[int, int]):
        g, d = params
        solved = solve_test_curve_system(g, d).divisor
        bound = effective_slope_bound(g, d)
        # b == bound * a, over the solved class's denominator: numerators (a, -b)
        a, minus_b = solved.numerators
        return (
            (solved, -minus_b * bound.denominator),
            (ramification_divisor_class(g, d), bound.numerator * a),
        )

    cases = ((g, d) for g in range(4, g_max + 1) for d in range(2, g))
    return sweep("ramification-test-curves", f"4 <= g <= {shown(g_max)}, 2 <= d <= g-1", cases, sides)


def volume_polynomial(g: int) -> list[int]:
    """Coefficients in t of sum_k C(g-1,k) * g!/(k+1)! * t^k (1-t)^(g-1-k), for g >= 3.

    The scale T_k = C(g-1,k) g!/(k+1)! of term k steps by
    T_(k+1) = T_k (g-1-k)/((k+1)(k+2)), and t^k (1-t)^n, n = g-1-k, adds
    T_k (-1)^j C(n, j) at degree k+j, stepped by (-1)(n-j)/(j+1); every
    division is exact, since each quotient is an integer.
    """
    if g < 3:
        raise PreconditionError(f"the volume polynomial needs g >= 3 (got {shown(g)})")
    coeffs = [0] * g
    scale = math.factorial(g)
    for k in range(g):
        term, n = scale, g - 1 - k
        for j in range(n + 1):
            coeffs[k + j] += term
            term = -term * (n - j) // (j + 1)
        scale = scale * n // ((k + 1) * (k + 2))
    return coeffs


def _pencil_expansions(first: int):
    """For g = first, first+1, ...: the coefficients in t of the top-degree
    evaluation of ((1-t)theta + t*x)^(g-1), for first >= 3.

    The powers are expanded factor by factor as one class whose coefficients
    are integer polynomials in t: ``rows[k][j]`` is the coefficient of t^j in
    the coefficient of x^k * theta^(n-k) after n factors.  Each factor, the
    same for every genus, sends row k to (1-t)*row[k] + t*row[k-1].  After g-1
    factors the coefficients of each power t^j form a class of their own,
    evaluated on C_(g-1).  No binomial is used and nothing is shared with
    :func:`volume_polynomial`, so this is an independent route to it.
    """
    if first < 3:
        raise PreconditionError(f"the pencil expansion needs g >= 3 (got {shown(first)})")
    rows = [[1]]
    while True:
        n = len(rows)
        rows = [row + [0] for row in rows] + [[0] * (n + 1)]
        # Walking k and j down leaves rows[k-1] and rows[k][j-1] as they were
        # before this factor.  x^k comes with t^k, so rows[k][j] = 0 for j < k.
        for k in range(n, 0, -1):
            row, lower = rows[k], rows[k - 1]
            for j in range(n, k - 1, -1):
                row[j] += lower[j - 1] - row[j - 1]
        row = rows[0]
        for j in range(n, 0, -1):
            row[j] -= row[j - 1]
        if n + 1 >= first:
            yield [evaluate_top(CycleClass.from_numerators(n + 1, n, [row[j] for row in rows])) for j in range(n + 1)]


def pencil_expansion_polynomial(g: int) -> list[Fraction]:
    """Coefficients in t of the top-degree evaluation of ((1-t)theta + t*x)^(g-1), for g >= 3."""
    return next(_pencil_expansions(g))


def check_volume_identity(g_max: int = 20) -> CheckReport:
    """The closed volume formula agrees with the formal expansion of
    ((1-t)theta + t*x)^(g-1) as exact polynomials in t, and equals 1 at t = 1."""
    expansions = _pencil_expansions(4)  # one expansion for the sweep; case g takes the next power

    def sides(g: int):
        expansion = next(expansions)
        return (expansion, sum(expansion)), (volume_polynomial(g), 1)

    return sweep("volume-polynomial-identity", f"4 <= g <= {shown(g_max)}", range(4, g_max + 1), sides)


_Suite = namedtuple("_Suite", "checks minimum maximum cap")

# One row per suite, in the order ``run_all`` runs them: the checks it runs
# (the first takes the bound, the rest take none), the smallest bound at which
# its sweep holds a case, the largest it accepts (at most about a second of
# work), and the cap on the bound under "all" (None for none; below the
# maximum).  Checks are named, not held, and looked up on this module at every
# run, so that rebinding one here (as the benchmark's tracer does) takes effect.
SUITES = {
    "combsum": _Suite(("check_combsum",), 1, 1000, None),
    "pencil-link": _Suite(("check_pencil_residual_link",), 3, 800, 50),
    "orth": _Suite(("check_orth",), 2, 500, None),
    "diagonal": _Suite(("check_diagonal_agreement", "diagonal_statement_discrepancy"), 4, 60, 12),
    "dd-system": _Suite(("check_dd_system",), 4, 140, None),
    "volume": _Suite(("check_volume_identity",), 4, 100, None),
}


def run_all(suite: str = "all", bound: int | None = None) -> list[CheckReport]:
    """Run one suite, or every suite under "all", up to ``bound``.

    Without a bound each check runs at its own default; under "all" a bound is
    clamped to each suite's cap.  A bound below the suite's minimum, or above
    its maximum once clamped, is refused.
    """
    rows = SUITES.values() if suite == "all" else (SUITES[suite],)
    # A capped suite runs at its cap under "all", so only the others' maxima bind there.
    low = max(row.minimum for row in rows)
    high = min(row.maximum for row in rows if not (suite == "all" and row.cap))
    if bound is not None and not low <= bound <= high:
        limit = f"at least {low}" if bound < low else f"at most {high}"
        raise PreconditionError(f"--max must be {limit} for suite {suite!r} (got {shown(bound)})")
    checks = globals()
    reports = []
    for (first, *rest), _, _, cap in rows:
        if bound is None:
            reports.append(checks[first]())
        else:
            reports.append(checks[first](min(bound, cap) if suite == "all" and cap else bound))
        reports += [checks[name]() for name in rest]
    return reports


def all_passed(reports: Iterable[CheckReport]) -> bool:
    """True when no report failed; documented discrepancies do not count as failures."""
    return all(report.status is not CheckStatus.FAIL for report in reports)
