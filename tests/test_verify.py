import json
import math
import re
from fractions import Fraction

import pytest

from symcd import catalog, cli, verify
from symcd.catalog import binomial_convolution_identity
from symcd.combinatorics import gen_binomial
from symcd.cycles import CycleClass, evaluate_top, multiply, theta_class, x_class
from symcd.errors import PreconditionError, shown
from symcd.verify import (
    SUITES,
    CheckReport,
    CheckStatus,
    Counterexample,
    all_passed,
    check_combsum,
    check_diagonal_agreement,
    check_dd_system,
    check_orth,
    check_pencil_residual_link,
    check_volume_identity,
    diagonal_statement_discrepancy,
    pencil_expansion_polynomial,
    run_all,
    sweep,
    volume_polynomial,
)


def test_individual_checks_pass_on_small_ranges():
    assert check_combsum(20).status is CheckStatus.PASS
    assert check_pencil_residual_link(10).status is CheckStatus.PASS
    assert check_orth(12).status is CheckStatus.PASS
    assert check_diagonal_agreement(7).status is CheckStatus.PASS
    assert check_dd_system(8).status is CheckStatus.PASS
    assert check_volume_identity(8).status is CheckStatus.PASS


def test_sweep_reports_first_counterexample():
    # mutate the identity: flip the sign of the right-hand side
    def mutated(m):
        lhs, rhs = binomial_convolution_identity(m)
        return lhs, -rhs

    report = sweep("mutated-identity", "1 <= m <= 10", range(1, 11), mutated)
    assert report.status is CheckStatus.FAIL
    assert report.counterexample is not None
    assert report.counterexample.parameters == (1,)
    assert report.counterexample.lhs == "30"
    assert report.counterexample.rhs == "-30"


def test_sweep_refuses_an_empty_range():
    with pytest.raises(PreconditionError):
        sweep("empty", "1 <= m <= 0", range(1, 1), lambda m: (m, m))
    with pytest.raises(PreconditionError):
        check_combsum(-5)
    with pytest.raises(PreconditionError):
        check_pencil_residual_link(2)


def test_discrepancy_report_is_not_a_failure():
    report = diagonal_statement_discrepancy()
    assert report.status is CheckStatus.DISCREPANCY
    assert report.counterexample.parameters == (4, 3)
    assert "-102" in report.counterexample.lhs
    assert "-90" in report.counterexample.rhs
    assert all_passed([report])


def test_run_all_with_reduced_limits():
    reports = run_all(bound=8)
    assert all_passed(reports)
    statuses = {report.name: report.status for report in reports}
    assert statuses["bipartition-diagonal-statement-variant"] is CheckStatus.DISCREPANCY
    assert sum(1 for status in statuses.values() if status is CheckStatus.PASS) == len(reports) - 1
    assert [report.parameter_range for report in reports] == [
        "1 <= m <= 8",
        "3 <= k <= 8",
        "2 <= k <= 8",
        "3 <= g <= 8, 2 <= d <= g-1",
        "(g, d) = (4, 3)",
        "4 <= g <= 8, 2 <= d <= g-1",
        "4 <= g <= 8",
    ]


def test_run_all_default_limits_pass():
    # full default sweep: g <= 20, k <= 100, m <= 200; finishes in seconds
    reports = run_all()
    assert all_passed(reports)
    assert len(reports) == 7
    assert [report.parameter_range for report in reports] == [
        "1 <= m <= 200",
        "3 <= k <= 50",
        "2 <= k <= 100",
        "3 <= g <= 12, 2 <= d <= g-1",
        "(g, d) = (4, 3)",
        "4 <= g <= 20, 2 <= d <= g-1",
        "4 <= g <= 20",
    ]
    assert run_all("all", None) == reports


def test_run_all_runs_one_suite_without_caps():
    assert [report.parameter_range for report in run_all("pencil-link", 60)] == ["3 <= k <= 60"]
    diagonal = run_all("diagonal", 13)
    assert [report.name for report in diagonal] == [
        "bipartition-diagonal-agreement",
        "bipartition-diagonal-statement-variant",
    ]
    assert diagonal[0].parameter_range == "3 <= g <= 13, 2 <= d <= g-1"
    assert run_all("orth") == [check_orth()]


def test_all_passed_counts_injected_failures():
    reports = run_all(bound=5)
    broken = CheckReport("injected", "n/a", CheckStatus.FAIL)
    assert all_passed(reports)
    assert not all_passed([*reports, broken])
    assert sum(1 for report in [*reports, broken] if report.status is CheckStatus.FAIL) == 1


def test_cli_offers_exactly_the_runner_suites():
    assert cli._SUITE_NAMES == tuple(SUITES)


def test_run_all_calls_checks_rebound_on_the_module(monkeypatch):
    calls = []
    original = verify.check_orth

    def patched(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, "check_orth", patched)
    run_all("orth", 3)
    run_all()
    run_all(bound=4)
    assert calls == [(3,), (), (4,)]


def test_volume_polynomials_match_and_evaluate():
    for g in (4, 5, 6):
        lhs = pencil_expansion_polynomial(g)
        rhs = volume_polynomial(g)
        assert lhs == rhs
        assert sum(lhs) == 1  # value at t = 1
    # value at t = 1/2 for g = 4, computed by Horner on the coefficients
    coeffs = volume_polynomial(4)
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * Fraction(1, 2) + c
    assert value == Fraction(73, 8)


@pytest.mark.parametrize("route", [volume_polynomial, pencil_expansion_polynomial], ids=lambda route: route.__name__)
@pytest.mark.parametrize("g", [2, 1, 0, -5, -(10**5000)], ids=["2", "1", "0", "-5", "-10^5000"])
def test_volume_routes_refuse_a_genus_below_three(route, g):
    # g = 3 is the first genus both routes answer; -10^5000 is named by its bit length
    assert route(3) == [6, -6, 1]
    with pytest.raises(PreconditionError, match=re.escape(f"g >= 3 (got {shown(g)})")):
        route(g)


def _class_product_expansion(g):
    """((1-t)theta + t*x)^(g-1) expanded with one class per power of t, by
    class products, as the expansion was computed before it ran over Z[t]."""
    d = g - 1
    theta = theta_class(g, d)
    x_minus_theta = x_class(g, d) - theta
    classes = [theta**0]
    for _ in range(d):
        longer = []
        for j in range(len(classes) + 1):
            terms = []
            if j < len(classes):
                terms.append(multiply(classes[j], theta))
            if j >= 1:
                terms.append(multiply(classes[j - 1], x_minus_theta))
            longer.append(sum(terms[1:], terms[0]))
        classes = longer
    return [evaluate_top(c) for c in classes]


def test_integer_expansion_matches_class_products():
    for g in range(4, 26):
        assert pencil_expansion_polynomial(g) == _class_product_expansion(g), g


def _fresh_pencil_expansion(g):
    """((1-t)theta + t*x)^(g-1) expanded for this g alone, in a square table
    of rows sized by g, and evaluated on C_(g-1)."""
    d = g - 1
    rows = [[0] * (d + 1) for _ in range(d + 1)]
    rows[0][0] = 1
    for n in range(1, d + 1):
        for k in range(n, 0, -1):
            for j in range(n, k - 1, -1):
                rows[k][j] += rows[k - 1][j - 1] - rows[k][j - 1]
        for j in range(n, 0, -1):
            rows[0][j] -= rows[0][j - 1]
    return [evaluate_top(CycleClass.from_numerators(g, d, [row[j] for row in rows])) for j in range(d + 1)]


def test_one_shared_expansion_matches_a_fresh_expansion_per_genus():
    shared = verify._pencil_expansions(3)
    for g in range(3, 101):
        expansion = next(shared)
        if g <= 40 or g == 100:
            assert expansion == _fresh_pencil_expansion(g), g


def test_volume_polynomial_constant_term_is_factorial():
    from math import factorial

    for g in range(4, 12):
        assert volume_polynomial(g)[0] == factorial(g)


def _binomial_volume_polynomial(g):
    """Reference: the coefficients with one gen_binomial call per term."""
    coeffs = [0] * g
    for k in range(g):
        scale = gen_binomial(g - 1, k) * (math.factorial(g) // math.factorial(k + 1))
        for j in range(g - k):
            coeffs[k + j] += scale * gen_binomial(g - 1 - k, j) * (-1) ** j
    return coeffs


def test_stepped_volume_polynomial_matches_binomial_terms():
    for g in range(4, 41):
        assert volume_polynomial(g) == _binomial_volume_polynomial(g), g


def test_diagonal_check_rejects_tiny_bound():
    with pytest.raises(PreconditionError):
        check_diagonal_agreement(3)


@pytest.mark.parametrize(
    "check",
    [check_combsum, check_pencil_residual_link, check_orth, check_diagonal_agreement, check_dd_system, check_volume_identity],
    ids=lambda check: check.__name__,
)
def test_checks_refuse_a_bound_too_long_to_print(check):
    # -10^5000 has more decimal digits than CPython prints by default; the
    # refusal names it by its bit length instead.
    with pytest.raises(PreconditionError, match="negative number of 16610 bits"):
        check(-(10**5000))


# ----------------------------------------------------------------- value types


def test_counterexample_value_contract(value_contract):
    fields = {"parameters": (4, 3), "lhs": "1", "rhs": "2"}
    value_contract(Counterexample, fields, "Counterexample(parameters=(4, 3), lhs='1', rhs='2')")


def test_check_report_value_contract(value_contract):
    fields = {
        "name": "pencil-orthogonality",
        "parameter_range": "2 <= k <= 5",
        "status": CheckStatus.PASS,
        "counterexample": None,
        "note": "",
    }
    expected = (
        "CheckReport(name='pencil-orthogonality', parameter_range='2 <= k <= 5', "
        "status=<CheckStatus.PASS: 'pass'>, counterexample=None, note='')"
    )
    value_contract(CheckReport, fields, expected, defaults=("counterexample", "note"))
    assert check_orth(5) == CheckReport(**fields)
    failed = CheckReport("n", "r", CheckStatus.FAIL, Counterexample((2,), "1", "0"), note="x")
    assert repr(failed) == (
        "CheckReport(name='n', parameter_range='r', status=<CheckStatus.FAIL: 'fail'>, "
        "counterexample=Counterexample(parameters=(2,), lhs='1', rhs='0'), note='x')"
    )


# ------------------------------------------------------------ mutation guards


def _first_plus_one(value):
    """``value`` with its first entry one unit larger: a number, or one
    coefficient of a class, of a test-curve solution or of a sequence."""
    if isinstance(value, catalog.TestCurveSolution):
        divisor = _first_plus_one(value.divisor)
        return catalog.TestCurveSolution(divisor, value.x_curve_intersection, value.diagonal_intersection)
    if isinstance(value, (tuple, list)):
        return type(value)([_first_plus_one(value[0]), *value[1:]])
    if hasattr(value, "numerators"):
        first, *rest = value.numerators
        return type(value).from_numerators(value.genus, value.d, [first + value.denominator, *rest], value.denominator)
    return value + 1


def _orthogonality_plus_one(evaluate_top):
    """``evaluate_top``, one unit off where it evaluates the orthogonality at k = 5."""

    def mutated(p, factor=None):
        value = evaluate_top(p, factor)
        return value + 1 if factor is not None and factor.numerators == (5, -9) else value

    return mutated


def _expansion_plus_one_at_seven(pencil_expansions):
    """``_pencil_expansions``, one unit off in the expansion it yields for g = 7."""

    def mutated(first):
        for g, expansion in enumerate(pencil_expansions(first), first):
            yield _first_plus_one(expansion) if g == 7 else expansion

    return mutated


# (suite, --max, route that verify calls, case, the route's arguments at that case
# or a function that mutates the route), each with an explicit id so that
# removing a row renames no other case
MUTATIONS = [
    pytest.param("combsum", 10, "binomial_convolution_identity", (7,), (7,), id="combsum-binomial_convolution_identity"),
    pytest.param("pencil-link", 10, "pencil_residual_sums", (6,), (6,), id="pencil-link-pencil_residual_sums"),
    pytest.param("pencil-link", 10, "pencil_residual_divisor_class", (5,), (5,), id="pencil-link-pencil_residual_divisor_class"),
    pytest.param("orth", 10, "subordinate_pencil_intersections", (6,), (6,), id="orth-subordinate_pencil_intersections"),
    pytest.param("orth", 10, "subordinate_class", (5,), (9, 5, 6, 1), id="orth-subordinate_class"),
    pytest.param("orth", 10, "theta_class", (7,), (13, 7), id="orth-theta_class"),
    pytest.param("orth", 10, "evaluate_top", (5,), _orthogonality_plus_one, id="orth-evaluate_top"),
    pytest.param("diagonal", 8, "bipartition_diagonal_extraction", (6, 3), (6, 3), id="diagonal-bipartition_diagonal_extraction"),
    pytest.param("diagonal", 8, "bipartition_diagonal_class", (7, 5), (7, 5), id="diagonal-bipartition_diagonal_class"),
    pytest.param("dd-system", 8, "solve_test_curve_system", (7, 3), (7, 3), id="dd-system-solve_test_curve_system"),
    pytest.param("dd-system", 8, "ramification_divisor_class", (6, 4), (6, 4), id="dd-system-ramification_divisor_class"),
    pytest.param("dd-system", 8, "effective_slope_bound", (8, 2), (8, 2), id="dd-system-effective_slope_bound"),
    pytest.param("volume", 8, "volume_polynomial", (6,), (6,), id="volume-volume_polynomial"),
    pytest.param("volume", 8, "_pencil_expansions", (7,), _expansion_plus_one_at_seven, id="volume-_pencil_expansions"),
]


@pytest.mark.parametrize("suite, bound, route, case, arguments", MUTATIONS)
def test_every_suite_fails_when_one_route_is_off_by_one_unit(monkeypatch, capsys, suite, bound, route, case, arguments):
    original = getattr(verify, route)
    if callable(arguments):
        mutated = arguments(original)
    else:

        def mutated(*args, **kwargs):
            value = original(*args, **kwargs)
            return _first_plus_one(value) if args == arguments else value

    monkeypatch.setattr(verify, route, mutated)
    code = cli.main(["--format", "json", "verify", "--suite", suite, "--max", str(bound)])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    report = document["result"]["reports"][0]
    assert report["status"] == "fail"
    assert report["counterexample"]["parameters"] == list(case)
