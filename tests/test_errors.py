"""Refusals: the edges of the proven (g, d) ranges, and a caller's number shown whatever its size.

Each caller of ``errors._check_space`` and ``errors._check_range`` accepts
both edges of its range and refuses one step past each.

CPython refuses to turn an int of more than ``sys.get_int_max_str_digits()``
decimal digits into a string.  A library refusal must still arrive as the
library's own error, with the number shown by its bit length; with the cap
lifted, as the CLI runs, the full value is printed.
"""

import re
import sys
from fractions import Fraction

import pytest

from symcd.catalog import (
    binomial_convolution_identity,
    hyperelliptic_pencil_locus_class,
    pencil_residual_divisor_class,
    ramification_divisor_class,
    small_diagonal_class,
    solve_test_curve_system,
    subordinate_class,
    subordinate_pencil_intersections,
)
from symcd.cones import (
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
from symcd.cycles import CycleClass, theta_class
from symcd.errors import OutOfProvenDomainError, PreconditionError, shown
from symcd.verify import run_all

# (the (g, d) pairs at the edges of a range, the pairs one step past them, the refusal's text)
SPACE = ([(2, 2), (2, 9), (9, 2)], [(1, 2), (2, 1)], "must be at least 2")
GENERAL = ([(4, 2), (4, 3), (9, 2), (9, 8)], [(3, 2), (4, 1), (4, 4), (9, 1), (9, 9)], "needs g >= 4 and 2 <= d <= g-1")
HYPERELLIPTIC = ([(2, 2), (9, 2), (9, 9)], [(2, 1), (2, 3), (9, 1), (9, 10)], "needs 2 <= d <= g")
# The general volume lives on C_(g-1), so only its genus varies.
GENERAL_VOLUME = ([(4, 3)], [(3, 2)], "general volume needs g >= 4 and 2 <= d <= g-1")

RANGES = {
    "CycleClass": (lambda g, d: CycleClass(g, d, [1]), SPACE),
    "subordinate_class": (lambda g, d: subordinate_class(g, d, d, 0), SPACE),
    "small_diagonal_class": (small_diagonal_class, SPACE),
    "ramification_divisor_class": (ramification_divisor_class, GENERAL),
    "solve_test_curve_system": (solve_test_curve_system, GENERAL),
    "hyperelliptic_pencil_locus_class": (hyperelliptic_pencil_locus_class, HYPERELLIPTIC),
    "effective_slope_bound": (effective_slope_bound, GENERAL),
    "effective_cone-general": (lambda g, d: effective_cone(g, d, hyperelliptic=False), GENERAL),
    "effective_cone-hyperelliptic": (lambda g, d: effective_cone(g, d, hyperelliptic=True), HYPERELLIPTIC),
    "nef_facts-general": (lambda g, d: nef_facts(g, d, hyperelliptic=False), SPACE),
    "nef_facts-hyperelliptic": (lambda g, d: nef_facts(g, d, hyperelliptic=True), HYPERELLIPTIC),
    "hyperelliptic_volume_limit": (hyperelliptic_volume_limit, HYPERELLIPTIC),
    "general_volume_limit": (lambda g, d: general_volume_limit(g), GENERAL_VOLUME),
    "volume_general": (lambda g, d: volume_general(g, 0), GENERAL_VOLUME),
}
EDGE_CASES = [
    pytest.param(name, g, d, accepted, id=f"{name}-{g}-{d}-{'accepted' if accepted else 'refused'}")
    for name, (_, (edges, beyond, _)) in RANGES.items()
    for pairs, accepted in ((edges, True), (beyond, False))
    for g, d in pairs
]


@pytest.mark.parametrize("name, g, d, accepted", EDGE_CASES)
def test_each_range_check_accepts_its_edges_and_refuses_one_step_past(name, g, d, accepted):
    call, (_, _, text) = RANGES[name]
    if accepted:
        call(g, d)
    else:
        with pytest.raises(PreconditionError, match=re.escape(text)):
            call(g, d)


HUGE = -(10**5000)  # 16,610 bits, past the default cap of 4,300 digits

# (call, error, the refused value as the message prints it at the default cap)
REFUSALS = {
    "theta_class": (lambda: theta_class(HUGE, 3), PreconditionError, HUGE),
    "subordinate_class": (lambda: subordinate_class(HUGE, 3, 3, 0), PreconditionError, HUGE),
    "effective_cone": (lambda: effective_cone(HUGE, 3, hyperelliptic=False), PreconditionError, HUGE),
    "nef_facts": (lambda: nef_facts(HUGE, 3, hyperelliptic=True), PreconditionError, HUGE),
    "volume_general": (lambda: volume_general(HUGE, 0), PreconditionError, HUGE),
    "volume_general_t": (lambda: volume_general(5, Fraction(10**5000)), OutOfProvenDomainError, 10**5000),
    "volume_hyperelliptic": (lambda: volume_hyperelliptic(HUGE, 3, 0), PreconditionError, HUGE),
    "effective_slope_bound": (lambda: effective_slope_bound(HUGE, 3), PreconditionError, HUGE),
    "pencil_residual_divisor_class": (lambda: pencil_residual_divisor_class(HUGE), PreconditionError, HUGE),
    "class_power": (lambda: theta_class(5, 3) ** 10**5000, PreconditionError, 10**5000),
    "volume_integrality": (lambda: volume_integrality(HUGE), PreconditionError, HUGE),
    "subordinate_pencil_intersections": (lambda: subordinate_pencil_intersections(HUGE), PreconditionError, HUGE),
    "binomial_convolution_identity": (lambda: binomial_convolution_identity(HUGE), PreconditionError, HUGE),
    "run_all": (lambda: run_all("combsum", HUGE), PreconditionError, HUGE),
}


@pytest.fixture
def uncapped():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_shown_prints_what_fits_and_a_bit_length_otherwise():
    assert shown(7) == "7"
    assert shown(-12) == "-12"
    assert shown(Fraction(-3, 4)) == "-3/4"
    assert shown(10**4000) == "1" + "0" * 4000
    assert shown(HUGE) == "<negative number of 16610 bits>"
    assert shown(Fraction(1, 10**5000)) == "<number of 16610 bits>"
    assert shown(Fraction(-(2**20000), 3)) == "<negative number of 20001 bits>"


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_a_huge_number_is_refused_by_the_library_error(name):
    call, error, value = REFUSALS[name]
    with pytest.raises(error) as excinfo:
        call()
    assert shown(value) in str(excinfo.value)
    assert "bits>" in str(excinfo.value)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_with_the_cap_lifted_the_full_value_is_printed(uncapped, name):
    call, error, value = REFUSALS[name]
    with pytest.raises(error) as excinfo:
        call()
    assert str(value) in str(excinfo.value)
    assert "bits>" not in str(excinfo.value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CycleClass(5, 3, []), "a class needs at least one coefficient"),
        (lambda: theta_class(5, 3) ** -1, "class exponent must be a non-negative integer"),
        (lambda: Ray(1.5, 2), "ray coefficients must be integers"),
    ],
    ids=["class-without-coefficients", "negative-class-power", "ray-of-a-non-integer"],
)
def test_a_malformed_value_is_refused_with_its_reason(call, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()
