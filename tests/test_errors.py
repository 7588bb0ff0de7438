"""Refusals that print a caller's number, whatever its size.

CPython refuses to turn an int of more than ``sys.get_int_max_str_digits()``
decimal digits into a string.  A library refusal must still arrive as the
library's own error, with the number shown by its bit length; with the cap
lifted, as the CLI runs, the full value is printed.
"""

import sys
from fractions import Fraction

import pytest

from symcd.catalog import pencil_residual_divisor_class, subordinate_class
from symcd.cones import CurveContext, CurveType, effective_slope_bound, volume_general, volume_hyperelliptic
from symcd.cycles import theta_class
from symcd.errors import OutOfProvenDomainError, PreconditionError, shown
from symcd.verify import run_all

HUGE = -(10**5000)  # 16,610 bits, past the default cap of 4,300 digits

# (call, error, the refused value as the message prints it at the default cap)
REFUSALS = {
    "theta_class": (lambda: theta_class(HUGE, 3), PreconditionError, HUGE),
    "subordinate_class": (lambda: subordinate_class(HUGE, 3, 3, 0), PreconditionError, HUGE),
    "CurveContext": (lambda: CurveContext(HUGE, 3, CurveType.GENERAL), PreconditionError, HUGE),
    "volume_general": (lambda: volume_general(HUGE, 0), PreconditionError, HUGE),
    "volume_general_t": (lambda: volume_general(5, Fraction(10**5000)), OutOfProvenDomainError, 10**5000),
    "volume_hyperelliptic": (lambda: volume_hyperelliptic(HUGE, 3, 0), PreconditionError, HUGE),
    "effective_slope_bound": (lambda: effective_slope_bound(HUGE, 3), PreconditionError, HUGE),
    "pencil_residual_divisor_class": (lambda: pencil_residual_divisor_class(HUGE), PreconditionError, HUGE),
    "class_power": (lambda: theta_class(5, 3) ** 10**5000, PreconditionError, 10**5000),
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
