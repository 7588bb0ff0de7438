"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


class PreconditionError(ValueError):
    """A documented parameter precondition was violated."""


class OutOfProvenDomainError(ValueError):
    """Evaluation was requested outside the interval where the formula is proven.

    Volume formulas in this package are piecewise results with hard endpoints;
    extrapolating past them would silently produce unproven numbers, so we
    refuse instead.
    """


def shown(value: int | Fraction) -> str:
    """A caller's number for a message: ``str(value)``, or its bit length when
    ``sys.get_int_max_str_digits()`` refuses to print it."""
    try:
        return str(value)
    except ValueError:
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        return f"<{'negative ' if value < 0 else ''}number of {bits} bits>"
