"""Exception types shared across the package, and the checks of the (g, d) ranges."""

from __future__ import annotations


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


def _check_space(g: int, d: int) -> None:
    """Refuse a (g, d) outside every space the package works on: C_d needs g >= 2 and d >= 2."""
    if g < 2:
        raise PreconditionError(f"genus must be at least 2 (got {shown(g)})")
    if d < 2:
        raise PreconditionError(f"symmetric power index must be at least 2 (got {shown(d)})")


def _check_range(what: str, g: int, d: int, hyperelliptic: bool) -> None:
    """Refuse a (g, d) outside the range where ``what`` is proven for its curve type.

    A hyperelliptic curve's results hold for 2 <= d <= g; a general curve's,
    on C_(g-1) and below, need g >= 4 and 2 <= d <= g-1.
    """
    if hyperelliptic:
        if not 2 <= d <= g:
            raise PreconditionError(f"{what} needs 2 <= d <= g (got g={shown(g)}, d={shown(d)})")
    elif g < 4 or not 2 <= d <= g - 1:
        raise PreconditionError(f"{what} needs g >= 4 and 2 <= d <= g-1 (got g={shown(g)}, d={shown(d)})")
