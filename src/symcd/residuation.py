"""The linear action of residuation on the rank-2 divisor-class space.

Residuation sends a complete series |L| of degree 2g-2-d to the unique member
of |K - L|; on divisor classes it acts by

    theta |-> theta_hat,    theta - x |-> X_hat

where (theta_hat, X_hat) is the corresponding basis on the target moduli
space C_(2g-2-d).  Only this induced linear map carries finite data, so only
it is modeled.  For d = g-1 the map is a self-map of C_(g-1), the two bases
coincide, and the same map is an involution of the (theta, x)-plane: it fixes
theta, swaps x and theta - x, and sends theta - t*x to (1-t)theta + t*x.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import as_rational

__all__ = ["residuation_pullback"]


def residuation_pullback(a: int | Fraction, b: int | Fraction) -> tuple[Fraction, Fraction]:
    """Image of a*theta + b*x under residuation: (a + b, -b).

    The pair is the class's coefficients in the (theta_hat, X_hat) basis of
    C_(2g-2-d), or, on C_(g-1), in the (theta, x) basis itself; the map is its
    own inverse.  Floats are refused.
    """
    a, b = as_rational(a), as_rational(b)
    return a + b, -b
