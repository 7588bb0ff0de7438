"""The tests' exact combinatorial references.

:func:`gen_binomial` is the binomial coefficient with an arbitrary (possibly
negative) integer upper index, and :class:`BivariateSeries` is a bivariate
polynomial type truncated at total degree 2, the brute-force reference for the
closed-form [t1*t2] extraction in
:func:`symcd.catalog.bipartition_diagonal_extraction`.  No library route and
no subcommand loads this module.  Both names stay until the benchmark refresh
(ROADMAP Direction 1), because ``perfbench/tracer.py`` wraps them by name, and
``as_rational`` too, which is imported here from its home, :mod:`symcd.cycles`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _EXPORTS
from .cycles import as_rational

__all__ = list(_EXPORTS["combinatorics"])


def gen_binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integer n and k >= 0.

    For negative upper index this is the generalized value
    ``n(n-1)...(n-k+1)/k! = (-1)^k * C(k-n-1, k)``; in particular
    C(-1, k) = (-1)^k.
    """
    if k < 0:
        raise ValueError(f"lower index must be non-negative (got {k})")
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


class BivariateSeries:
    """Polynomial in two formal variables t1, t2 truncated at total degree 2.

    This is the reference that the closed form
    [t1*t2] (1 + a*t1 + b*t2)^n (1 + c*t1 + e*t2)^m
    = n(n-1)ab + m(m-1)ce + nm(ae + bc) is tested against; no library route
    multiplies series any more.

    Exponent pairs (i, j) with i + j > 2 are never stored; multiplication drops
    them.  Integer powers of series with unit-like constant term are supported
    for negative exponents as well, via truncated inversion followed by binary
    exponentiation, so that [t1*t2] of expressions such as
    (1 + 2*t1 + 3*t2)^(-2) * (1 + 4*t1 + 9*t2)^4 is exact.

    Instances are immutable; all operations return new series.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: dict[tuple[int, int], int | Fraction] | None = None):
        coeffs: dict[tuple[int, int], Fraction] = {}
        for (i, j), value in (coefficients or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"exponents must be non-negative (got {(i, j)})")
            if i + j > 2:
                raise ValueError(f"exponent pair {(i, j)} exceeds the truncation degree 2")
            value = as_rational(value)
            if value:
                coeffs[(i, j)] = value
        self._coeffs = coeffs

    @classmethod
    def linear(cls, constant: int | Fraction, t1: int | Fraction, t2: int | Fraction) -> "BivariateSeries":
        """The series constant + t1_coeff*t1 + t2_coeff*t2."""
        return cls({(0, 0): constant, (1, 0): t1, (0, 1): t2})

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._coeffs.get((i, j), Fraction(0))

    def items(self):
        return self._coeffs.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "BivariateSeries(0)"
        terms = []
        for (i, j), value in sorted(self._coeffs.items()):
            parts = [str(value)]
            if i:
                parts.append("t1" if i == 1 else f"t1^{i}")
            if j:
                parts.append("t2" if j == 1 else f"t2^{j}")
            terms.append("*".join(parts))
        return "BivariateSeries(" + " + ".join(terms) + ")"

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        coeffs = dict(self._coeffs)
        for key, value in other._coeffs.items():
            coeffs[key] = coeffs.get(key, Fraction(0)) + value
        return BivariateSeries(coeffs)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        coeffs: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self._coeffs.items():
            for (i2, j2), v2 in other._coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > 2:
                    continue
                coeffs[(i, j)] = coeffs.get((i, j), Fraction(0)) + v1 * v2
        return BivariateSeries(coeffs)

    def inverse(self) -> "BivariateSeries":
        """Multiplicative inverse modulo total degree 3; constant term must be nonzero."""
        constant = self.coefficient(0, 0)
        if not constant:
            raise ValueError("series with zero constant term has no inverse")
        # Write self = c*(1 + B) with B of positive order; then 1/self = (1 - B + B^2)/c.
        tail = BivariateSeries({key: value / constant for key, value in self._coeffs.items() if key != (0, 0)})
        one = BivariateSeries({(0, 0): 1})
        result = one + BivariateSeries({key: -value for key, value in tail.items()}) + tail * tail
        return BivariateSeries({key: value / constant for key, value in result.items()})

    def __pow__(self, exponent: int) -> "BivariateSeries":
        if not isinstance(exponent, int):
            raise TypeError("series exponent must be an integer")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = BivariateSeries({(0, 0): 1})
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result
