"""Formal cycle classes on the symmetric power C_d of a genus-g curve.

We work in the rank-2 subring of the algebraic cohomology generated by the
divisor classes

* ``x``     -- the class of the embedding C_(d-1) -> C_d, D |-> D + p;
* ``theta`` -- the pullback of a theta divisor under the Abel map.

A homogeneous class of codimension c is stored as the coefficient vector of
the monomials x^k * theta^(c-k), k = 0..c.  Products are purely formal
(coefficient convolution); no relations are imposed below the top degree.
Only top-degree evaluation invokes the Poincare formula

    x^k * theta^(d-k) = g! / (g - d + k)!        (0 <= k <= d <= g)

extended to d > g by 1/(negative)! = 0, i.e. theta^j = 0 for j > g.  That
single evaluation rule is enough to reproduce every intersection number this
package computes, including those on C_(g+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import as_rational, factorial, inv_factorial
from .errors import PreconditionError

__all__ = [
    "CycleClass",
    "DivisorClass",
    "monomial_value",
    "multiply",
    "evaluate_top",
    "theta_class",
    "x_class",
    "divisor_class",
]


def monomial_value(g: int, d: int, k: int) -> Fraction:
    """Top-degree value of x^k * theta^(d-k) on C_d: g!/(g-d+k)!.

    Zero when g - d + k < 0 (the theta power exceeds g).
    """
    if g < 2:
        raise PreconditionError(f"genus must be at least 2 (got {g})")
    if d < 2:
        raise PreconditionError(f"symmetric power index must be at least 2 (got {d})")
    if not 0 <= k <= d:
        raise PreconditionError(f"monomial exponent k must satisfy 0 <= k <= d (got k={k}, d={d})")
    return factorial(g) * inv_factorial(g - d + k)


@dataclass(frozen=True)
class CycleClass:
    """Homogeneous codimension-c class on C_d, coefficients over x^k*theta^(c-k).

    ``coeffs[k]`` is the coefficient of x^k * theta^(codim - k).  Instances are
    immutable value objects; arithmetic returns new instances and refuses to
    mix classes living on different (genus, d).
    """

    genus: int
    d: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.genus < 2:
            raise PreconditionError(f"genus must be at least 2 (got {self.genus})")
        if self.d < 2:
            raise PreconditionError(f"symmetric power index must be at least 2 (got {self.d})")
        coeffs = self.coeffs
        # Products and sums already hand over a tuple of Fractions; only other
        # inputs are coerced (which also refuses floats).
        if type(coeffs) is not tuple or not all(type(c) is Fraction for c in coeffs):
            coeffs = tuple(as_rational(c) for c in coeffs)
            object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise PreconditionError("a class needs at least one coefficient")
        if self.codim > self.d:
            raise PreconditionError(
                f"codimension {self.codim} exceeds the dimension of C_{self.d}"
            )

    @property
    def codim(self) -> int:
        return len(self.coeffs) - 1

    def _check_same_space(self, other: "CycleClass") -> None:
        if self.genus != other.genus or self.d != other.d:
            raise PreconditionError(
                f"classes live on different spaces: C_{self.d} (g={self.genus}) "
                f"vs C_{other.d} (g={other.genus})"
            )

    def __add__(self, other: "CycleClass") -> "CycleClass":
        if not isinstance(other, CycleClass):
            return NotImplemented
        self._check_same_space(other)
        if self.codim != other.codim:
            raise PreconditionError(
                f"cannot add classes of codimension {self.codim} and {other.codim}"
            )
        return CycleClass(self.genus, self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        return self + (-other)

    def __neg__(self) -> "CycleClass":
        return CycleClass(self.genus, self.d, tuple(-c for c in self.coeffs))

    def scale(self, scalar: int | Fraction) -> "CycleClass":
        scalar = as_rational(scalar)
        return CycleClass(self.genus, self.d, tuple(scalar * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CycleClass):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> "CycleClass":
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError("class exponent must be a non-negative integer")
        result = CycleClass(self.genus, self.d, (Fraction(1),))
        for _ in range(exponent):
            result = multiply(result, self)
        return result

    def evaluate_top(self) -> Fraction:
        return evaluate_top(self)

    def __str__(self) -> str:
        terms = []
        for k, coeff in enumerate(self.coeffs):
            if not coeff:
                continue
            monomial = _monomial_name(k, self.codim - k)
            terms.append((coeff, monomial))
        if not terms:
            return "0"
        rendered = ""
        for index, (coeff, monomial) in enumerate(terms):
            sign = "-" if coeff < 0 else "+"
            magnitude = -coeff if coeff < 0 else coeff
            body = monomial if magnitude == 1 and monomial else _coeff_str(magnitude) + ("*" + monomial if monomial else "")
            if index == 0:
                rendered = ("-" if sign == "-" else "") + body
            else:
                rendered += f" {sign} {body}"
        return rendered


def _coeff_str(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else f"({q})"


def _monomial_name(x_power: int, theta_power: int) -> str:
    parts = []
    if x_power == 1:
        parts.append("x")
    elif x_power > 1:
        parts.append(f"x^{x_power}")
    if theta_power == 1:
        parts.append("theta")
    elif theta_power > 1:
        parts.append(f"theta^{theta_power}")
    return "*".join(parts)


@dataclass(frozen=True)
class DivisorClass(CycleClass):
    """A codimension-1 class, conventionally written a*theta - b*x."""

    def __post_init__(self):
        super().__post_init__()
        if self.codim != 1:
            raise PreconditionError(f"a divisor class has codimension 1 (got {self.codim})")

    @property
    def a(self) -> Fraction:
        """Coefficient of theta."""
        return self.coeffs[0]

    @property
    def b(self) -> Fraction:
        """Negated coefficient of x, so that the class reads a*theta - b*x."""
        return -self.coeffs[1]


def divisor_class(genus: int, d: int, a: int | Fraction, b: int | Fraction) -> DivisorClass:
    """The divisor class a*theta - b*x on C_d."""
    return DivisorClass(genus, d, (as_rational(a), -as_rational(b)))


def theta_class(genus: int, d: int) -> DivisorClass:
    return divisor_class(genus, d, 1, 0)


def x_class(genus: int, d: int) -> DivisorClass:
    return divisor_class(genus, d, 0, -1)


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over their least common denominator."""
    denominator = math.lcm(*[c.denominator for c in coeffs])
    if denominator == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (denominator // c.denominator) for c in coeffs], denominator


def _fractions(numerators: list[int], denominator: int) -> tuple[Fraction, ...]:
    if denominator == 1:
        return tuple(map(Fraction, numerators))
    return tuple(Fraction(n, denominator) for n in numerators)


def multiply(p: CycleClass, q: CycleClass) -> CycleClass:
    """Formal product: convolution of coefficient vectors; codimensions add.

    The convolution runs on integer numerators over one common denominator,
    so each output coefficient is reduced to lowest terms only once.
    """
    p._check_same_space(q)
    codim = p.codim + q.codim
    if codim > p.d:
        raise PreconditionError(
            f"product has codimension {codim}, beyond the dimension of C_{p.d}"
        )
    p_nums, p_den = _numerators(p.coeffs)
    q_nums, q_den = _numerators(q.coeffs)
    sums = [0] * (codim + 1)
    for i, a in enumerate(p_nums):
        if not a:
            continue
        for j, b in enumerate(q_nums):
            sums[i + j] += a * b
    return CycleClass(p.genus, p.d, _fractions(sums, p_den * q_den))


def evaluate_top(p: CycleClass) -> Fraction:
    """Intersection number of a top-codimension class, via the Poincare formula.

    x^k * theta^(d-k) is the integer g!/(g-d+k)! = perm(g, d-k), which is 0
    once d - k exceeds g, so the sum is one integer over the common denominator.
    """
    if p.codim != p.d:
        raise PreconditionError(
            f"only top-degree classes can be evaluated (codim {p.codim} on C_{p.d})"
        )
    nums, denominator = _numerators(p.coeffs)
    total = sum(a * math.perm(p.genus, p.d - k) for k, a in enumerate(nums) if a)
    return Fraction(total, denominator)
