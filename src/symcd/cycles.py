"""Formal cycle classes on the symmetric power C_d of a genus-g curve.

We work in the rank-2 subring of the algebraic cohomology generated by the
divisor classes

* ``x``     -- the class of the embedding C_(d-1) -> C_d, D |-> D + p;
* ``theta`` -- the pullback of a theta divisor under the Abel map.

A homogeneous class of codimension c is the coefficient vector of the
monomials x^k * theta^(c-k), k = 0..c.  It is held as integer numerators over
one positive denominator, in lowest terms, so sums, scalings and products are
integer arithmetic with one reduction per result; the ``Fraction``
coefficients are built from them each time ``coeffs`` is read.  Every class,
a divisor included, is a ``CycleClass``, and two classes are equal when these
numbers are, however each was built.  A divisor a*theta - b*x is the
codimension-1 class with coefficients (a, -b).  The package's one exact
coercion, :func:`as_rational`, which refuses floats, lives here.
Products are purely formal: coefficient vectors are convolved by Kronecker
substitution (each vector is packed into one integer, one slot per
coefficient, so a product or a power is one big-integer operation), and no
relations are imposed below the top degree.  Only top-degree evaluation
invokes the Poincare formula

    x^k * theta^(d-k) = g! / (g - d + k)!        (0 <= k <= d <= g)

extended to d > g by 1/(negative)! = 0, i.e. theta^j = 0 for j > g.  That
single evaluation rule is enough to reproduce every intersection number this
package computes, including those on C_(g+1).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from . import _EXPORTS
from .errors import PreconditionError, _check_space, shown

__all__ = list(_EXPORTS["cycles"])


def as_rational(value: int | Fraction | str) -> Fraction:
    """Coerce ``value`` to an exact rational, rejecting floats outright."""
    if isinstance(value, float):
        raise TypeError("floating-point input would break exactness; pass an int, a Fraction, or a 'p/q' string")
    return Fraction(value)


# Fields of the frozen classes below are written only through this, or through
# CycleClass's slot setters (after the class), which skip its name lookup.  Their
# tuples are built from lists, not generators: on CPython 3.11, growing tuples
# of varying length from generators fragments the heap, and the resident
# memory of a long sweep creeps up by megabytes.
_set = object.__setattr__


def _refuse(message: str):
    # Only misuse pays for importing dataclasses (and, through it, inspect).
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class _Frozen:
    """Base of the immutable value types: what a frozen dataclass gives, without the import.

    A subclass names its fields in ``__slots__`` and the defaults of trailing
    fields in ``_defaults``.  Construction, equality (same class, equal
    fields), hashing, ``repr`` and pickling follow the fields in order.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            # dict(**a, **b) refuses a keyword that repeats a positional field.
            values = {**self._defaults, **dict(**dict(zip(fields, args)), **kwargs)}
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # ``cls._values_of(value)``: the tuple of the fields (attrgetter returns a bare value for one name).
        get = operator.attrgetter(*cls.__slots__)
        cls._values_of = staticmethod(get if len(cls.__slots__) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values_of(self) == self._values_of(other)

    def __hash__(self):
        return hash(self._values_of(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self.__slots__, self._values_of(self))])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values_of(self)

    def __setattr__(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _refuse(f"cannot delete field {name!r}")


class CycleClass(_Frozen):
    """Homogeneous codimension-c class on C_d, coefficients over x^k*theta^(c-k).

    ``coeffs[k]`` is the coefficient of x^k * theta^(codim - k).  The class is
    stored as ``numerators[k] / denominator``: a tuple of integers and one
    positive integer with ``gcd(denominator, *numerators) == 1``, so equal
    classes have equal fields however they were built.  ``coeffs``, the tuple
    of ``Fraction``s, is built from them each time it is read.

    Instances are immutable value objects; arithmetic returns new instances
    and refuses to mix classes living on different (genus, d).  Equality and
    hashing are by the numbers (genus, d, numerators, denominator), not by how
    a class was built: a sum, a scaled class, ``divisor_class`` and a catalog
    constructor that reach the same numbers give equal classes.
    """

    __slots__ = ("genus", "d", "numerators", "denominator")

    def __init__(self, genus: int, d: int, coeffs: Iterable[int | Fraction | str]):
        coeffs = [as_rational(c) for c in coeffs]  # refuses floats
        # Over the least common denominator of Fractions in lowest terms the
        # numerators share no factor with it, so no further reduction is due.
        denominator = math.lcm(*[c.denominator for c in coeffs])
        numerators = tuple([c.numerator * (denominator // c.denominator) for c in coeffs])
        self._fill(genus, d, numerators, denominator)

    @classmethod
    def from_numerators(cls, genus: int, d: int, numerators: Iterable[int], denominator: int = 1):
        """The class with coefficients ``numerators[k] / denominator``.

        The integer constructor behind every arithmetic result: the vector is
        reduced to lowest terms once, and no ``Fraction`` is built.
        """
        numerators = tuple(numerators)
        if denominator != 1:
            if not denominator:
                raise ZeroDivisionError("a class needs a nonzero denominator")
            common = math.gcd(denominator, *numerators)
            if denominator < 0:
                common = -common
            if common != 1:
                numerators = tuple([n // common for n in numerators])
                denominator //= common
        self = object.__new__(cls)
        self._fill(genus, d, numerators, denominator)
        return self

    def _fill(self, genus, d, numerators, denominator) -> None:
        _set_genus(self, genus)
        _set_d(self, d)
        _set_numerators(self, numerators)
        _set_denominator(self, denominator)
        self.__post_init__()

    def __post_init__(self):
        """Validate a new instance; every construction runs this exactly once."""
        _check_space(self.genus, self.d)
        if not self.numerators:
            raise PreconditionError("a class needs at least one coefficient")
        if len(self.numerators) - 1 > self.d:
            raise PreconditionError(
                f"codimension {self.codim} exceeds the dimension of C_{shown(self.d)}"
            )

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(n, self.denominator) for n in self.numerators])

    @property
    def codim(self) -> int:
        return len(self.numerators) - 1

    def __reduce__(self):
        return type(self), (self.genus, self.d, self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(genus={self.genus!r}, d={self.d!r}, coeffs={self.coeffs!r})"

    def _check_same_space(self, other: "CycleClass") -> None:
        if self.genus != other.genus or self.d != other.d:
            raise PreconditionError(
                f"classes live on different spaces: C_{shown(self.d)} (g={shown(self.genus)}) "
                f"vs C_{shown(other.d)} (g={shown(other.genus)})"
            )

    def __add__(self, other: "CycleClass") -> "CycleClass":
        if not isinstance(other, CycleClass):
            return NotImplemented
        self._check_same_space(other)
        if self.codim != other.codim:
            raise PreconditionError(
                f"cannot add classes of codimension {self.codim} and {other.codim}"
            )
        denominator = math.lcm(self.denominator, other.denominator)
        left = denominator // self.denominator
        right = denominator // other.denominator
        return CycleClass.from_numerators(
            self.genus,
            self.d,
            [a * left + b * right for a, b in zip(self.numerators, other.numerators)],
            denominator,
        )

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        return self + (-other)

    def __neg__(self) -> "CycleClass":
        return CycleClass.from_numerators(self.genus, self.d, [-n for n in self.numerators], self.denominator)

    def scale(self, scalar: int | Fraction) -> "CycleClass":
        scalar = as_rational(scalar)
        return CycleClass.from_numerators(
            self.genus,
            self.d,
            [scalar.numerator * n for n in self.numerators],
            scalar.denominator * self.denominator,
        )

    def __mul__(self, other):
        if isinstance(other, CycleClass):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> "CycleClass":
        """The exponent-th formal power: one built-in ``pow`` on the packed numerators.

        With S the sum of |numerators|, each coefficient of the power is at
        most S^exponent in absolute value and each numerator at most S; the
        larger sets the slot width.  The codimension is checked before
        anything is computed.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError("class exponent must be a non-negative integer")
        codim = _product_codim(self.codim * exponent, self.d)
        total = sum(map(abs, self.numerators))
        size = _slot_size(max(total**exponent, total))
        return CycleClass.from_numerators(
            self.genus,
            self.d,
            _unpack(pow(_pack(self.numerators, size), exponent), size, codim + 1),
            self.denominator**exponent,
        )

    def __str__(self) -> str:
        return _signed_sum([(c, _monomial_name(k, self.codim - k)) for k, c in enumerate(self.coeffs)])


_set_genus, _set_d, _set_numerators, _set_denominator = [CycleClass.__dict__[name].__set__ for name in CycleClass.__slots__]


def _signed_sum(terms) -> str:
    """``a*m - b*n + ...`` for (coefficient, monomial) pairs; "0" when all are zero.

    Zero terms are left out, a unit coefficient is left off its monomial, and
    a coefficient that is not an integer is parenthesized.
    """
    rendered = ""
    for coeff, monomial in terms:
        if not coeff:
            continue
        magnitude = abs(coeff)
        body = str(magnitude) if magnitude.denominator == 1 else f"({magnitude})"
        if monomial:
            body = monomial if magnitude == 1 else f"{body}*{monomial}"
        if rendered:
            rendered += f" - {body}" if coeff < 0 else f" + {body}"
        else:
            rendered = f"-{body}" if coeff < 0 else body
    return rendered or "0"


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


def divisor_class(genus: int, d: int, a: int | Fraction, b: int | Fraction) -> CycleClass:
    """The divisor class a*theta - b*x on C_d: coefficients (a, -b)."""
    if type(a) is int and type(b) is int:
        return CycleClass.from_numerators(genus, d, (a, -b))
    return CycleClass(genus, d, (a, -as_rational(b)))


def theta_class(genus: int, d: int) -> CycleClass:
    return divisor_class(genus, d, 1, 0)


def x_class(genus: int, d: int) -> CycleClass:
    return divisor_class(genus, d, 0, -1)


def _slot_size(bound: int) -> int:
    """Bytes per slot for packed coefficients of absolute value at most ``bound``.

    A slot holds the coefficient plus 2^(bits-1), so it needs the bound's bit
    length and one more bit.
    """
    return bound.bit_length() // 8 + 1


def _offsets(size: int, count: int) -> int:
    """2^(8*size-1) in each of ``count`` slots of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(numerators, size: int) -> int:
    """sum(n_k * 2^(8*size*k)): the vector as one integer, with ``size``-byte slots.

    Each |n_k| must be below 2^(8*size-1).  The slots are written as bytes
    holding n_k + 2^(8*size-1), which is never negative, and the offsets are
    taken off as one integer.
    """
    half = 1 << (8 * size - 1)
    packed = b"".join([(n + half).to_bytes(size, "little") for n in numerators])
    return int.from_bytes(packed, "little") - _offsets(size, len(numerators))


def _unpack(packed: int, size: int, count: int) -> list[int]:
    """The ``count`` signed coefficients of a packed integer, each below 2^(8*size-1)."""
    half = 1 << (8 * size - 1)
    raw = (packed + _offsets(size, count)).to_bytes(size * count, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, size * count, size)]


def _product_codim(codim: int, d: int) -> int:
    """``codim``, a product's codimension on C_d, or the refusal of one past the dimension d."""
    if codim > d:
        raise PreconditionError(f"product has codimension {shown(codim)}, beyond the dimension of C_{shown(d)}")
    return codim


def multiply(p: CycleClass, q: CycleClass) -> CycleClass:
    """Formal product: convolution of coefficient vectors; codimensions add.

    The convolution is one big-integer product of the packed numerators
    (Kronecker substitution).  Each coefficient of the product is at most
    max|p| * max|q| * min(len p, len q) in absolute value; that bound, or
    the larger factor's largest numerator when one factor is zero, sets the
    slot width.  The product's denominator is the product of the two, and
    the result is reduced once.
    """
    p._check_same_space(q)
    codim = _product_codim(p.codim + q.codim, p.d)
    left, right = p.numerators, q.numerators
    left_max, right_max = max(map(abs, left)), max(map(abs, right))
    size = _slot_size(max(left_max * right_max * min(len(left), len(right)), left_max, right_max))
    sums = _unpack(_pack(left, size) * _pack(right, size), size, codim + 1)
    return CycleClass.from_numerators(p.genus, p.d, sums, p.denominator * q.denominator)


def evaluate_top(p: CycleClass, factor: CycleClass | None = None) -> Fraction:
    """Intersection number of a top-codimension class, via the Poincare formula.

    With ``factor``, the value of ``multiply(p, factor)``, without building
    the product.  The ``Fraction`` of :func:`_evaluate_top`'s integers, built
    once; library routes that go on computing in integers call that core.
    """
    return Fraction(*_evaluate_top(p, factor))


def _evaluate_top(p: CycleClass, factor: CycleClass | None = None) -> tuple[int, int]:
    """Integer core of :func:`evaluate_top`: its value as ``(numerator, denominator)``, not reduced.

    x^k * theta^(d-k) is the integer g!/(g-d+k)! = perm(g, d-k), the product
    of the factors g-d+i for k < i <= d.  The sum is therefore taken by
    Horner's rule over p's numerators, one multiplication by a small factor
    per step; once a factor reaches 0 it zeroes every lower term (theta^i = 0
    for i > g).  A factor of codimension e makes one such pass per nonzero
    term x^j * theta^(e-j): the term shifts p's terms by j, so the pass runs
    with every factor shifted by j and ends with the e-j factors past p's
    codimension, whose product is perm(g, e-j).  The numerator is that one
    integer, and the denominator is the product of the classes' denominators,
    so it is 1 when theirs are.
    """
    codim, denominator, terms = p.codim, p.denominator, ((0, 1),)
    if factor is not None:
        p._check_same_space(factor)
        codim += factor.codim
        denominator *= factor.denominator
        terms = [(j, b) for j, b in enumerate(factor.numerators) if b]
    if codim != p.d:
        raise PreconditionError(f"top-degree evaluation on C_{shown(p.d)} needs codimension {shown(p.d)} (got {codim})")
    nums = p.numerators
    offset, extra = p.genus - p.d, codim - p.codim
    total = 0
    for j, b in terms:
        partial = nums[0]
        for k in range(1, len(nums)):
            partial = partial * (offset + k + j) + nums[k]
        total += b * partial * math.perm(p.genus, extra - j)
    return total, denominator
