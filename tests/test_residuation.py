from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcd import residuation_pullback
from symcd.cones import Ray, general_volume_limit, nef_facts
from symcd.cycles import CycleClass


def test_pullback_on_basis():
    assert residuation_pullback(1, 0) == (1, 0)  # theta |-> theta_hat
    assert residuation_pullback(1, -1) == (0, 1)  # theta - x |-> X_hat
    assert residuation_pullback(0, 1) == (1, -1)  # x = theta - (theta - x)


def test_inverse_pullback_on_basis():
    # The map is its own inverse; read back from the target basis:
    assert residuation_pullback(0, 1) == (1, -1)  # X_hat |-> theta - x
    assert residuation_pullback(1, 0) == (1, 0)  # theta_hat |-> theta


@given(st.fractions(), st.fractions())
def test_pullbacks_are_mutually_inverse(a, b):
    assert residuation_pullback(*residuation_pullback(a, b)) == (a, b)


def test_involution_squares_to_identity():
    for column in ((1, 0), (0, 1)):
        assert residuation_pullback(*residuation_pullback(*column)) == column


def test_involution_determinant_is_minus_one():
    (a, c), (b, d) = residuation_pullback(1, 0), residuation_pullback(0, 1)
    assert a * d - b * c == -1


def test_involution_action():
    # on C_(g-1), in the (theta, x) basis
    t = Fraction(2, 7)
    assert residuation_pullback(1, -t) == (1 - t, t)  # theta - t*x |-> (1-t)*theta + t*x
    assert residuation_pullback(1, -1) == (0, 1)  # theta - x |-> x


def test_pullback_returns_fractions_and_refuses_floats():
    assert all(type(c) is Fraction for c in residuation_pullback(2, 3))
    with pytest.raises(TypeError):
        residuation_pullback(0.5, 1)
    with pytest.raises(TypeError):
        residuation_pullback(1, 0.5)


@pytest.mark.parametrize("g", range(4, 61))
def test_volume_interval_ends_where_the_residual_class_meets_the_diagonal_nef_ray(g):
    # theta - t*x at the right end t of the proven interval goes to the ray of
    # -theta + g(g-1)x, Pacienza's nef boundary ray of C_(g-1).
    residual = Ray.from_class(CycleClass(g, g - 1, residuation_pullback(1, -general_volume_limit(g))))
    assert residual == nef_facts(g, g - 1, hyperelliptic=False).diagonal_nef_ray
