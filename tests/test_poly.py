import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetaquad import DomainError, PiecewisePolynomial, ValidationError
from thetaquad.poly import _poly_mul, real_roots

coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coeff_lists = st.lists(coeff, min_size=1, max_size=6)


def single(coeffs, lo=0.0, hi=1.0):
    return PiecewisePolynomial((lo, hi), (tuple(coeffs),))


def test_eval_uses_local_coordinates():
    # coefficients are in powers of (x - left breakpoint of the segment)
    p = PiecewisePolynomial((1.0, 2.0), ((0.0, 1.0),))
    assert p.eval(1.5) == 0.5
    assert p.eval(1.0) == 0.0


def test_interior_breakpoint_belongs_to_right_segment():
    p = PiecewisePolynomial((0.0, 1.0, 2.0), ((5.0,), (7.0,)))
    assert p.eval(1.0) == 7.0
    assert p.eval(2.0) == 7.0  # right endpoint belongs to the last segment
    assert p.eval(0.0) == 5.0


@pytest.mark.parametrize(
    "args",
    [
        ((0.0,), ()),  # fewer than two breakpoints
        ((0.0, 1.0), ()),  # segment count mismatch
        ((1.0, 0.0), ((1.0,),)),  # not increasing
        ((0.0, 0.0), ((1.0,),)),  # not strictly increasing
        ((0.0, math.inf), ((1.0,),)),  # non-finite breakpoint
        ((0.0, 1.0), ((),)),  # empty coefficient list
    ],
)
def test_constructor_rejects_malformed_input(args):
    with pytest.raises(ValidationError):
        PiecewisePolynomial(*args)


def test_eval_outside_domain_raises():
    p = single([1.0, 2.0])
    with pytest.raises(DomainError):
        p.eval(1.5)
    with pytest.raises(DomainError):
        p.eval(-0.5)
    # a hair outside is forgiven (endpoint roundoff)
    assert p.eval(1.0 + 1e-15) == pytest.approx(3.0)


@given(coeff_lists, st.floats(min_value=0.0, max_value=1.0))
def test_horner_matches_naive_powers(coeffs, x):
    p = single(coeffs)
    naive = math.fsum(c * x**k for k, c in enumerate(coeffs))
    assert p.eval(x) == pytest.approx(naive, rel=1e-12, abs=1e-12)


def test_poly_mul_keeps_int_and_fraction_products_exact():
    # 3**40 is above 2**53: a sum started from 0.0 would round it
    assert _poly_mul([3**40, -(2**60)], [1, 0, 1]) == [3**40, -(2**60), 3**40, -(2**60)]
    third = [Fraction(1, 3), Fraction(2, 3)]
    assert _poly_mul(third, third) == [Fraction(1, 9), Fraction(4, 9), Fraction(4, 9)]


# ---------------------------------------------------------------- real_roots


def test_real_roots_finds_every_crossing_in_order():
    # (u - 1/4)(u - 1/2)(u - 3/4) on [0, 1]
    coeffs = (-0.09375, 0.6875, -1.5, 1.0)
    assert real_roots(coeffs, 0.0, 1.0) == [0.25, 0.5, 0.75]


def test_real_roots_skips_a_root_at_an_interval_end():
    # u (u - 1/2): the root at u = 0 is an end of [0, 1], not inside it
    coeffs = (0.0, -0.5, 1.0)
    assert real_roots(coeffs, 0.0, 1.0) == [0.5]
    assert real_roots(coeffs, 0.0, 0.5) == []
    assert real_roots(coeffs, -1.0, 0.0) == []


def test_real_roots_reports_a_touching_double_root_once():
    # (u - 1/2)^2 touches zero at its stationary point without crossing
    assert real_roots((0.25, -1.0, 1.0), 0.0, 1.0) == [0.5]
    # u^3 crosses where its derivative only touches zero
    assert real_roots((0.0, 0.0, 0.0, 1.0), -1.0, 1.0) == [0.0]


@pytest.mark.parametrize("coeffs", [(3.0,), (0.0,), (0.0, 0.0, 0.0)])
def test_real_roots_of_constant_or_zero_polynomial_is_empty(coeffs):
    assert real_roots(coeffs, -1.0, 1.0) == []


def test_real_roots_bisects_to_adjacent_floats():
    # u^2 - 2: the root sqrt(2) is irrational, so it lies between two floats
    (root,) = real_roots((-2.0, 0.0, 1.0), 0.0, 2.0)
    assert root <= math.sqrt(2.0) <= math.nextafter(root, math.inf)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=5))
def test_real_roots_brackets_every_sampled_sign_change(zeros):
    """A polynomial built from its roots: each crossing shows up once."""
    coeffs = (1.0,)
    for z in zeros:  # multiply by (u - z)
        coeffs = tuple(
            (coeffs[k - 1] if k >= 1 else 0.0) - z * (coeffs[k] if k < len(coeffs) else 0.0)
            for k in range(len(coeffs) + 1)
        )
    found = real_roots(coeffs, -2.0, 2.0)
    assert found == sorted(found)
    xs = [-2.0 + 4.0 * i / 400 for i in range(401)]
    values = [math.prod(x - z for z in zeros) for x in xs]
    for x0, x1, v0, v1 in zip(xs, xs[1:], values, values[1:]):
        if (v0 < 0.0 < v1 or v1 < 0.0 < v0) and min(abs(v0), abs(v1)) > 1e-9:
            assert any(x0 <= r <= x1 for r in found)


def test_real_roots_walks_a_long_derivative_chain_without_recursion():
    # degree 1499: one loop step per derivative, far past the recursion limit
    assert real_roots((0.001,) * 1500, 0.0, 1.0) == []
    assert len(real_roots((-1.0,) + (0.001,) * 1499, 0.0, 1.0)) == 1  # p increases on [0, 1]
