import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaquad import (
    RuleSpec,
    ValidationError,
    build_kernel,
    kernel_centered_max_closed,
    kernel_stats_brute,
    kernel_stats_closed,
)

thetas = st.floats(min_value=0.0, max_value=1.0)
orders = st.integers(min_value=1, max_value=8)


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(theta=-0.1, n=2, a=0.0, b=1.0),
        dict(theta=1.1, n=2, a=0.0, b=1.0),
        dict(theta=0.5, n=0, a=0.0, b=1.0),
        dict(theta=0.5, n=2, a=1.0, b=1.0),
        dict(theta=0.5, n=2, a=2.0, b=1.0),
        dict(theta=0.5, n=2, a=0.0, b=math.inf),
        dict(theta=math.nan, n=2, a=0.0, b=1.0),
    ],
)
def test_rule_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValidationError):
        RuleSpec(**kwargs)


def test_rule_spec_rejects_non_integer_order():
    with pytest.raises(ValidationError):
        RuleSpec(theta=0.5, n=2.5, a=0.0, b=1.0)


def test_kernel_breakpoints_straddle_the_midpoint():
    k = build_kernel(spec(0.5, 3, a=-1.0, b=3.0))
    assert k.breakpoints == (-1.0, 1.0, 3.0)


def test_kernel_pointwise_values_first_order():
    # order 1: (x - a) - theta*(b - a)/2 on the left half,
    #          (x - b) + theta*(b - a)/2 on the right half
    theta = 0.3
    k = build_kernel(spec(theta, 1))
    for x in (0.0, 0.2, 0.49):
        assert k(x) == pytest.approx(x - theta / 2.0, abs=1e-15)
    for x in (0.51, 0.8, 1.0):
        assert k(x) == pytest.approx(x - 1.0 + theta / 2.0, abs=1e-15)


def test_kernel_pointwise_values_second_order():
    theta = 0.4
    k = build_kernel(spec(theta, 2))
    for x in (0.1, 0.3):
        assert k(x) == pytest.approx((x - theta) * x / 2.0, abs=1e-15)
    for x in (0.6, 0.9):
        assert k(x) == pytest.approx((x - 1.0 + theta) * (x - 1.0) / 2.0, abs=1e-15)


def test_kernel_vanishes_at_endpoints_for_higher_orders():
    for n in range(2, 7):
        k = build_kernel(spec(0.7, n))
        assert k(0.0) == pytest.approx(0.0, abs=1e-15)
        assert k(1.0) == pytest.approx(0.0, abs=1e-15)


@given(thetas, orders)
@settings(max_examples=80, deadline=None)
# K(a) is exactly 0 and the left root lies in the first probe cell
@example(theta=0.00390625, n=2)
def test_closed_stats_match_brute_force(theta, n):
    s = spec(theta, n, a=-1.0, b=2.0)
    closed = kernel_stats_closed(s)
    brute = kernel_stats_brute(s)
    scale = (s.b - s.a) ** (n + 1) / (math.factorial(n) * 2.0**n)

    def close(x, y):
        return abs(x - y) <= 1e-10 * max(abs(x), abs(y)) + 1e-13 * scale

    assert close(closed.integral, brute.integral)
    assert close(closed.abs_integral, brute.abs_integral)
    assert close(closed.max_abs, brute.max_abs)
    assert close(closed.l2_sq, brute.l2_sq)
    if n % 2 == 0:
        assert close(closed.centered_max_abs, brute.centered_max_abs)
    else:
        assert closed.centered_max_abs is None


@given(thetas, st.integers(min_value=0, max_value=3))
def test_odd_order_kernels_integrate_to_zero(theta, i):
    n = 2 * i + 1
    assert kernel_stats_closed(spec(theta, n)).integral == 0.0


@given(thetas, st.integers(min_value=1, max_value=4))
def test_even_order_kernel_integral_sign_flips_at_one_third(theta, m):
    n = 2 * m
    integral = kernel_stats_closed(spec(theta, n)).integral
    expected = (1.0 / (n + 1.0) - theta) / (math.factorial(n) * 2.0**n)
    assert integral == pytest.approx(expected, rel=1e-12, abs=1e-18)


def test_centered_max_is_undefined_for_odd_orders():
    with pytest.raises(ValidationError):
        kernel_centered_max_closed(spec(0.5, 3))


def test_averaged_first_order_stats_frozen():
    """theta = 1/2, n = 1 on the unit interval, checked by hand."""
    stats = kernel_stats_closed(spec(0.5, 1))
    assert stats.integral == 0.0
    assert stats.abs_integral == pytest.approx(0.125, rel=1e-14)
    assert stats.max_abs == pytest.approx(0.25, rel=1e-14)
    assert stats.l2_sq == pytest.approx(1.0 / 48.0, rel=1e-14)


def test_parabolic_second_order_stats_frozen():
    """theta = 1/3, n = 2 on the unit interval."""
    stats = kernel_stats_closed(spec(1.0 / 3.0, 2))
    assert stats.integral == pytest.approx(0.0, abs=1e-18)
    assert stats.abs_integral == pytest.approx(1.0 / 81.0, rel=1e-14)
    assert stats.max_abs == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert stats.l2_sq == pytest.approx(1.0 / 4320.0, rel=1e-14)
    assert stats.centered_max_abs == pytest.approx(1.0 / 24.0, rel=1e-14)


@given(thetas, orders, st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=80, deadline=None)
def test_stats_scale_by_powers_of_the_width(theta, n, width):
    """Each statistic is homogeneous in (b - a); exponents differ per field."""
    unit = kernel_stats_closed(spec(theta, n))
    scaled = kernel_stats_closed(spec(theta, n, a=2.0, b=2.0 + width))
    assert scaled.integral == pytest.approx(
        unit.integral * width ** (n + 1), rel=1e-11, abs=1e-300
    )
    assert scaled.abs_integral == pytest.approx(
        unit.abs_integral * width ** (n + 1), rel=1e-11
    )
    assert scaled.max_abs == pytest.approx(unit.max_abs * width**n, rel=1e-11)
    assert scaled.l2_sq == pytest.approx(
        unit.l2_sq * width ** (2 * n + 1), rel=1e-11
    )


@given(thetas, orders)
def test_abs_integral_dominates_integral(theta, n):
    stats = kernel_stats_closed(spec(theta, n, a=-1.0, b=2.0))
    assert stats.abs_integral >= abs(stats.integral) - 1e-15


@given(thetas, orders)
def test_l2_sq_bounded_by_sup_times_abs_integral(theta, n):
    # |K|^2 <= max|K| * |K| pointwise, so the integrals compare the same way
    stats = kernel_stats_closed(spec(theta, n, a=-1.0, b=2.0))
    assert stats.l2_sq <= stats.max_abs * stats.abs_integral * (1.0 + 1e-12) + 1e-300


def test_midpoint_and_trapezoid_kernel_shapes_first_order():
    # theta = 0: kernel is x - a left of the midpoint and x - b right of it;
    # theta = 1: kernel is x - mid on both halves
    mid = build_kernel(spec(0.0, 1))
    assert mid(0.25) == pytest.approx(0.25, abs=1e-15)
    assert mid(0.75) == pytest.approx(-0.25, abs=1e-15)
    trap = build_kernel(spec(1.0, 1))
    assert trap(0.25) == pytest.approx(-0.25, abs=1e-15)
    assert trap(0.75) == pytest.approx(0.25, abs=1e-15)
