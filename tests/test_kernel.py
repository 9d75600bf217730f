import math
import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thetaquad.kernel
from thetaquad import (
    DerivativeBand,
    Exponential,
    KernelStats,
    NormData,
    RuleSpec,
    ValidationError,
    apply_rule,
    certify,
    extremal_integrand,
    kernel_stats_brute,
    kernel_stats_closed,
)

thetas = st.floats(min_value=0.0, max_value=1.0)
orders = st.integers(min_value=1, max_value=40)


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


def kernel(s):
    """K of ``s`` as a function of x: the extremal integrand's n-th derivative."""
    f = extremal_integrand(s)
    return lambda x: f.eval_derivative(s.n, x)


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


def test_kernel_halves_meet_at_the_midpoint():
    # odd n: K jumps at mid = 1 and the right half owns the midpoint
    k = kernel(spec(0.5, 3, a=-1.0, b=3.0))
    assert k(1.0) == pytest.approx((-2.0) ** 2 * (-2.0 + 3.0) / 6.0, abs=1e-15)
    assert k(1.0 - 1e-12) == pytest.approx(2.0**2 * (2.0 - 3.0) / 6.0, abs=1e-10)


def test_kernel_pointwise_values_first_order():
    # order 1: (x - a) - theta*(b - a)/2 on the left half,
    #          (x - b) + theta*(b - a)/2 on the right half
    theta = 0.3
    k = kernel(spec(theta, 1))
    for x in (0.0, 0.2, 0.49):
        assert k(x) == pytest.approx(x - theta / 2.0, abs=1e-15)
    for x in (0.51, 0.8, 1.0):
        assert k(x) == pytest.approx(x - 1.0 + theta / 2.0, abs=1e-15)


def test_kernel_pointwise_values_second_order():
    theta = 0.4
    k = kernel(spec(theta, 2))
    for x in (0.1, 0.3):
        assert k(x) == pytest.approx((x - theta) * x / 2.0, abs=1e-15)
    for x in (0.6, 0.9):
        assert k(x) == pytest.approx((x - 1.0 + theta) * (x - 1.0) / 2.0, abs=1e-15)


def test_kernel_vanishes_at_endpoints_for_higher_orders():
    for n in range(2, 7):
        k = kernel(spec(0.7, n))
        assert k(0.0) == pytest.approx(0.0, abs=1e-15)
        assert k(1.0) == pytest.approx(0.0, abs=1e-15)


@given(thetas, orders)
@settings(max_examples=80, deadline=None)
# the left root of K sits next to a: a root finder with a probe grid lost it
@example(theta=0.00390625, n=2)
@example(theta=0.0038220303149203447, n=3)
@example(theta=0.006006367891288502, n=2)
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
    assert close(closed.centered_l2_sq, brute.centered_l2_sq)
    if n % 2 == 0:
        assert close(closed.centered_max_abs, brute.centered_max_abs)
    else:
        assert closed.centered_max_abs is None


def test_brute_stats_are_exact_then_rounded_once():
    """theta = 1/2, n = 1 on [0, 1]: K = x - 1/4, then x - 3/4, by hand.

    At n = 2, int K = -1/48 and int K^2 = 1/1920, so sigma(K) = 1/11520.
    """
    stats = kernel_stats_brute(spec(0.5, 1))
    assert stats.integral == 0.0
    assert stats.abs_integral == 1.0 / 8.0
    assert stats.max_abs == 1.0 / 4.0
    assert stats.l2_sq == float(Fraction(1, 48))
    assert stats.centered_max_abs is None
    assert stats.centered_l2_sq == float(Fraction(1, 48))
    assert kernel_stats_brute(spec(0.5, 2)).centered_l2_sq == float(Fraction(1, 11520))


def fraction_brute(spec):
    """The rational reference for kernel_stats_brute: each statistic summed in
    ``fractions.Fraction`` from the same definition and rounded once."""
    n = spec.n
    a, b = Fraction(spec.a), Fraction(spec.b)
    h = (b - a) / 2
    c_left = Fraction(spec.theta) * n * h

    def p(u, c):
        return u ** (n - 1) * (u - c)

    def p_antiderivative(u, c):
        return u**n * (u / (n + 1) - c / n)

    def p_squared_antiderivative(u, c):
        return u ** (2 * n - 1) * (u * u / (2 * n + 1) - c * u / n + c * c / (2 * n - 1))

    integral = abs_integral = l2_sq = Fraction(0)
    values = []
    for c, lo, hi in ((c_left, Fraction(0), h), (-c_left, -h, Fraction(0))):
        cuts = [lo, c, hi] if lo < c < hi else [lo, hi]
        pieces = [
            p_antiderivative(right, c) - p_antiderivative(left, c)
            for left, right in zip(cuts, cuts[1:])
        ]
        integral += sum(pieces)
        abs_integral += sum(map(abs, pieces))
        l2_sq += p_squared_antiderivative(hi, c) - p_squared_antiderivative(lo, c)
        values += [p(u, c) for u in (lo, hi, c * (n - 1) / n) if lo <= u <= hi]

    fact = math.factorial(n)
    mean = integral / (b - a)
    return KernelStats(
        integral=float(integral / fact),
        abs_integral=float(abs_integral / fact),
        max_abs=float(max(map(abs, values)) / fact),
        l2_sq=float(l2_sq / fact**2),
        centered_max_abs=(
            float(max(abs(v - mean) for v in values) / fact) if n % 2 == 0 else None
        ),
        centered_l2_sq=float((l2_sq - integral * mean) / fact**2),
    )


def seeded_specs(count, seed):
    """n = 1..60; theta a preset, 1/n, 2/n or uniform; widths 1e-6..30 with
    |a| up to 1e6; the first spec is n = 1, theta = 0 on [0, 1]."""
    rng = random.Random(seed)
    specs = [spec(0.0, 1)]
    while len(specs) < count:
        n = rng.randint(1, 60)
        theta = rng.choice([0.0, 1.0 / 3.0, 0.5, 1.0, 1.0 / n, min(2.0 / n, 1.0), rng.random()])
        width = 10.0 ** rng.uniform(-6.0, math.log10(30.0))
        a = rng.choice([0.0, -width / 2, rng.uniform(-1.0, 1.0), rng.uniform(-1e6, 1e6)])
        if a + width > a:
            specs.append(spec(theta, n, a, a + width))
    return specs


def test_brute_stats_are_the_rational_reference_bit_for_bit():
    """Integer sums over one denominator, divided once, round like the
    Fraction sums they replace: every field has the same repr."""
    specs = seeded_specs(2000, 17)
    assert {s.n for s in specs} == set(range(1, 61))
    for s in specs:
        assert repr(kernel_stats_brute(s)) == repr(fraction_brute(s)), s


def test_closed_stats_match_brute_force_from_n_41_to_98():
    """Acceptance criterion 1 (n <= 40) extended to the end of the range:
    its theta grid, intervals and tolerance, then l2_sq and centered_l2_sq
    relative to the exact value on [0, 30], where from n = 85 on the
    denominator of int K^2 overflows a float."""
    grid = [i / 10.0 for i in range(11)]
    for n in range(41, 99):
        for theta in grid:
            for a, b in [(0.0, 1.0), (-1.0, 2.0)]:
                s = spec(theta, n, a, b)
                scale = (b - a) ** (n + 1) / (math.factorial(n) * 2.0**n)
                pairs = zip(astuple(kernel_stats_closed(s)), astuple(kernel_stats_brute(s)))
                for x, y in pairs:
                    if x is None:  # centered_max_abs at odd n
                        assert y is None and n % 2 == 1
                        continue
                    assert abs(x - y) <= 1e-10 * max(abs(x), abs(y)) + 1e-13 * scale, (s, x, y)
    for n in range(85, 99):
        for theta in grid:
            s = spec(theta, n, 0.0, 30.0)
            closed, brute = kernel_stats_closed(s), kernel_stats_brute(s)
            for x, y in [(closed.l2_sq, brute.l2_sq), (closed.centered_l2_sq, brute.centered_l2_sq)]:
                assert y > 0.0 and abs(x - y) <= 1e-10 * y, (s, x, y)


def test_closed_l2_stats_at_the_top_of_the_width_range():
    """Where (b - a)^(2n+1) is finite but the bracket times it overflows, the
    closed form divides first: l2_sq and centered_l2_sq stay finite and
    match the exact oracle, as at n = 10 on [0, 4.756e14]."""
    cases = [(1.0, 10, 4.756e14)]
    for n in (1, 2, 3, 6, 11, 20, 40, 84, 90, 98):
        width = 1.6e308 ** (1.0 / (2 * n + 1))
        cases += [(theta, n, width) for theta in (0.0, 1.0 / 3.0, 0.5, 1.0)]
    for theta, n, width in cases:
        s = spec(theta, n, 0.0, width)
        assert width ** (2 * n + 1) < math.inf, s
        closed, brute = kernel_stats_closed(s), kernel_stats_brute(s)
        for x, y in [(closed.l2_sq, brute.l2_sq), (closed.centered_l2_sq, brute.centered_l2_sq)]:
            assert math.isfinite(x) and abs(x - y) <= 1e-10 * y, (s, x, y)
    assert spec(1.0, 10, 0.0, 4.756e14).stats.l2_sq == pytest.approx(5.206050026593493e289, rel=1e-15)


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
    assert kernel_stats_closed(spec(0.5, 3)).centered_max_abs is None


def test_spec_stats_are_the_closed_form_computed_once(monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return kernel_stats_closed(s)

    monkeypatch.setattr(thetaquad.kernel, "kernel_stats_closed", counted)
    s = spec(0.3, 4, a=-1.0, b=2.0)
    assert s.stats is s.stats
    assert s.stats == kernel_stats_closed(s)
    assert calls == [s]


def test_supported_range_ends_at_n_98():
    """Every consumer of the kernel statistics answers at n = 98 on [0, 1];
    at n = 99 (n!)^2 overflows and all six fields raise together."""
    norms = NormData(l1=1.0, l2=1.0, linf=1.0, sigma=1.0, endpoint_diff_rate=0.5)
    f = Exponential().integrand(0.0, 1.0)
    for n in (97, 98):
        s = spec(0.5, n)
        bands = [DerivativeBand(0.0, 2.0, n), DerivativeBand(0.0, math.inf, n)]
        for kind in ("l1", "l2", "linf", "sharp"):
            assert certify(s, kind, norms).bound >= 0.0
        for band in bands:
            assert certify(s, "band", norms, band).bound >= 0.0
        result = apply_rule(f, s)
        assert math.isfinite(result.f_n_value)
        assert (result.perturbation_term is None) == (n % 2 == 1)
    for n in (99, 100):
        with pytest.raises(OverflowError):
            kernel_stats_closed(spec(0.5, n))
        with pytest.raises(OverflowError):
            certify(spec(0.5, n), "l1", norms)
    # the plain rule value reads no kernel statistic and keeps its range
    assert math.isfinite(apply_rule(f, spec(0.5, 99)).f_n_value)
    with pytest.raises(OverflowError):
        apply_rule(f, spec(0.5, 100))  # its even-n perturbation reads int K


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
    mid = kernel(spec(0.0, 1))
    assert mid(0.25) == pytest.approx(0.25, abs=1e-15)
    assert mid(0.75) == pytest.approx(-0.25, abs=1e-15)
    trap = kernel(spec(1.0, 1))
    assert trap(0.25) == pytest.approx(-0.25, abs=1e-15)
    assert trap(0.75) == pytest.approx(0.25, abs=1e-15)
