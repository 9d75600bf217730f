import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaquad import (
    CapabilityError,
    DomainError,
    Integrand,
    PRESETS,
    PolynomialFunction,
    RuleSpec,
    ValidationError,
    apply_rule,
    preset,
)
from thetaquad.rules import _coefficients, _rule_terms

thetas = st.floats(min_value=0.0, max_value=1.0)


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


def monomial(degree, a=0.0, b=1.0):
    coeffs = (0.0,) * degree + (1.0,)
    return PolynomialFunction(coeffs).integrand(a, b)


# ---------------------------------------------------------------- presets


def test_preset_table():
    assert PRESETS == {
        "midpoint": 0.0,
        "trapezoid": 1.0,
        "simpson": pytest.approx(1.0 / 3.0),
        "averaged": 0.5,
    }
    assert preset("simpson") == 1.0 / 3.0


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        preset("gauss")


# ---------------------------------------------------------------- integrands


def test_integrand_validates_order_and_domain():
    f = Integrand(derivative_fn=lambda k, x: math.exp(x), domain=(0.0, 1.0))
    assert f.eval_derivative(0, 0.5) == pytest.approx(math.exp(0.5))
    with pytest.raises(ValidationError):
        f.eval_derivative(-1, 0.5)
    with pytest.raises(DomainError):
        f.eval_derivative(0, 2.0)


@pytest.mark.parametrize("a, b, x", [(-0.5, 1.0, -0.5), (0.0, 1.5, 1.5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rule_on_an_interval_outside_the_domain_is_rejected(a, b, x, n):
    f = Integrand(derivative_fn=lambda k, x: math.exp(x), domain=(0.0, 1.0))
    outside = rf"^x={re.escape(repr(x))} outside integrand domain \[0\.0, 1\.0\]$"
    with pytest.raises(DomainError, match=outside):
        apply_rule(f, spec(0.5, n, a, b))


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_rule_reads_each_node_once(n):
    """f at a, mid and b, each f^(2i) of the corrections at mid, and at even n
    f^(n-1) at a and b for the perturbation: one read each."""
    calls = Counter()

    def derivative_fn(order, x):
        calls[order, x] += 1
        return math.exp(x)

    apply_rule(Integrand(derivative_fn, (0.0, 1.0)), spec(0.3, n))
    expected = Counter({(0, 0.0): 1, (0, 0.5): 1, (0, 1.0): 1})
    expected.update((order, 0.5) for order in range(2, n, 2))
    if n % 2 == 0:
        expected.update([(n - 1, 0.0), (n - 1, 1.0)])
    assert calls == expected


def test_integrand_order_cap_is_enforced():
    f = Integrand(
        derivative_fn=lambda k, x: float(k), domain=(0.0, 1.0), max_order=2
    )
    assert f.eval_derivative(2, 0.5) == 2.0
    with pytest.raises(CapabilityError):
        f.eval_derivative(3, 0.5)


def test_integrand_from_callables():
    fs = [lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0]
    f = Integrand(lambda k, x: fs[k](x), (0.0, 1.0), max_order=len(fs) - 1)
    assert f.eval_derivative(1, 0.25) == 0.5
    assert f.max_order == 2
    with pytest.raises(CapabilityError):
        f.eval_derivative(3, 0.0)


# ---------------------------------------------------------------- base rule


@given(thetas)
def test_base_rule_blends_midpoint_and_trapezoid(theta):
    f = monomial(1)  # f(x) = x
    res = apply_rule(f, spec(theta, 1))
    # for f(x) = x both the midpoint and trapezoid values equal 1/2
    assert res.base_value == pytest.approx(0.5, abs=1e-15)
    assert res.correction_terms == ()
    assert res.f_n_value == pytest.approx(0.5, abs=1e-15)


def test_base_weights_visible_on_asymmetric_function():
    f = monomial(2)  # x^2 on [0, 1]: midpoint gives 1/4, trapezoid 1/2
    for theta in (0.0, 0.25, 0.5, 1.0):
        res = apply_rule(f, spec(theta, 1))
        assert res.base_value == pytest.approx(
            (1.0 - theta) * 0.25 + theta * 0.5, abs=1e-15
        )


def test_cubic_with_trapezoid_correction_frozen():
    """x^3 on [0,1] at theta = 1, n = 3: the endpoint correction kicks in."""
    res = apply_rule(monomial(3), spec(1.0, 3))
    assert res.base_value == pytest.approx(0.5, abs=1e-15)
    assert len(res.correction_terms) == 1
    assert res.correction_terms[0] == pytest.approx(-0.25, abs=1e-15)
    assert res.f_n_value == pytest.approx(0.25, abs=1e-15)
    assert res.perturbation_term is None


def test_correction_count_grows_with_order():
    f = PolynomialFunction((0.0,) * 8 + (1.0,)).integrand(0.0, 1.0)
    for n in range(1, 9):
        terms = apply_rule(f, spec(0.9, n)).correction_terms
        assert len(terms) == (n - 1) // 2


def test_correction_needs_enough_derivatives():
    f = Integrand(
        derivative_fn=lambda k, x: 1.0, domain=(0.0, 1.0), max_order=1
    )
    with pytest.raises(CapabilityError):
        apply_rule(f, spec(0.5, 4))  # needs the second derivative at the midpoint


# ---------------------------------------------------------------- exactness


@given(thetas, st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_polynomials_below_the_order_are_integrated_exactly(theta, n):
    for degree in range(n):
        res = apply_rule(monomial(degree), spec(theta, n))
        assert res.f_n_value == pytest.approx(1.0 / (degree + 1), abs=1e-12)


@given(thetas, st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_degree_n_exact_when_n_is_odd(theta, i):
    n = 2 * i + 1
    res = apply_rule(monomial(n), spec(theta, n))
    assert res.f_n_value == pytest.approx(1.0 / (n + 1), abs=1e-12)


@given(thetas, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_degree_n_exact_when_n_is_even_after_perturbation(theta, m):
    n = 2 * m
    res = apply_rule(monomial(n), spec(theta, n))
    assert res.perturbation_term is not None
    assert res.f_n_value + res.perturbation_term == pytest.approx(
        1.0 / (n + 1), abs=1e-12
    )


# ---------------------------------------------------------------- perturbation


@pytest.mark.parametrize(
    "theta,expected",
    [(0.0, 1.0 / 12.0), (1.0 / 3.0, 0.0), (1.0, -1.0 / 6.0)],
)
def test_perturbation_for_x_squared_frozen(theta, expected):
    value = apply_rule(monomial(2), spec(theta, 2)).perturbation_term
    assert value == pytest.approx(expected, abs=1e-15)


def test_apply_rule_keeps_perturbation_out_of_the_plain_value():
    res = apply_rule(monomial(2), spec(0.0, 2))
    assert res.f_n_value == pytest.approx(0.25, abs=1e-15)  # pure midpoint
    assert res.perturbation_term == pytest.approx(1.0 / 12.0, abs=1e-15)


@given(thetas)
def test_perturbation_vanishes_when_endpoint_slopes_agree(theta):
    # (x - 1/2)^3 + 1 has equal first derivatives at the endpoints, so the
    # mean of f'' over the interval is zero and the perturbation drops out.
    f = PolynomialFunction((7.0 / 8.0, 3.0 / 4.0, -3.0 / 2.0, 1.0)).integrand(
        0.0, 1.0
    )
    assert apply_rule(f, spec(theta, 2)).perturbation_term == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- result shape


def test_result_records_the_spec_it_was_built_from():
    s = spec(0.5, 2)
    res = apply_rule(monomial(2), s)
    assert res.spec == s
    assert res.f_n_value == pytest.approx(
        math.fsum((res.base_value, *res.correction_terms)), abs=1e-15
    )


@given(thetas, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_odd_orders_never_carry_a_perturbation(theta, n):
    f = PolynomialFunction(tuple(range(1, 9))).integrand(0.0, 1.0)
    res = apply_rule(f, spec(theta, n))
    if n % 2 == 1:
        assert res.perturbation_term is None
    else:
        assert res.perturbation_term is not None


# ---------------------------------------------------------------- Peano identity


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_derivative(p, order):
    for _ in range(order):
        p = [k * c for k, c in enumerate(p)][1:] or [Fraction(0)]
    return p


def _poly_value(p, x):
    return sum(c * x**k for k, c in enumerate(p))


def _poly_integral(p, lo, hi):
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(p))


def _kernel_half(n, edge, root):
    """n! K on one half, (x - edge)^(n-1) (x - root), in powers of x."""
    half = [Fraction(1)]
    for r in [edge] * (n - 1) + [root]:
        half = _poly_mul(half, [-r, Fraction(1)])
    return [c / math.factorial(n) for c in half]


dyadic = st.integers(min_value=-64, max_value=64).map(lambda k: Fraction(k, 16))


@given(
    st.integers(min_value=1, max_value=8),
    st.data(),
    dyadic,
    st.integers(min_value=1, max_value=64).map(lambda k: Fraction(k, 16)),
    st.integers(min_value=0, max_value=32).map(lambda k: Fraction(k, 32)),
)
@settings(max_examples=60, deadline=None)
def test_peano_identity_holds_exactly_in_fractions(n, data, a, width, theta):
    """int p - F_n = (-1)^n int K p^(n), with _rule_terms run in Fractions."""
    degree = data.draw(st.integers(min_value=0, max_value=n + 3))
    p = data.draw(st.lists(dyadic, min_size=degree + 1, max_size=degree + 1))
    b = a + width
    mid, c = (a + b) / 2, theta * n * width / 2

    def column(k, xs):
        return [_poly_value(_poly_derivative(p, k), x) for x in xs]

    columns = _rule_terms(column, theta, n, [a], [b], [b - a], _coefficients(theta, n))
    value = sum(term for term, in columns)
    p_n = _poly_derivative(p, n)
    kernel_integral = _poly_integral(_poly_mul(_kernel_half(n, a, a + c), p_n), a, mid)
    kernel_integral += _poly_integral(_poly_mul(_kernel_half(n, b, b - c), p_n), mid, b)
    error = _poly_integral(p, a, b) - value
    assert error == (-1) ** n * kernel_integral
    if degree < n:
        assert error == 0
