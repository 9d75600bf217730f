import math
import random
import re
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaquad import (
    BUILTIN_NAMES,
    Exponential,
    PolynomialFunction,
    Runge,
    Sine,
    ValidationError,
    parse_function,
)
from thetaquad import functions
from thetaquad.poly import _derivative_coeffs, _horner, _taylor_shift, real_roots

INTERVALS = [(0.0, 1.0), (-1.0, 2.0)]


def central_difference(fn, order, x, h=1e-5):
    lo = fn.derivative(order - 1, x - h)
    hi = fn.derivative(order - 1, x + h)
    return (hi - lo) / (2.0 * h)


# ---------------------------------------------------------------- registry


def test_builtin_names():
    assert [name.split(":")[0] for name in BUILTIN_NAMES] == [
        "exp", "sin", "runge", "poly",
    ]


def test_parse_function_dispatch():
    assert isinstance(parse_function("exp"), Exponential)
    sine = parse_function("sin")
    assert isinstance(sine, Sine) and sine.omega == 1.0
    assert isinstance(parse_function("runge"), Runge)
    poly = parse_function("poly:1,0,2")
    assert isinstance(poly, PolynomialFunction)
    assert poly.coefficients == (1.0, 0.0, 2.0)


@pytest.mark.parametrize("text", ["", "exp2", "poly:", "poly:1,zebra", "sin(3x)"])
def test_parse_function_rejects_junk(text):
    with pytest.raises(ValidationError):
        parse_function(text)


# ---------------------------------------------------------------- derivatives


@pytest.mark.parametrize("order", range(1, 5))
def test_exponential_derivatives_are_exp(order):
    f = Exponential()
    assert f.derivative(order, 0.3) == pytest.approx(math.exp(0.3), rel=1e-14)


@pytest.mark.parametrize("order", range(1, 6))
@pytest.mark.parametrize("x", [-0.7, 0.0, 0.4, 1.9])
def test_sine_derivative_cycle(order, x):
    f = Sine(3.0)
    # d^k/dx^k sin(wx) = w^k sin(wx + k pi/2)
    expected = 3.0**order * math.sin(3.0 * x + order * math.pi / 2.0)
    assert f.derivative(order, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_sine_rejects_nonpositive_frequency():
    with pytest.raises(ValidationError):
        Sine(0.0)
    with pytest.raises(ValidationError):
        Sine(-2.0)


def test_runge_low_order_derivatives_by_hand():
    f = Runge()
    # f'(x) = -2x/(1+x^2)^2, f''(x) = (6x^2-2)/(1+x^2)^3
    assert f.derivative(1, 1.0) == pytest.approx(-0.5, rel=1e-13)
    assert f.derivative(2, 0.0) == pytest.approx(-2.0, rel=1e-13)
    assert f.derivative(0, 2.0) == pytest.approx(0.2, rel=1e-13)


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("x", [-0.9, -0.2, 0.5, 1.7])
def test_runge_derivative_ladder_is_consistent(order, x):
    """Each closed-form derivative must differentiate the one below it."""
    f = Runge()
    approx = central_difference(f, order, x)
    exact = f.derivative(order, x)
    assert exact == pytest.approx(approx, rel=5e-6, abs=5e-6)


@given(st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=7),
       st.floats(min_value=-1.0, max_value=2.0))
@settings(max_examples=60)
def test_polynomial_derivative_matches_term_by_term(coeffs, x):
    f = PolynomialFunction(tuple(coeffs))
    expected = math.fsum(
        c * k * x ** (k - 1) for k, c in enumerate(coeffs) if k >= 1
    )
    assert f.derivative(1, x) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_polynomial_derivatives_vanish_beyond_the_degree():
    f = PolynomialFunction((1.0, 2.0, 3.0))
    assert f.derivative(3, 0.7) == 0.0
    assert f.derivative(9, -2.0) == 0.0


def _random_or_root_built(rng):
    if rng.random() < 0.5:
        return tuple(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 9)))
    roots = [rng.choice((rng.uniform(-2.0, 2.0), rng.randint(-20, 20) / 10)) for _ in range(6)]
    coeffs = [1.0]
    for r in roots[: rng.randint(1, 6)] + roots[:1]:  # the first root is a double root
        coeffs = [lo - r * hi for lo, hi in zip([0.0, *coeffs], [*coeffs, 0.0])]
    return tuple(coeffs)


def test_polynomial_roots_of_two_orders_come_from_one_walk(monkeypatch):
    """The derivative chain is built once, and norm_data's stationary points
    and zeros are those real_roots finds, from one walk down the chain."""
    walks = []
    walk = functions._chain_roots
    monkeypatch.setattr(functions, "_chain_roots", lambda *args: walks.append(1) or walk(*args))
    rng = random.Random(2011)
    for _ in range(3000):
        coeffs = _random_or_root_built(rng)
        a = rng.uniform(-2.5, 0.5)
        b = a + rng.uniform(0.1, 4.0)
        f = PolynomialFunction(coeffs)
        chain = [coeffs]
        for _ in range(len(coeffs) + 3):
            chain.append(_derivative_coeffs(chain[-1]))
        order = rng.randint(1, 3)
        assert [f._coeffs_of_order(k) for k in range(len(chain))] == chain
        expected = (real_roots(chain[order + 1], a, b), real_roots(chain[order], a, b))
        assert f._critical_points(order, a, b) == expected
        walks.clear()
        f.norm_data(order, a, b)
        assert len(walks) == 1


# ---------------------------------------------------------------- metadata
# The exact norm and band values below were re-derived by hand for the test;
# adaptive quadrature cross-checks of the same numbers live in the
# integration-level suite.


def test_exponential_norms_unit_interval():
    nd = Exponential().norm_data(1, 0.0, 1.0)
    assert nd.l1 == pytest.approx(math.e - 1.0, rel=1e-13)
    assert nd.linf == pytest.approx(math.e, rel=1e-13)
    assert nd.l2 == pytest.approx(math.sqrt((math.e**2 - 1.0) / 2.0), rel=1e-13)
    assert nd.endpoint_diff_rate == pytest.approx(math.e - 1.0, rel=1e-13)
    assert nd.provenance == "exact"


def test_exponential_band_is_monotone_range():
    band = Exponential().band(2, -1.0, 2.0)
    assert band.gamma == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert band.Gamma == pytest.approx(math.exp(2.0), rel=1e-13)


def test_sine_l2_closed_form():
    nd = Sine(3.0).norm_data(1, 0.0, 1.0)
    # ||3 cos 3x||_2^2 = 9/2 + (3/4) sin 6 on [0, 1]
    assert nd.l2**2 == pytest.approx(4.5 + 0.75 * math.sin(6.0), rel=1e-12)


def test_sine_sup_hits_interior_peak():
    # 3cos(3x) on [0, 1]: |cos| peaks at x = 0 only, but on [-1, 2] the
    # peak |cos(3x)| = 1 at x = 0 and x = pi/3 is interior
    nd = Sine(3.0).norm_data(1, -1.0, 2.0)
    assert nd.linf == pytest.approx(3.0, rel=1e-13)
    band = Sine(3.0).band(1, -1.0, 2.0)
    assert band.gamma == pytest.approx(-3.0, rel=1e-13)
    assert band.Gamma == pytest.approx(3.0, rel=1e-13)


def test_sine_refuses_an_interval_past_its_grid_limit(monkeypatch):
    """Zeros and extrema come from listing the multiples of pi in omega [a, b];
    past 2**20 of them the interval is refused before any is listed."""
    for a, b in [(1e307, 1.5e307), (0.0, 3.3e6)]:
        message = rf"^sin with omega=1\.0 on \[{re.escape(repr(a))}, {re.escape(repr(b))}\] lists"
        with pytest.raises(ValidationError, match=message + r" more than 1048576 multiples of pi$"):
            Sine(1.0).band(2, a, b)
        with pytest.raises(ValidationError, match=message):
            Sine(1.0).norm_data(2, a, b)
    band = Sine(1.0).band(1, 0.0, 12.0)
    monkeypatch.setattr(functions, "_PHASE_GRID_LIMIT", 8)
    assert Sine(1.0).band(1, 0.0, 12.0) == band  # its zeros list 8: j = -1..6
    with pytest.raises(ValidationError, match="more than 8 multiples of pi$"):
        Sine(1.0).band(1, 0.0, 20.0)


def test_sine_l1_via_arch_areas():
    # integral of |3 cos 3x| over [0, pi]: three arches of area 2 each... the
    # interval [0, pi] contains exactly 3 half-periods of cos(3x)
    nd = Sine(3.0).norm_data(1, 0.0, math.pi)
    assert nd.l1 == pytest.approx(6.0, rel=1e-12)


def test_runge_first_derivative_norms():
    # f' = -2x/(1+x^2)^2 is nonpositive on [0, 1]: L1 telescopes to 1/2
    nd = Runge().norm_data(1, 0.0, 1.0)
    assert nd.l1 == pytest.approx(0.5, rel=1e-12)
    # sup at the stationary point x = 1/sqrt(3)
    assert nd.linf == pytest.approx(9.0 / (8.0 * math.sqrt(3.0)), rel=1e-12)


def test_runge_band_symmetric_on_wide_interval():
    band = Runge().band(1, -1.0, 2.0)
    peak = 9.0 / (8.0 * math.sqrt(3.0))
    assert band.Gamma == pytest.approx(peak, rel=1e-12)
    assert band.gamma == pytest.approx(-peak, rel=1e-12)


def test_runge_rate_is_exact():
    nd = Runge().norm_data(2, -1.0, 2.0)
    f = Runge()
    expected = (f.derivative(1, 2.0) - f.derivative(1, -1.0)) / 3.0
    assert nd.endpoint_diff_rate == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("a,b", INTERVALS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_sampled_values_respect_claimed_bounds(a, b, order):
    """Dense sampling can never contradict exact sup/band metadata."""
    for fn in (Exponential(), Sine(3.0), Runge(), PolynomialFunction((1.0, -1.0, 0.5, 2.0, -0.25, 0.125, 1.0))):
        nd = fn.norm_data(order, a, b)
        band = fn.band(order, a, b)
        xs = [a + (b - a) * i / 4000 for i in range(4001)]
        vals = [fn.derivative(order, x) for x in xs]
        top = max(abs(v) for v in vals)
        assert top <= nd.linf * (1.0 + 1e-12) + 1e-12
        # the sampled maximum should come close to the exact one
        assert top >= nd.linf * (1.0 - 1e-3) - 1e-9
        assert min(vals) >= band.gamma - 1e-12
        assert max(vals) <= band.Gamma + 1e-12


def check_norm_interrelations(nd, width, slack=0.0):
    assert nd.l1 <= nd.linf * width * (1.0 + 1e-12) + slack
    assert nd.l2**2 <= nd.linf * nd.l1 * (1.0 + 1e-12) + slack
    assert nd.l1 <= nd.l2 * math.sqrt(width) * (1.0 + 1e-12) + slack
    assert nd.sigma <= nd.l2**2 * (1.0 + 1e-12) + slack
    assert abs(nd.endpoint_diff_rate) * width <= nd.l1 * (1.0 + 1e-12) + slack


@pytest.mark.parametrize("a,b", INTERVALS)
def test_norm_interrelations(a, b):
    poly = PolynomialFunction((1.0, -1.0, 0.5, 2.0, -0.25, 0.125, 1.0))
    for fn in (Exponential(), Sine(3.0), Runge(), poly):
        for order in (1, 2, 4):
            check_norm_interrelations(fn.norm_data(order, a, b), b - a)


poly_coeffs = st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=7)


@settings(max_examples=60)
@given(poly_coeffs, st.integers(min_value=1, max_value=3), st.sampled_from(INTERVALS))
def test_polynomial_norm_interrelations(coeffs, order, interval):
    """Classic norm comparisons, with slack for roundoff at the sup's scale."""
    a, b = interval
    nd = PolynomialFunction(tuple(coeffs)).norm_data(order, a, b)
    check_norm_interrelations(nd, b - a, slack=1e-9 * (1.0 + nd.linf) ** 2)


@settings(max_examples=60)
@given(poly_coeffs, st.integers(min_value=0, max_value=50))
def test_polynomial_band_brackets_sampled_values(coeffs, i):
    f = PolynomialFunction(tuple(coeffs))
    band = f.band(1, 0.0, 1.0)
    v = f.derivative(1, i / 50.0)
    assert band.gamma - 1e-9 <= v <= band.Gamma + 1e-9


def test_polynomial_metadata_against_direct_integration():
    f = PolynomialFunction((0.0, 0.0, 1.0))  # x^2
    nd = f.norm_data(1, 0.0, 1.0)  # derivative: 2x on [0, 1]
    assert nd.l1 == pytest.approx(1.0, rel=1e-13)
    assert nd.linf == pytest.approx(2.0, rel=1e-13)
    assert nd.l2 == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-13)
    # mean of 2x over [0, 1]: (f(1) - f(0)) / (1 - 0)
    assert nd.endpoint_diff_rate == pytest.approx(1.0, rel=1e-13)
    # variance of 2x around its mean 1: integral (2x-1)^2 = 1/3
    assert nd.sigma == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_polynomial_band_covers_negative_dips():
    f = PolynomialFunction((0.0, 0.0, -1.0, 1.0))  # x^3 - x^2
    band = f.band(1, 0.0, 1.0)  # derivative 3x^2 - 2x dips to -1/3 at x=1/3
    assert band.gamma == pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert band.Gamma == pytest.approx(1.0, rel=1e-12)


def test_polynomial_norms_split_at_sign_changes():
    # f' = x^2 - 1/4 on [-1, 1]: zeros at +-1/2 must be split for the l1 norm
    nd = PolynomialFunction((0.0, -0.25, 0.0, 1.0 / 3.0)).norm_data(1, -1.0, 1.0)
    assert nd.l1 == pytest.approx(0.5, rel=1e-12)
    assert nd.linf == pytest.approx(0.75, rel=1e-12)
    assert nd.l2**2 == pytest.approx(23.0 / 120.0, rel=1e-12)


def test_polynomial_norms_of_a_line():
    # f' = x - 1/2 on [0, 1]
    nd = PolynomialFunction((0.0, -0.5, 0.5)).norm_data(1, 0.0, 1.0)
    assert nd.l1 == pytest.approx(0.25, rel=1e-13)
    assert nd.linf == pytest.approx(0.5, rel=1e-13)
    assert nd.l2**2 == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_polynomial_interior_max_found_without_sign_change():
    # f' = 3/4 + x - x^2 = 1 - (x - 1/2)^2 peaks strictly inside [0, 1]
    f = PolynomialFunction((0.0, 0.75, 0.5, -1.0 / 3.0))
    assert f.norm_data(1, 0.0, 1.0).linf == pytest.approx(1.0, rel=1e-13)
    band = f.band(1, 0.0, 1.0)
    assert band.Gamma == pytest.approx(1.0, rel=1e-13)
    assert band.gamma == pytest.approx(0.75, rel=1e-13)


@pytest.mark.parametrize(
    "coeffs,order,a,b",
    [((0.3, -0.7, 0.2, 0.9, -0.1), 2, 1000.0, 1001.0), ((0.1, 0.5, -0.3, 0.7), 1, 300.0, 300.5)],
)
def test_polynomial_l1_far_from_zero_is_within_4_ulp(coeffs, order, a, b):
    # f^(order) keeps one sign on [a, b], so ||f^(order)||_1 = |f^(order-1)(b) - f^(order-1)(a)|,
    # taken exactly from the float coefficients
    primitive = [Fraction(c) for c in coeffs]
    for _ in range(order - 1):
        primitive = [k * c for k, c in enumerate(primitive)][1:]

    def value(x):
        return sum(c * Fraction(x) ** k for k, c in enumerate(primitive))

    exact = abs(value(b) - value(a))
    l1 = PolynomialFunction(coeffs).norm_data(order, a, b).l1
    assert abs(Fraction(l1) - exact) <= 4 * Fraction(math.ulp(float(exact)))


def test_polynomial_beyond_its_degree_has_zero_norms():
    nd = PolynomialFunction((4.0,)).norm_data(1, 0.0, 1.0)
    assert nd.l1 == nd.l2 == nd.linf == 0.0


def test_polynomial_metadata_validates_the_interval():
    f = PolynomialFunction((0.0, 1.0))
    with pytest.raises(ValidationError):
        f.norm_data(1, 0.8, 0.2)
    with pytest.raises(ValidationError):
        f.band(1, 0.5, 0.5)


def test_order_zero_metadata_is_rejected():
    with pytest.raises(ValidationError):
        Exponential().norm_data(0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        Runge().band(0, 0.0, 1.0)


def test_integrand_handles_arbitrary_orders():
    f = Runge().integrand(0.0, 1.0)
    assert f.max_order is None
    assert f.eval_derivative(7, 0.3) == pytest.approx(
        central_difference(Runge(), 7, 0.3), rel=1e-4, abs=1e-2
    )


# ---------------------------------------------------------------- column formulas


def _point_formula(fn, order):
    """f^(order) of a builtin at one point, each operation as before its
    formulas took a column: the reference the columns must match bit for bit."""
    if isinstance(fn, Sine):
        w = fn.omega
        scale, phase = w**order, order * math.pi / 2.0
        return lambda x: scale * math.sin(w * x + phase)
    if isinstance(fn, Runge):
        scale, m = (-1.0) ** order * math.factorial(order), order + 1

        def at(x):
            t = math.atan2(1.0, x)
            return scale * math.sin(t) ** m * math.sin(m * t)

        return at
    if isinstance(fn, PolynomialFunction):
        coeffs = fn.coefficients
        for _ in range(order):
            coeffs = _derivative_coeffs(coeffs)
        return lambda x: _horner(coeffs, x)
    return math.exp


def _signed_zero_polynomials():
    rng = random.Random(21)
    polys = []
    for degree in range(7):
        polys.append((-0.0,) * (degree + 1))
        polys.append(tuple(rng.choice([-0.0, 0.0, rng.uniform(-3.0, 3.0)])
                           for _ in range(degree + 1)))
        polys.append((-0.0,) * degree + (rng.uniform(-3.0, 3.0),))
    return polys


COLUMN_CASES = ([Exponential(), Sine(1.0), Sine(37.3), Sine(100.0), Runge()]
                + [PolynomialFunction(c) for c in _signed_zero_polynomials()])
COLUMN_POINTS = ([0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3]
                 + [random.Random(7).uniform(-12.0, 12.0) for _ in range(40)])


def _bits(x):
    return struct.pack("<d", x)


def _point_norm_data(fn, order, a, b):
    """norm_data's fields (l1, l2, linf, rate, sigma) as formed point by point,
    f^(order-1) read twice at each interior cut: the reference of its column."""
    at, before = _point_formula(fn, order), _point_formula(fn, order - 1)
    primitive = before
    if isinstance(fn, PolynomialFunction):
        shifted = _taylor_shift(fn._coeffs_of_order(order - 1), a)
        shifted[0] = 0.0
        primitive = lambda x: _horner(shifted, x - a)  # noqa: E731
    stationary, zeros = fn._critical_points(order, a, b)
    linf = max(abs(at(x)) for x in [a, b, *stationary])
    cuts = sorted({a, b, *zeros})
    l1 = math.fsum(abs(primitive(right) - primitive(left)) for left, right in zip(cuts, cuts[1:]))
    l2_sq = fn._l2_sq(order, a, b)
    rate = (before(b) - before(a)) / (b - a)
    sigma = l2_sq - rate * rate * (b - a)
    return l1, math.sqrt(max(l2_sq, 0.0)), linf, rate, max(sigma, 0.0)


@pytest.mark.parametrize("fn", COLUMN_CASES, ids=lambda fn: fn.name)
def test_column_formulas_keep_the_bits_of_the_point_formulas(fn):
    """derivatives(k, xs) over a whole column, and derivative(k, x) as a
    column of one, give each point formula's bits, signed zeros included;
    where the point formula overflows, both raise OverflowError.  Every
    field of norm_data, whose l1 reads f^(order-1) at its cuts as one
    column, keeps the bits of the point-by-point form."""
    for order in range(1, 9):
        for a, b in [*INTERVALS, (-12.0, 12.0)]:
            nd = fn.norm_data(order, a, b)
            fields = (nd.l1, nd.l2, nd.linf, nd.endpoint_diff_rate, nd.sigma)
            expected = _point_norm_data(fn, order, a, b)
            assert list(map(_bits, fields)) == list(map(_bits, expected)), (order, a, b)
    for order in range(9):
        point = _point_formula(fn, order)
        expected = []
        for x in COLUMN_POINTS:
            try:
                expected.append(_bits(point(x)))
            except OverflowError:
                expected.append(None)
            if expected[-1] is None:
                with pytest.raises(OverflowError):
                    fn.derivative(order, x)
                with pytest.raises(OverflowError):
                    fn.derivatives(order, [x])
            else:
                assert _bits(fn.derivative(order, x)) == expected[-1], (order, x)
                assert _bits(fn.derivatives(order, [x])[0]) == expected[-1], (order, x)
        finite = [x for x, bits in zip(COLUMN_POINTS, expected) if bits is not None]
        assert list(map(_bits, fn.derivatives(order, finite))) == [b for b in expected if b]


@pytest.mark.parametrize("fn, order, xs, message", [
    (Exponential(), 2, [800.0], r"exp: derivative of order 2 overflows a float on \[800\.0, 800\.0\]"),
    (Exponential(), 0, [1.0, 800.0, -3.0], r"exp: derivative of order 0 overflows a float on \[-3\.0, 800\.0\]"),
    (Sine(1e200), 2, [0.5], r"sin\(1e\+200x\): derivative of order 2 overflows a float on \[0\.5, 0\.5\]"),
    (Runge(), 171, [0.25, 0.5], r"runge: derivative of order 171 overflows a float on \[0\.25, 0\.5\]"),
])
def test_an_overflowing_formula_is_named(fn, order, xs, message):
    """The builtin's own OverflowError (math.exp's "math range error", a power
    or a factorial past the float range) names the function, the order and
    the points' range, read one point or many."""
    with pytest.raises(OverflowError, match=f"^{message}$"):
        fn.derivatives(order, xs)
    if len(xs) == 1:
        with pytest.raises(OverflowError, match=f"^{message}$"):
            fn.derivative(order, xs[0])


def test_no_builtin_keeps_a_point_path_of_its_own():
    """derivative(k, x) is the column formula read at one point, for every builtin."""
    builtins = functions.AnalyticFunction.__subclasses__()
    assert {cls.__name__ for cls in builtins} == {"Exponential", "Sine", "Runge",
                                                  "PolynomialFunction"}
    assert [cls.__name__ for cls in builtins if "derivative" in vars(cls)] == []


@pytest.mark.parametrize("fn", [Exponential(), Sine(3.0), Runge()], ids=lambda fn: fn.name)
def test_norm_data_reads_the_primitive_at_its_cuts_in_one_column(fn, monkeypatch):
    """l1 reads f^(order-1) at a, b and the zeros of f^(order) in one
    derivatives call, each cut once; the rate reads it at b and a."""
    calls = []
    read = functions.AnalyticFunction.derivatives
    monkeypatch.setattr(functions.AnalyticFunction, "derivatives",
                        lambda self, k, xs: calls.append((k, list(xs))) or read(self, k, xs))
    for order in (1, 2, 3):
        for a, b in [*INTERVALS, (-4.0, 5.0)]:
            cuts = sorted({a, b, *fn._critical_points(order, a, b)[1]})
            calls.clear()
            fn.norm_data(order, a, b)
            assert [xs for k, xs in calls if k == order - 1] == [cuts, [b, a]], (order, a, b)


def test_a_band_that_overflows_names_its_interval():
    with pytest.raises(OverflowError, match=r"^exp: derivative of order 2 overflows a float "
                                            r"on \[0\.0, 800\.0\]$"):
        Exponential().band(2, 0.0, 800.0)
