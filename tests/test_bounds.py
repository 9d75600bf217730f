import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaquad import (
    CERTIFICATES,
    CertificateKind,
    DerivativeBand,
    ErrorCertificate,
    Exponential,
    Integrand,
    NormData,
    RuleSpec,
    ValidationError,
    bound_band_odd,
    bound_l1,
    bound_l2,
    bound_linf,
    bound_one_sided_odd,
    bound_perturbed_even,
    bound_sharp,
    certify,
    composite_integrate,
    kernel_stats_closed,
    sigma_functional,
)

thetas = st.floats(min_value=0.0, max_value=1.0)


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


# -------------------------------------------------------------- input types


def test_norm_data_rejects_negative_norms():
    with pytest.raises(ValidationError):
        NormData(l1=-1.0, l2=0.0, linf=0.0, endpoint_diff_rate=0.0, sigma=0.0)
    with pytest.raises(ValidationError):
        NormData(l1=0.0, l2=0.0, linf=0.0, endpoint_diff_rate=0.0, sigma=-2.0)
    # the endpoint difference rate is a signed quantity
    NormData(l1=1.0, l2=1.0, linf=1.0, endpoint_diff_rate=-3.0, sigma=0.0)


def test_norm_data_provenance_checked():
    with pytest.raises(ValidationError):
        NormData(
            l1=1.0, l2=1.0, linf=1.0, endpoint_diff_rate=0.0, sigma=0.0,
            provenance="guessed",
        )


def test_band_ordering_enforced():
    with pytest.raises(ValidationError):
        DerivativeBand(gamma=2.0, Gamma=1.0, order=1)
    band = DerivativeBand(gamma=-math.inf, Gamma=5.0, order=3)
    assert band.gamma == -math.inf


def test_certificate_rejects_bad_bound_values():
    s = spec(0.5, 1)
    with pytest.raises(ValidationError):
        ErrorCertificate(
            bound=-1.0, theorem=CertificateKind.L1, spec=s, norms=None,
            band=None, covers_perturbed_rule=False, rigor="rigorous",
        )
    with pytest.raises(ValidationError):
        ErrorCertificate(
            bound=math.inf, theorem=CertificateKind.L1, spec=s, norms=None,
            band=None, covers_perturbed_rule=False, rigor="rigorous",
        )


# ------------------------------------------------------- frozen coefficients


def test_l1_coefficient_cubic_parabolic_blend():
    cert = bound_l1(spec(1.0 / 3.0, 3), 1.0)
    assert cert.bound == pytest.approx(1.0 / 324.0, rel=1e-14)
    assert cert.theorem == CertificateKind.L1


def test_sup_coefficient_classic_fourth_order():
    cert = bound_linf(spec(1.0 / 3.0, 4), 1.0)
    assert cert.bound == pytest.approx(1.0 / 2880.0, rel=1e-14)


def test_sup_coefficient_second_order_parabolic():
    cert = bound_linf(spec(1.0 / 3.0, 2), 1.0)
    assert cert.bound == pytest.approx(1.0 / 81.0, rel=1e-14)


def test_l2_coefficient_averaged_first_order():
    cert = bound_l2(spec(0.5, 1), 1.0)
    assert cert.bound == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-14)


def test_band_coefficient_midpoint_first_order():
    for gamma, Gamma in ((0.0, 1.0), (-2.0, 3.0)):
        cert = bound_band_odd(spec(0.0, 1), DerivativeBand(gamma, Gamma, 1))
        assert cert.bound == pytest.approx((Gamma - gamma) / 8.0, rel=1e-14)


def test_one_sided_coefficient_trapezoid_cubic():
    cert = bound_one_sided_odd(
        spec(1.0, 3), side="lower", band_edge=0.0, endpoint_diff_rate=1.0
    )
    assert cert.bound == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert cert.theorem == CertificateKind.ONE_SIDED_ODD


def test_perturbed_coefficient_parabolic_second_order():
    cert = bound_perturbed_even(
        spec(1.0 / 3.0, 2), side="lower", band_edge=0.0, endpoint_diff_rate=1.0
    )
    assert cert.bound == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert cert.covers_perturbed_rule


def test_sharp_coefficient_parabolic_second_order():
    cert = bound_sharp(spec(1.0 / 3.0, 2), sigma=1.0)
    assert cert.bound == pytest.approx(math.sqrt(1.0 / 4320.0), rel=1e-13)
    assert cert.covers_perturbed_rule


@pytest.mark.parametrize("n", range(1, 13))
def test_unit_datum_budgets_are_the_kernel_statistics(n):
    """Each certificate is a kernel statistic times its datum, bit for bit."""
    for k in range(21):
        s = spec(k / 20.0, n)
        stats = kernel_stats_closed(s)
        budgets = {
            kind: certify(s, kind, NormData(**{field: 1.0})).bound
            for kind, field in CERTIFICATES.items()
            if kind != "band"
        }
        assert budgets == {
            "l1": stats.max_abs,
            "l2": math.sqrt(stats.l2_sq),
            "linf": stats.abs_integral,
            "sharp": math.sqrt(stats.centered_l2_sq),
        }
        if n % 2 == 1:
            assert bound_band_odd(s, DerivativeBand(-1.0, 1.0, n)).bound == stats.abs_integral
            one_sided = bound_one_sided_odd(s, "lower", 0.0, 1.0).bound
            assert one_sided == stats.max_abs
        else:
            perturbed = bound_perturbed_even(s, "upper", 1.0, 0.0).bound
            assert perturbed == stats.centered_max_abs


# ------------------------------------------------ special-theta coefficients
# Hand-derived closed forms for the classical parameter values. Each test
# recomputes the coefficient from an independently simplified expression.


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_trapezoid_band_coefficient(n):
    cert = bound_band_odd(spec(1.0, n), DerivativeBand(0.0, 1.0, n))
    expected = n / (math.factorial(n + 1) * 2.0 ** (n + 1))
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_trapezoid_sup_coefficient_even(n):
    cert = bound_linf(spec(1.0, n), 1.0)
    expected = n / (math.factorial(n + 1) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trapezoid_one_sided_coefficient(n):
    cert = bound_one_sided_odd(
        spec(1.0, n), side="upper", band_edge=1.0, endpoint_diff_rate=0.0
    )
    expected = (n - 1) / (math.factorial(n) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_midpoint_band_coefficient(n):
    cert = bound_band_odd(spec(0.0, n), DerivativeBand(0.0, 1.0, n))
    expected = 1.0 / (math.factorial(n + 1) * 2.0 ** (n + 1))
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 9))
def test_parabolic_sup_coefficient_all_orders(n):
    cert = bound_linf(spec(1.0 / 3.0, n), 1.0)
    if n < 3:
        bracket = 4.0 * n**n / 6.0 ** (n + 1) - (n - 2) / (3.0 * 2.0**n)
        expected = bracket / math.factorial(n + 1)
    else:
        expected = (n - 2) / (3.0 * 2.0**n * math.factorial(n + 1))
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "n,numerator",
    [(1, 0.5), (2, 0.25), (3, 0.5), (4, 1.0), (5, 1.5), (6, 2.0)],
)
def test_averaged_l1_coefficient(n, numerator):
    # sup|kernel| numerators at theta = 1/2: 1/2, 1/4, 1/2, then (n-2)/2
    cert = bound_l1(spec(0.5, n), 1.0)
    expected = numerator / (math.factorial(n) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "n,numerator",
    [(1, 2.0 / 3.0), (2, 1.0 / 3.0), (3, 4.0 / 27.0), (4, 1.0 / 3.0),
     (5, 2.0 / 3.0), (6, 1.0)],
)
def test_parabolic_l1_coefficient(n, numerator):
    # sup|kernel| numerators at theta = 1/3: 2/3, 1/3, 4/27, 1/3, then (n-3)/3
    cert = bound_l1(spec(1.0 / 3.0, n), 1.0)
    expected = numerator / (math.factorial(n) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------- invariants


@given(thetas, st.integers(min_value=0, max_value=3), st.floats(min_value=0.01, max_value=50.0))
def test_symmetric_band_equals_sup_bound(theta, i, m):
    """A band [-M, M] carries exactly the information of a sup norm M."""
    n = 2 * i + 1
    s = spec(theta, n)
    banded = bound_band_odd(s, DerivativeBand(-m, m, n))
    supped = bound_linf(s, m)
    assert banded.bound == pytest.approx(supped.bound, rel=1e-12)


@given(thetas, st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=100.0))
def test_bounds_scale_linearly_in_the_norm(theta, n, norm):
    s = spec(theta, n)
    unit = bound_l1(s, 1.0).bound
    assert bound_l1(s, norm).bound == pytest.approx(unit * norm, rel=1e-12, abs=1e-300)


@given(thetas, st.integers(min_value=1, max_value=6))
def test_l2_between_l1_and_sup_flavours(theta, n):
    """For a unit norm the three kernel-norm coefficients are ordered by
    Cauchy-Schwarz on the unit interval: linf-coeff >= l2-coeff >= ... the
    l1 coefficient is sup|K| which dominates the L2 norm of K as well."""
    s = spec(theta, n)
    c_l1 = bound_l1(s, 1.0).bound  # sup|K|
    c_l2 = bound_l2(s, 1.0).bound  # (integral K^2)^(1/2)
    c_linf = bound_linf(s, 1.0).bound  # integral |K|
    assert c_l2 <= c_l1 * (1.0 + 1e-12)  # ||K||_2 <= sup|K| * width^(1/2)
    assert c_linf <= c_l1 * (1.0 + 1e-12)  # integral |K| <= sup|K| * width
    assert c_l2**2 <= c_l1 * c_linf * (1.0 + 1e-12)  # K^2 <= sup|K| * |K|


def test_one_sided_requires_a_valid_gap():
    s = spec(1.0, 3)
    with pytest.raises(ValidationError):
        # lower edge must sit below the endpoint difference rate
        bound_one_sided_odd(s, side="lower", band_edge=2.0, endpoint_diff_rate=1.0)
    with pytest.raises(ValidationError):
        bound_one_sided_odd(s, side="upper", band_edge=0.0, endpoint_diff_rate=1.0)
    with pytest.raises(ValidationError):
        bound_one_sided_odd(s, side="sideways", band_edge=0.0, endpoint_diff_rate=1.0)


def test_one_sided_parity_checks():
    with pytest.raises(ValidationError):
        bound_one_sided_odd(spec(0.5, 2), side="lower", band_edge=0.0, endpoint_diff_rate=1.0)
    with pytest.raises(ValidationError):
        bound_perturbed_even(spec(0.5, 3), side="lower", band_edge=0.0, endpoint_diff_rate=1.0)
    with pytest.raises(ValidationError):
        bound_band_odd(spec(0.5, 2), DerivativeBand(0.0, 1.0, 2))


def test_band_order_must_match_the_rule_order():
    message = "band is for derivative order 4, rule expects 2"
    with pytest.raises(ValidationError):
        bound_band_odd(spec(0.5, 3), DerivativeBand(0.0, 1.0, 1))
    with pytest.raises(ValidationError, match=message):
        certify(spec(0.5, 2), "band", band=DerivativeBand(-1.0, 1.0, 4), rate=0.0)
    fn = Exponential()
    with pytest.raises(ValidationError, match=message):
        composite_integrate(
            fn.integrand(0.0, 1.0), spec(0.5, 2), 4, "band", band=fn.band(4, 0.0, 1.0)
        )


def test_band_requires_finite_edges():
    with pytest.raises(ValidationError):
        bound_band_odd(spec(0.5, 3), DerivativeBand(-math.inf, 1.0, 3))


def test_one_sided_certificate_stores_a_half_infinite_band():
    cert = bound_one_sided_odd(
        spec(1.0, 3), side="lower", band_edge=-2.0, endpoint_diff_rate=1.0
    )
    assert cert.band.gamma == -2.0
    assert cert.band.Gamma == math.inf


def test_heuristic_provenance_degrades_rigor():
    s = spec(0.5, 2)
    assert bound_l1(s, 1.0).rigor == "rigorous"
    assert bound_l1(s, 1.0, provenance="sampled-heuristic").rigor == "heuristic-inputs"
    assert bound_sharp(s, 1.0, provenance="exact").rigor == "rigorous"


# ------------------------------------------------------------- sigma helper


def test_sigma_functional_of_a_constant_derivative_is_zero():
    f = Integrand(derivative_fn=lambda k, x: x if k == 0 else 1.0, domain=(0.0, 1.0))
    assert sigma_functional(f, 1, 0.0, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_sigma_functional_matches_direct_formula_for_exp():
    f = Exponential().integrand(0.0, 1.0)
    # integral of e^(2x) minus (integral of e^x)^2 on [0, 1]
    expected = (math.e**2 - 1.0) / 2.0 - (math.e - 1.0) ** 2
    assert sigma_functional(f, 1, 0.0, 1.0) == pytest.approx(expected, rel=1e-10)


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=8, deadline=None)
def test_sigma_never_negative(order):
    f = Exponential().integrand(0.0, 1.0)
    assert sigma_functional(f, order, 0.0, 1.0) >= 0.0


# ------------------------------------------------------- sharp even clamps


@given(thetas, st.integers(min_value=1, max_value=3), st.floats(min_value=0.0, max_value=10.0))
def test_sharp_even_bound_is_finite_and_nonnegative(theta, m, sigma):
    cert = bound_sharp(spec(theta, 2 * m), sigma)
    assert cert.bound >= 0.0
    assert math.isfinite(cert.bound)


@given(thetas, st.integers(min_value=1, max_value=6))
def test_sharp_bound_dominated_by_l2_bound(theta, n):
    """The variance-based bound can only improve on the plain L2 bound when
    both are fed the matching norms (sigma <= ||f^(n)||_2^2)."""
    s = spec(theta, n)
    l2 = bound_l2(s, 1.0).bound
    sharp = bound_sharp(s, 1.0).bound  # sigma = 1 matches ||f^(n)||_2 = 1
    assert sharp <= l2
