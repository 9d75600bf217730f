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
    certify,
    composite_integrate,
    kernel_stats_closed,
    sigma_functional,
)
from thetaquad import bounds

thetas = st.floats(min_value=0.0, max_value=1.0)


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


def norm_cert(s, kind, datum, provenance="user-supplied"):
    """The certificate ``kind`` from its one NormData field."""
    return certify(s, kind, NormData(**{CERTIFICATES[kind]: datum}, provenance=provenance))


def one_sided(s, side, edge, rate):
    """The "band" certificate from a half-infinite band with its finite edge on ``side``."""
    if side == "lower":
        band = DerivativeBand(edge, math.inf, s.n)
    else:
        band = DerivativeBand(-math.inf, edge, s.n)
    return certify(s, "band", NormData(endpoint_diff_rate=rate), band)


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
    cert = norm_cert(spec(1.0 / 3.0, 3), "l1", 1.0)
    assert cert.bound == pytest.approx(1.0 / 324.0, rel=1e-14)
    assert cert.theorem == CertificateKind.L1


def test_sup_coefficient_classic_fourth_order():
    cert = norm_cert(spec(1.0 / 3.0, 4), "linf", 1.0)
    assert cert.bound == pytest.approx(1.0 / 2880.0, rel=1e-14)


def test_sup_coefficient_second_order_parabolic():
    cert = norm_cert(spec(1.0 / 3.0, 2), "linf", 1.0)
    assert cert.bound == pytest.approx(1.0 / 81.0, rel=1e-14)


def test_l2_coefficient_averaged_first_order():
    cert = norm_cert(spec(0.5, 1), "l2", 1.0)
    assert cert.bound == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), rel=1e-14)


def test_band_coefficient_midpoint_first_order():
    for gamma, Gamma in ((0.0, 1.0), (-2.0, 3.0)):
        cert = certify(spec(0.0, 1), "band", band=DerivativeBand(gamma, Gamma, 1))
        assert cert.bound == pytest.approx((Gamma - gamma) / 8.0, rel=1e-14)


def test_one_sided_coefficient_trapezoid_cubic():
    cert = one_sided(spec(1.0, 3), "lower", 0.0, 1.0)
    assert cert.bound == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert cert.theorem == CertificateKind.ONE_SIDED_ODD


def test_perturbed_coefficient_parabolic_second_order():
    cert = one_sided(spec(1.0 / 3.0, 2), "lower", 0.0, 1.0)
    assert cert.theorem == CertificateKind.PERTURBED_EVEN
    assert cert.bound == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert cert.covers_perturbed_rule


def test_sharp_coefficient_parabolic_second_order():
    cert = norm_cert(spec(1.0 / 3.0, 2), "sharp", 1.0)
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
            band_odd = certify(s, "band", band=DerivativeBand(-1.0, 1.0, n)).bound
            assert band_odd == stats.abs_integral
            assert one_sided(s, "lower", 0.0, 1.0).bound == stats.max_abs
        else:
            perturbed = one_sided(s, "upper", 1.0, 0.0).bound
            assert perturbed == stats.centered_max_abs


# ------------------------------------------------ special-theta coefficients
# Hand-derived closed forms for the classical parameter values. Each test
# recomputes the coefficient from an independently simplified expression.


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_trapezoid_band_coefficient(n):
    cert = certify(spec(1.0, n), "band", band=DerivativeBand(0.0, 1.0, n))
    expected = n / (math.factorial(n + 1) * 2.0 ** (n + 1))
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_trapezoid_sup_coefficient_even(n):
    cert = norm_cert(spec(1.0, n), "linf", 1.0)
    expected = n / (math.factorial(n + 1) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trapezoid_one_sided_coefficient(n):
    cert = one_sided(spec(1.0, n), "upper", 1.0, 0.0)
    expected = (n - 1) / (math.factorial(n) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_midpoint_band_coefficient(n):
    cert = certify(spec(0.0, n), "band", band=DerivativeBand(0.0, 1.0, n))
    expected = 1.0 / (math.factorial(n + 1) * 2.0 ** (n + 1))
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 9))
def test_parabolic_sup_coefficient_all_orders(n):
    cert = norm_cert(spec(1.0 / 3.0, n), "linf", 1.0)
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
    cert = norm_cert(spec(0.5, n), "l1", 1.0)
    expected = numerator / (math.factorial(n) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "n,numerator",
    [(1, 2.0 / 3.0), (2, 1.0 / 3.0), (3, 4.0 / 27.0), (4, 1.0 / 3.0),
     (5, 2.0 / 3.0), (6, 1.0)],
)
def test_parabolic_l1_coefficient(n, numerator):
    # sup|kernel| numerators at theta = 1/3: 2/3, 1/3, 4/27, 1/3, then (n-3)/3
    cert = norm_cert(spec(1.0 / 3.0, n), "l1", 1.0)
    expected = numerator / (math.factorial(n) * 2.0**n)
    assert cert.bound == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------- invariants


@given(thetas, st.integers(min_value=0, max_value=3), st.floats(min_value=0.01, max_value=50.0))
def test_symmetric_band_equals_sup_bound(theta, i, m):
    """A band [-M, M] carries exactly the information of a sup norm M."""
    n = 2 * i + 1
    s = spec(theta, n)
    banded = certify(s, "band", band=DerivativeBand(-m, m, n))
    supped = norm_cert(s, "linf", m)
    assert banded.bound == pytest.approx(supped.bound, rel=1e-12)


@given(thetas, st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=100.0))
def test_bounds_scale_linearly_in_the_norm(theta, n, norm):
    s = spec(theta, n)
    unit = norm_cert(s, "l1", 1.0).bound
    assert norm_cert(s, "l1", norm).bound == pytest.approx(unit * norm, rel=1e-12, abs=1e-300)


@given(thetas, st.integers(min_value=1, max_value=6))
def test_l2_between_l1_and_sup_flavours(theta, n):
    """For a unit norm the three kernel-norm coefficients are ordered by
    Cauchy-Schwarz on the unit interval: linf-coeff >= l2-coeff >= ... the
    l1 coefficient is sup|K| which dominates the L2 norm of K as well."""
    s = spec(theta, n)
    c_l1 = norm_cert(s, "l1", 1.0).bound  # sup|K|
    c_l2 = norm_cert(s, "l2", 1.0).bound  # (integral K^2)^(1/2)
    c_linf = norm_cert(s, "linf", 1.0).bound  # integral |K|
    assert c_l2 <= c_l1 * (1.0 + 1e-12)  # ||K||_2 <= sup|K| * width^(1/2)
    assert c_linf <= c_l1 * (1.0 + 1e-12)  # integral |K| <= sup|K| * width
    assert c_l2**2 <= c_l1 * c_linf * (1.0 + 1e-12)  # K^2 <= sup|K| * |K|


def test_one_sided_requires_a_valid_gap():
    s = spec(1.0, 3)
    with pytest.raises(ValidationError):
        # lower edge must sit below the endpoint difference rate
        one_sided(s, "lower", 2.0, 1.0)
    with pytest.raises(ValidationError):
        one_sided(s, "upper", 0.0, 1.0)


def test_parity_and_edges_pick_the_band_theorem():
    two_sided, lower = DerivativeBand(0.0, 1.0, 3), DerivativeBand(0.0, math.inf, 3)
    assert certify(spec(0.5, 3), "band", band=two_sided).theorem == CertificateKind.BAND_ODD
    odd = certify(spec(0.5, 3), "band", NormData(endpoint_diff_rate=0.5), lower)
    assert odd.theorem == CertificateKind.ONE_SIDED_ODD and not odd.covers_perturbed_rule
    rate = NormData(endpoint_diff_rate=0.5)
    even = certify(spec(0.5, 2), "band", rate, DerivativeBand(0.0, 1.0, 2))
    assert even.theorem == CertificateKind.PERTURBED_EVEN and even.covers_perturbed_rule
    with pytest.raises(ValidationError, match="at n=2 needs NormData.endpoint_diff_rate"):
        certify(spec(0.5, 2), "band", band=DerivativeBand(0.0, 1.0, 2))
    with pytest.raises(ValidationError, match="at n=3 needs NormData.endpoint_diff_rate"):
        certify(spec(0.5, 3), "band", band=lower)


def test_band_order_must_match_the_rule_order():
    message = "band is for derivative order 4, rule expects 2"
    with pytest.raises(ValidationError):
        certify(spec(0.5, 3), "band", band=DerivativeBand(0.0, 1.0, 1))
    band = DerivativeBand(-1.0, 1.0, 4)
    with pytest.raises(ValidationError, match=message):
        certify(spec(0.5, 2), "band", NormData(endpoint_diff_rate=0.0), band)
    fn = Exponential()
    with pytest.raises(ValidationError, match=message):
        composite_integrate(
            fn.integrand(0.0, 1.0), spec(0.5, 2), 4, "band", band=fn.band(4, 0.0, 1.0)
        )


def test_band_requires_a_finite_edge():
    for n in (2, 3):
        band = DerivativeBand(-math.inf, math.inf, n)
        with pytest.raises(ValidationError, match="no valid side"):
            certify(spec(0.5, n), "band", NormData(endpoint_diff_rate=0.0), band)


def test_one_sided_certificate_stores_a_half_infinite_band():
    cert = one_sided(spec(1.0, 3), "lower", -2.0, 1.0)
    assert cert.band.gamma == -2.0
    assert cert.band.Gamma == math.inf


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_one_sided_odd_through_certify(n):
    """A half-infinite band at odd n gives OneSidedOdd: |rate - edge| (b - a) max|K|."""
    s = spec(0.37, n, -0.5, 1.25)
    sup = kernel_stats_closed(s).max_abs
    for side, edge, rate in (("lower", -2.0, 0.75), ("upper", 3.0, 0.75)):
        cert = one_sided(s, side, edge, rate)
        assert cert.theorem == CertificateKind.ONE_SIDED_ODD
        assert cert.bound == abs(rate - edge) * s.width * sup
        assert not cert.covers_perturbed_rule
        assert (cert.norms.endpoint_diff_rate, cert.norms.provenance) == (rate, "user-supplied")


@pytest.mark.parametrize("n, band", [(2, DerivativeBand(1.0, 2.0, 2)),
                                     (3, DerivativeBand(1.0, math.inf, 3))])
def test_band_rate_from_norms_keeps_its_provenance(n, band):
    s = spec(0.5, n)
    for provenance, rigor in (("sampled-heuristic", "heuristic-inputs"), ("exact", "rigorous")):
        cert = certify(s, "band", NormData(endpoint_diff_rate=1.5, provenance=provenance), band)
        assert (cert.norms.provenance, cert.rigor) == (provenance, rigor)
    passed = certify(s, "band", NormData(endpoint_diff_rate=1.5), band)  # the default
    assert (passed.norms.provenance, passed.rigor) == ("user-supplied", "rigorous")


def test_reads_rate_is_false_only_for_two_sided_odd_bands():
    two_sided, half = DerivativeBand(0.0, 1.0, 3), DerivativeBand(0.0, math.inf, 3)
    assert not bounds.reads_rate("band", 3, two_sided)
    assert bounds.reads_rate("band", 3, half)
    assert bounds.reads_rate("band", 2, two_sided) and bounds.reads_rate("band", 2, half)
    for kind in ("l1", "l2", "linf", "sharp", None):
        assert not bounds.reads_rate(kind, 2, two_sided)


def test_tied_sides_pick_the_lower_edge():
    s = spec(0.5, 2)
    rate = NormData(endpoint_diff_rate=1.0)
    tie = certify(s, "band", rate, DerivativeBand(0.0, 2.0, 2))
    assert (tie.band.gamma, tie.band.Gamma) == (0.0, math.inf)
    closer_above = certify(s, "band", rate, DerivativeBand(0.0, 1.5, 2))
    assert (closer_above.band.gamma, closer_above.band.Gamma) == (-math.inf, 1.5)
    assert closer_above.bound == tie.bound / 2


def test_heuristic_provenance_degrades_rigor():
    s = spec(0.5, 2)
    assert norm_cert(s, "l1", 1.0).rigor == "rigorous"
    assert norm_cert(s, "l1", 1.0, provenance="sampled-heuristic").rigor == "heuristic-inputs"
    assert norm_cert(s, "sharp", 1.0, provenance="exact").rigor == "rigorous"


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
    cert = norm_cert(spec(theta, 2 * m), "sharp", sigma)
    assert cert.bound >= 0.0
    assert math.isfinite(cert.bound)


@given(thetas, st.integers(min_value=1, max_value=6))
def test_sharp_bound_dominated_by_l2_bound(theta, n):
    """The variance-based bound can only improve on the plain L2 bound when
    both are fed the matching norms (sigma <= ||f^(n)||_2^2)."""
    s = spec(theta, n)
    l2 = norm_cert(s, "l2", 1.0).bound
    sharp = norm_cert(s, "sharp", 1.0).bound  # sigma = 1 matches ||f^(n)||_2 = 1
    assert sharp <= l2
