import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaquad import (
    CERTIFICATES,
    CapabilityError,
    CertificateKind,
    ConvergenceError,
    DerivativeBand,
    DomainError,
    Exponential,
    Integrand,
    NormData,
    PolynomialFunction,
    Runge,
    RuleSpec,
    Sine,
    ValidationError,
    apply_rule,
    certify,
    composite_integrate,
    extremal_integrand,
    reference_integral,
    sharpness_check,
    true_error,
)
from thetaquad import bounds
from thetaquad.integrate import (
    _GL_NODES,
    _GL_WEIGHTS,
    MAX_ORACLE_PANELS,
    _exact_value,
    _extremal_pieces,
)

thetas = st.floats(min_value=0.0, max_value=1.0)


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


def plain(fn):
    return Integrand(derivative_fn=lambda k, x: fn(x), domain=(0.0, 1.0), max_order=0)


# ---------------------------------------------------------------- oracle


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) from the three-term recurrence, in Decimal."""
    p_prev, p = Decimal(1), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1)


def _gauss_legendre_decimal(n, digits):
    """Nodes (ascending) and weights of the n-point rule, to ``digits`` digits.

    Newton's method from the Tricomi guesses cos(pi (i - 1/4) / (n + 1/2))
    finds the positive roots of P_n; the rest follow by symmetry, with 0 an
    exact root for odd n.  Weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    with localcontext() as ctx:
        ctx.prec = digits
        tiny = Decimal(10) ** (2 - digits)
        positive = []
        for i in range(1, n // 2 + 1):
            x = Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
            for _ in range(100):
                p, dp = _legendre_and_derivative(n, x)
                x -= p / dp
                if abs(p / dp) < tiny:
                    break
            else:
                raise AssertionError(f"Newton did not converge for root {i}")
            positive.append(x)
        middle = [Decimal(0)] if n % 2 else []
        nodes = [-x for x in positive] + middle + positive[::-1]
        weights = [
            2 / ((1 - x * x) * _legendre_and_derivative(n, x)[1] ** 2) for x in nodes
        ]
    return nodes, weights


def test_oracle_nodes_and_weights_are_correctly_rounded():
    # The oracle's rule must not depend on the platform: each committed
    # literal is the double nearest to the exact node or weight.
    nodes, weights = _gauss_legendre_decimal(15, 40)
    assert list(_GL_NODES) == [float(x) for x in nodes]
    assert list(_GL_WEIGHTS) == [float(w) for w in weights]


def test_oracle_is_exact_for_low_degree_polynomials():
    f = plain(lambda x: x**7 - 3.0 * x**2 + 1.0)
    assert reference_integral(f, 0.0, 1.0, tol=1e-13) == pytest.approx(
        1.0 / 8.0 - 1.0 + 1.0, abs=1e-14
    )


def test_oracle_on_exponential():
    f = Exponential().integrand(0.0, 1.0)
    assert reference_integral(f, 0.0, 1.0, tol=1e-13) == pytest.approx(
        math.e - 1.0, rel=1e-13
    )


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_oracle_self_consistency_under_tol_halving(tol):
    f = Runge().integrand(-1.0, 2.0)
    coarse = reference_integral(f, -1.0, 2.0, tol=tol)
    fine = reference_integral(f, -1.0, 2.0, tol=tol / 2.0)
    assert abs(coarse - fine) <= tol * (1.0 + abs(fine))


def test_oracle_raises_on_a_kink_at_tight_tolerance():
    # |x - 1/3| has a corner that panel halving never isolates exactly
    f = plain(lambda x: abs(x - 1.0 / 3.0))
    with pytest.raises(ConvergenceError):
        reference_integral(f, 0.0, 1.0, tol=1e-15)
    assert MAX_ORACLE_PANELS >= 1024  # the cap that triggers the failure above


def test_true_error_for_the_worked_midpoint_example():
    f = Exponential().integrand(0.0, 1.0)
    err = true_error(f, spec(0.0, 2))
    assert err == pytest.approx((math.e - 1.0) - math.sqrt(math.e), rel=1e-12)
    assert err == pytest.approx(0.0695605577589169, rel=1e-12)


def test_true_error_perturbed_variant():
    f = Exponential().integrand(0.0, 1.0)
    plain_err = true_error(f, spec(0.0, 2))
    pert_err = true_error(f, spec(0.0, 2), perturbed=True)
    assert pert_err < plain_err  # the endpoint correction helps here
    with pytest.raises(ValidationError):
        true_error(f, spec(0.0, 3), perturbed=True)


# ---------------------------------------------------------------- composite


def test_single_panel_composite_equals_the_plain_rule():
    f = Exponential().integrand(0.0, 1.0)
    s = spec(0.5, 3)
    res = composite_integrate(
        f, s, panels=1, certificate="linf",
        norms=Exponential().norm_data(3, 0.0, 1.0),
    )
    assert res.value == apply_rule(f, s).f_n_value
    assert res.panels == 1
    assert len(res.per_panel_bound) == 1
    assert res.total_bound == res.per_panel_bound[0]


def test_composite_value_is_deterministic():
    f = Runge().integrand(-1.0, 2.0)
    s = spec(1.0 / 3.0, 4, a=-1.0, b=2.0)
    norms = Runge().norm_data(4, -1.0, 2.0)
    first = composite_integrate(f, s, panels=7, certificate="l2", norms=norms)
    second = composite_integrate(f, s, panels=7, certificate="l2", norms=norms)
    assert first.value == second.value
    assert first.total_bound == second.total_bound


def test_total_bound_is_the_sum_of_panel_bounds():
    f = Sine(3.0).integrand(0.0, 1.0)
    res = composite_integrate(
        f, spec(0.0, 2), panels=5, certificate="linf",
        norms=Sine(3.0).norm_data(2, 0.0, 1.0),
    )
    assert res.total_bound == pytest.approx(
        math.fsum(res.per_panel_bound), rel=1e-15
    )
    assert res.certificate_kind == "linf"


@pytest.mark.parametrize("fn", [Exponential(), Runge()])
@pytest.mark.parametrize("panels", [1, 2, 4, 8])
@pytest.mark.parametrize("certificate", CERTIFICATES)
def test_certificates_bound_the_true_error(fn, panels, certificate):
    a, b = 0.0, 1.0
    n = 2 if certificate in ("band", "sharp") else 3
    f = fn.integrand(a, b)
    s = spec(0.4, n, a, b)
    res = composite_integrate(
        f, s, panels=panels, certificate=certificate,
        norms=fn.norm_data(n, a, b), band=fn.band(n, a, b),
    )
    exact = reference_integral(f, a, b, tol=1e-13)
    assert abs(exact - res.value) <= res.total_bound + 1e-12


def test_band_certificate_covers_perturbed_value_for_even_orders():
    """For even n the band certificate bounds the corrected rule, so the
    composite value must already include the per-panel corrections."""
    fn = Exponential()
    f = fn.integrand(0.0, 1.0)
    s = spec(0.0, 2)
    res = composite_integrate(
        f, s, panels=1, certificate="band",
        norms=fn.norm_data(2, 0.0, 1.0), band=fn.band(2, 0.0, 1.0),
    )
    plain_rule = apply_rule(f, s)
    assert res.value == pytest.approx(
        plain_rule.f_n_value + plain_rule.perturbation_term, rel=1e-15
    )
    assert abs((math.e - 1.0) - res.value) <= res.total_bound

    # Every kind and order: the result reports the certificate's coverage, and
    # the value includes the perturbation exactly when it is covered.
    for n in range(1, 7):
        s = spec(0.25, n)
        norms, band = fn.norm_data(n, 0.0, 1.0), fn.band(n, 0.0, 1.0)
        rate = fn.endpoint_diff_rate(n, 0.0, 1.0)
        plain_rule = apply_rule(f, s)
        for kind in CERTIFICATES:
            res = composite_integrate(f, s, panels=1, certificate=kind, norms=norms, band=band)
            covers = certify(s, kind, norms, band, rate).covers_perturbed_rule
            assert res.covers_perturbed_rule is covers, (kind, n)
            expected = plain_rule.f_n_value
            if covers:
                expected += plain_rule.perturbation_term
            assert res.value == expected, (kind, n)


@pytest.mark.parametrize(
    "n, certificate, rate_calls",
    [(2, "l1", 0), (2, "l2", 0), (2, "linf", 0), (2, "band", 20), (2, "sharp", 20),
     (4, "band", 20)],
)
def test_composite_evaluates_the_rate_only_where_it_is_read(n, certificate, rate_calls):
    """f^(n-1) is evaluated at a panel's two ends only when the certificate or
    the certified value reads the mean rate, and at most once per panel."""
    fn = Exponential()
    calls = Counter()

    def derivative_fn(order, x):
        calls[order] += 1
        return fn.derivative(order, x)

    f = Integrand(derivative_fn=derivative_fn, domain=(0.0, 1.0))
    composite_integrate(
        f, spec(0.3, n), 10, certificate,
        norms=fn.norm_data(n, 0.0, 1.0), band=fn.band(n, 0.0, 1.0),
    )
    assert calls[0] == 30
    assert calls[n - 1] == rate_calls


@pytest.mark.parametrize(
    "fn, a, b, panels",
    [(PolynomialFunction((0.3, -1.0, 0.5, 2.0, -0.7, 0.1, 0.4)), 0.1, 0.7, 7),
     (Sine(1.0), 1000.0, 1001.0, 13), (Runge(), -5.0, 5.0, 999)],
)
def test_one_certificate_per_width_equals_the_per_panel_definition(monkeypatch, fn, a, b, panels):
    """Panel widths differ by ulps.  Each width is certified once (a one-sided
    band, at even n or from a half-infinite band at odd n: once per panel),
    and every output bit equals the definition: each panel certified on its
    own, its value the fsum of apply_rule's terms plus the perturbation where
    the certificate covers it."""
    calls = Counter()
    original = bounds.certify

    def counted(*args):
        calls["certify"] += 1
        return original(*args)

    monkeypatch.setattr(bounds, "certify", counted)
    f = fn.integrand(a, b)
    h = (b - a) / panels
    edges = [a + i * h for i in range(panels)] + [b]
    widths = len({hi - lo for lo, hi in zip(edges, edges[1:])})
    assert widths > 1
    for n in range(1, 7):
        norms, band = fn.norm_data(n, a, b), fn.band(n, a, b)
        half_infinite = [DerivativeBand(band.gamma, math.inf, n),
                         DerivativeBand(-math.inf, band.Gamma, n)]
        cases = [(kind, band) for kind in CERTIFICATES] + [("band", h) for h in half_infinite]
        for theta in (0.0, 1.0 / 3.0, 0.5, 1.0, 0.37):
            pspecs = [RuleSpec(theta, n, lo, hi) for lo, hi in zip(edges, edges[1:])]
            rules = [apply_rule(f, p) for p in pspecs]
            rates = [fn.endpoint_diff_rate(n, p.a, p.b) for p in pspecs]
            for kind, kind_band in cases:
                case = (kind, kind_band, n, theta)
                try:
                    certs = [original(p, kind, norms, kind_band, r)
                             for p, r in zip(pspecs, rates)]
                except ValidationError as exc:
                    # Only where f^(n) is constant: a panel's rounded rate
                    # then lies ulps beyond the one finite edge.
                    assert band.gamma == band.Gamma and kind_band is not band, case
                    with pytest.raises(ValidationError) as raised:
                        composite_integrate(f, spec(theta, n, a, b), panels, kind,
                                            norms=norms, band=kind_band)
                    assert str(raised.value) == str(exc), case
                    continue
                covers = certs[0].covers_perturbed_rule
                values = [math.fsum([r.base_value, *r.correction_terms]) for r in rules]
                if covers:
                    values = [v + r.perturbation_term for v, r in zip(values, rules)]
                calls.clear()
                res = composite_integrate(f, spec(theta, n, a, b), panels, kind,
                                          norms=norms, band=kind_band)
                one_sided = certs[0].theorem in (
                    CertificateKind.ONE_SIDED_ODD, CertificateKind.PERTURBED_EVEN
                )
                assert one_sided is (kind == "band" and (n % 2 == 0 or kind_band is not band))
                assert calls["certify"] == (panels if one_sided else widths), case
                assert res.value == math.fsum(values), case
                assert res.per_panel_bound == tuple(c.bound for c in certs), case
                assert res.total_bound == math.fsum(c.bound for c in certs), case
                assert res.covers_perturbed_rule is covers, case


def test_odd_one_sided_composite_reads_each_panel_rate_not_the_norms():
    fn = Exponential()
    f = fn.integrand(0.0, 1.0)
    lower = DerivativeBand(1.0, math.inf, 3)  # f^(3) = exp >= 1 on [0, 1]
    res = composite_integrate(f, spec(0.5, 3), 8, "band", band=lower)
    wrong_rate = NormData(endpoint_diff_rate=1e6)
    assert composite_integrate(f, spec(0.5, 3), 8, "band", norms=wrong_rate, band=lower) == res
    assert not res.covers_perturbed_rule
    plain = composite_integrate(f, spec(0.5, 3), 8, "linf", norms=NormData(linf=1.0))
    assert res.value == plain.value
    assert abs((math.e - 1.0) - res.value) <= res.total_bound


def test_nan_derivative_is_rejected_not_certified():
    """A NaN rule value must not come with a finite budget."""

    def derivative_fn(order, x):
        return math.nan if 0.4 < x < 0.6 else math.exp(x)

    f = Integrand(derivative_fn=derivative_fn, domain=(0.0, 1.0))
    with pytest.raises(ValidationError):
        composite_integrate(f, spec(0.5, 4), 4, "linf", norms=NormData(linf=math.e))
    with pytest.raises(ValidationError):
        f.eval_derivative(0, 0.5)
    inf = Integrand(derivative_fn=lambda order, x: math.inf, domain=(0.0, 1.0))
    with pytest.raises(ValidationError):
        inf.eval_derivative(1, 0.25)


def test_failed_evaluations_raise_the_eval_derivative_errors():
    """The panel loop and the oracle skip the per-call checks only while they
    pass; a failure raises what eval_derivative raises for that point."""

    def nan_at_the_end(order, x):
        return math.nan if x > 0.95 else math.exp(x)

    f = Integrand(derivative_fn=nan_at_the_end, domain=(0.0, 1.0))
    norms = NormData(linf=math.e)
    with pytest.raises(ValidationError, match=r"^derivative of order 0 at x=1\.0 is nan$"):
        composite_integrate(f, spec(0.5, 4), 10, "linf", norms=norms)

    capped = Integrand(derivative_fn=lambda k, x: math.exp(x), domain=(0.0, 1.0), max_order=2)
    message = r"^integrand supplies derivatives up to order 2, order 4 requested$"
    with pytest.raises(CapabilityError, match=message):
        composite_integrate(capped, spec(0.5, 5), 10, "linf", norms=norms)

    def nan_near_three_quarters(order, x):  # first hit by the level-2 panels
        return math.nan if 0.74 < x < 0.76 else math.exp(x)

    g = Integrand(derivative_fn=nan_near_three_quarters, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match=r"^derivative of order 0 at x=0\.75 is nan$"):
        reference_integral(g, 0.0, 1.0)

    outside = r"^x=1\.5 outside integrand domain \[0\.0, 1\.0\]$"
    with pytest.raises(DomainError, match=outside):
        composite_integrate(Exponential().integrand(0.0, 1.0), spec(0.5, 2, 0.0, 1.5), 3,
                            "linf", norms=norms)


def test_sup_certificate_keeps_the_plain_value_for_even_orders():
    fn = Exponential()
    f = fn.integrand(0.0, 1.0)
    res = composite_integrate(
        f, spec(0.0, 2), panels=1, certificate="linf",
        norms=fn.norm_data(2, 0.0, 1.0),
    )
    assert res.value == pytest.approx(math.sqrt(math.e), rel=1e-15)


def test_missing_norms_rejected():
    f = Exponential().integrand(0.0, 1.0)
    with pytest.raises(ValidationError):
        composite_integrate(f, spec(0.5, 2), panels=2, certificate="l2")
    with pytest.raises(ValidationError):  # no certificate is no budget, not a zero one
        composite_integrate(f, spec(0.5, 2), panels=2, certificate=None)


def test_panel_count_validated():
    f = Exponential().integrand(0.0, 1.0)
    norms = Exponential().norm_data(2, 0.0, 1.0)
    with pytest.raises(ValidationError):
        composite_integrate(f, spec(0.5, 2), panels=0, certificate="l2", norms=norms)


@pytest.mark.parametrize(
    "theta,n,expected_order", [(1.0 / 3.0, 4, 4.0), (0.0, 2, 2.0), (1.0, 2, 2.0)]
)
def test_observed_convergence_order(theta, n, expected_order):
    fn = Exponential()
    f = fn.integrand(0.0, 1.0)
    norms = fn.norm_data(n, 0.0, 1.0)
    errors = []
    for panels in (1, 2, 4, 8, 16):
        res = composite_integrate(
            f, spec(theta, n), panels=panels, certificate="linf", norms=norms
        )
        errors.append(abs((math.e - 1.0) - res.value))
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(4)]
    mean_rate = sum(rates) / len(rates)
    assert mean_rate == pytest.approx(expected_order, abs=0.2)


# ---------------------------------------------------------------- sharpness


@given(thetas, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_sharpness_ratio_is_one(theta, n):
    report = sharpness_check(spec(theta, n))
    assert report.ratio == pytest.approx(1.0, abs=1e-10)
    assert report.lhs == pytest.approx(report.rhs, rel=1e-10)
    assert report.end_to_end_error is None


@pytest.mark.parametrize("theta", [0.0, 1.0 / 3.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sharpness_end_to_end_reconstruction(theta, n):
    report = sharpness_check(spec(theta, n, a=-1.0, b=2.0), end_to_end=True)
    # the exact rule error of the extremal integrand is sigma(K) itself
    assert report.end_to_end_error == report.lhs
    assert report.end_to_end_error == pytest.approx(report.rhs, rel=1e-10)


@pytest.mark.parametrize("n", range(1, 31))
def test_end_to_end_error_equals_lhs_at_every_order(n):
    rng = random.Random(n)
    for _ in range(3):
        a = rng.uniform(-3.0, 3.0)
        s = spec(rng.random(), n, a=a, b=a + rng.uniform(0.01, 4.0))
        report = sharpness_check(s, end_to_end=True)
        assert report.end_to_end_error == report.lhs, s


def test_extremal_pieces_are_a_continuous_derivative_chain():
    """Below order n each order is continuous at mid, zero at a, and the
    derivative of the next order down; F closes the chain."""
    for n in (1, 2, 5):
        s = spec(0.3, n, a=-0.75, b=1.5)
        pieces, antiderivative = _extremal_pieces(s)
        h = Fraction(s.b - s.a) / 2
        chain = [antiderivative, *pieces]
        assert len(chain) == n + 2
        for lower, upper in zip(chain, chain[1:]):
            for low, up in zip(lower, upper):
                assert [k * c for k, c in enumerate(low)][1:] == up
        for left, right in chain[:-1]:
            assert left[0] == 0
            assert _exact_value(left, h) == right[0]


def test_extremal_pieces_start_from_the_kernel_halves():
    s = spec(0.3, 3, a=-0.75, b=1.5)
    left, right = _extremal_pieces(s)[0][3]
    h = Fraction(s.b - s.a) / 2
    c = Fraction(s.theta) * 3 * h
    for u in (Fraction(1, 8), Fraction(3, 4), h):
        assert _exact_value(left, u) == u**2 * (u - c) / 6
        v = u - h  # x - b on the right half, at x - mid = u
        assert _exact_value(right, u) == v**2 * (v + c) / 6


def test_extremal_integrand_realizes_the_kernel():
    """The worst-case integrand's n-th derivative must BE the kernel."""
    s = spec(0.3, 3, a=-1.0, b=2.0)
    f = extremal_integrand(s)
    c = 0.3 * 3 * 1.5
    for i in range(21):
        x = -1.0 + 3.0 * i / 20.0
        u, edge = (x + 1.0, c) if x < 0.5 else (x - 2.0, -c)
        assert f.eval_derivative(3, x) == pytest.approx(u**2 * (u - edge) / 6.0, abs=1e-13)


def test_extremal_integrand_is_a_consistent_derivative_chain():
    s = spec(0.7, 2)
    f = extremal_integrand(s)
    h = 1e-6
    for order in (1, 2):
        for x in (0.2, 0.6, 0.9):
            approx = (
                f.eval_derivative(order - 1, x + h)
                - f.eval_derivative(order - 1, x - h)
            ) / (2.0 * h)
            assert f.eval_derivative(order, x) == pytest.approx(
                approx, rel=1e-6, abs=1e-8
            )


def test_extremal_integrand_order_is_capped():
    s = spec(0.5, 2)
    f = extremal_integrand(s)
    assert f.max_order == 2
    with pytest.raises(CapabilityError):
        f.eval_derivative(3, 0.5)


def test_extremal_integrand_attains_the_sharp_bound():
    """Quadrature error on the worst-case integrand equals the certificate."""
    from thetaquad import sigma_functional

    s = spec(0.5, 3)
    f = extremal_integrand(s)
    err = true_error(f, s, tol=1e-13)
    sigma = sigma_functional(f, 3, 0.0, 1.0)
    cert = certify(s, "sharp", NormData(sigma=sigma, provenance="exact"))
    assert err == pytest.approx(cert.bound, rel=1e-9)
