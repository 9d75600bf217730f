import math
import random
import re
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace
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
    sigma_functional,
    true_error,
)
import thetaquad.integrate
import thetaquad.kernel
from thetaquad import bounds, rules
from thetaquad.integrate import (
    _BLOCK,
    _GL_NODES,
    _GL_WEIGHTS,
    MAX_ORACLE_PANELS,
    _exact_value,
    _extremal_pieces,
    _rule_panels,
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


def test_oracle_refuses_an_interval_outside_the_domain():
    """The ends of [a, b] are checked as the rules check them, even where the
    oracle would stop before any node left the domain; nodes within the
    domain's slack are clamped into it."""
    f = Integrand(lambda k, x: math.exp(x), (0.0, 1.0))
    with pytest.raises(DomainError, match=r"^x=-0\.001 outside integrand domain \[0\.0, 1\.0\]$"):
        reference_integral(f, -0.001, 1.0)
    assert reference_integral(f, -1e-13, 1.0) == 1.718281828459145


def test_oracle_reads_a_narrow_interval_inside_its_domain():
    """On a panel a few ulps wide a node can round one float past [a, b],
    near a power of two or among subnormals; such an interval is read as
    eval_derivative reads it, clamped into the domain."""
    for end in (-2.0, 1.0, 0.5, 1024.0, 2.0**-1060):
        for k in range(1, 120, 3):
            for a, b in [(end - k * math.ulp(end), end), (end, end + k * math.ulp(end))]:
                reads = []
                f = Integrand(lambda _k, x: reads.append(x) or math.atan(x), (a, b))
                reference_integral(f, a, b)
                assert a <= min(reads) and max(reads) <= b, (a, b)


@pytest.mark.parametrize(
    "fn, a, b, levels",
    [(math.exp, 0.0, 1.0, 2), (lambda x: 1.0 / (1.0 + x * x), -5.0, 5.0, 4),
     (lambda x: math.sin(100.0 * x), 0.0, 10.0, 8)],
)
def test_oracle_reads_each_node_of_each_level_once(fn, a, b, levels):
    """A call that stops after L levels reads 15 (2^L - 1) values, the count
    the benchmark's tracer turns back into levels."""
    calls = Counter()

    def derivative_fn(order, x):
        calls[order] += 1
        return fn(x)

    reference_integral(Integrand(derivative_fn, (a, b)), a, b)
    assert calls == {0: 15 * (2**levels - 1)}


@pytest.mark.parametrize(
    "fn, a, b", [(Sine(1.0), 0.0, 10.0), (Sine(37.3), 0.0, 10.0), (Sine(100.0), 0.0, 10.0),
                 (Runge(), -5.0, 5.0)],
)
def test_oracle_column_reads_keep_the_bits(fn, a, b):
    """The oracle reads a block of panels' nodes as one column: a builtin
    gives the same bits as its derivative read point by point."""
    plain = Integrand(derivative_fn=fn.derivative, domain=(a, b))
    assert reference_integral(fn.integrand(a, b), a, b) == reference_integral(plain, a, b)


def test_oracle_reads_a_level_in_blocks():
    """The last level of a non-converging call has 4096 panels, 61,440 nodes;
    read in blocks its memory stays far below one list of them."""
    f = Sine(30000.0).integrand(0.0, 10.0)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            reference_integral(f, 0.0, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak


def test_a_non_converging_oracle_reads_every_level_once():
    """All 13 levels, 1 to MAX_ORACLE_PANELS panels, are read once: the
    ConvergenceError of a pass whose values were all finite is not replayed."""
    calls = Counter()

    def derivative_fn(order, x):
        calls[order] += 1
        return math.sin(30000.0 * x)

    with pytest.raises(ConvergenceError):
        reference_integral(Integrand(derivative_fn, (0.0, 10.0)), 0.0, 10.0)
    assert calls == {0: 15 * (2 * MAX_ORACLE_PANELS - 1)} == {0: 122865}


def counted(fn, a, b):
    """An Integrand over fn.derivative on [a, b], and the reads of each order."""
    calls = Counter()

    def derivative_fn(order, x):
        calls[order] += 1
        return fn.derivative(order, x)

    return Integrand(derivative_fn, (a, b)), calls


def test_true_error_after_the_oracle_reads_its_nodes_once():
    """The oracle's result is kept with the integrand: true_error after
    reference_integral on one Integrand reads the 15 (2^8 - 1) nodes once,
    plus the rule's own three reads of f."""
    f, calls = counted(Sine(100.0), 0.0, 10.0)
    s = spec(0.5, 2, a=0.0, b=10.0)
    reference = reference_integral(f, 0.0, 10.0)
    assert calls == {0: 15 * (2**8 - 1)}
    error = true_error(f, s)
    assert calls == {0: 15 * (2**8 - 1) + 3}
    fresh, _ = counted(Sine(100.0), 0.0, 10.0)
    assert (reference, error) == (reference_integral(fresh, 0.0, 10.0), true_error(fresh, s))
    for theta in (0.0, 1.0 / 3.0, 1.0):  # a sweep on one interval reads only the rule
        true_error(f, spec(theta, 2, a=0.0, b=10.0))
    assert calls == {0: 15 * (2**8 - 1) + 12}


def test_the_oracle_keeps_one_result():
    """Another tol or interval replaces the kept result, so the first key
    is read again."""
    f, calls = counted(Runge(), -5.0, 5.0)
    first = reference_integral(f, -5.0, 5.0)
    level = calls[0]
    assert level == 15 * (2**4 - 1)  # Runge on [-5, 5] stops after 4 levels
    assert reference_integral(f, -5.0, 5.0) == first and calls[0] == level
    for other in [(-5.0, 5.0, 1e-9), (-5.0, 4.0, 1e-12), (-4.0, 5.0, 1e-12)]:
        reference_integral(f, *other)
        reads = calls[0]
        assert reference_integral(f, *other) >= 0.0 and calls[0] == reads
        assert reference_integral(f, -5.0, 5.0) == first and calls[0] == reads + level


def test_a_convergence_error_is_raised_again_on_every_call():
    """No error is kept: a second call reads all 122,865 nodes again."""
    calls = Counter()

    def derivative_fn(order, x):
        calls[order] += 1
        return math.sin(30000.0 * x)

    f = Integrand(derivative_fn, (0.0, 10.0))
    for times in (1, 2):
        with pytest.raises(ConvergenceError):
            reference_integral(f, 0.0, 10.0)
        assert calls == {0: times * 122865}


def test_an_error_of_the_integrand_is_raised_again_on_every_call():
    """The pass raises it at the first raising node, and so does the next
    call, after reading as much again."""
    reads = []

    def derivative_fn(order, x):
        reads.append(x)
        if x > 0.9:
            raise KeyError(x)
        return math.exp(x)

    f = Integrand(derivative_fn, (0.0, 1.0))
    for times in (1, 2):
        with pytest.raises(KeyError):
            reference_integral(f, 0.0, 1.0)
        assert len(reads) == times * 13  # each call stops at the 13th node, x = 0.924...
    with pytest.raises(ValidationError, match="tol must be positive"):
        reference_integral(f, 0.0, 1.0, tol=0.0)


@pytest.mark.parametrize("a, b, hit", [(0.0, 1.0, (-0.0, 1.0)), (-0.0, 1.0, (0.0, 1.0)),
                                       (-1.0, 0.0, (-1.0, -0.0)), (-1.0, -0.0, (-1.0, 0.0))])
@pytest.mark.parametrize("fn", [Exponential(), Runge(), Sine(37.3)])
def test_a_kept_result_has_the_bits_of_a_fresh_call(fn, a, b, hit):
    """A signed zero end compares equal to the other zero, so it reads the
    kept result: the same bits a fresh Integrand gives for it."""
    f, calls = counted(fn, -1.0, 1.0)
    reference_integral(f, a, b)
    reads = calls[0]
    kept = reference_integral(f, *hit)
    assert calls[0] == reads
    fresh = reference_integral(Integrand(fn.derivative, (-1.0, 1.0)), *hit)
    assert struct.pack("<d", kept) == struct.pack("<d", fresh)
    assert struct.pack("<d", kept) == struct.pack("<d", reference_integral(
        fn.integrand(-1.0, 1.0), *hit))


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.0, 1.0), (2.0, 3.0)])
def test_the_oracle_checks_tol_before_anything_else(a, b, tol):
    """An empty interval is not exempt from the tol check, and [2, 3] lies
    outside the domain: tol is checked first either way."""
    f = Integrand(lambda k, x: math.exp(x), (0.0, 1.0))
    with pytest.raises(ValidationError, match=r"^tol must be positive, got "):
        reference_integral(f, a, b, tol=tol)
    with pytest.raises(ValidationError, match=r"^tol must be positive, got "):
        true_error(f, spec(0.5, 2), tol=tol)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_true_error_checks_tol_before_the_rule_runs(tol):
    """exp(800) overflows the rule's first read; an invalid tol is refused
    before it, and before any read."""
    f, calls = counted(Exponential(), 0.0, 800.0)
    for g in (Exponential().integrand(0.0, 800.0), f):
        with pytest.raises(ValidationError, match=rf"^tol must be positive, got {tol!r}$"):
            true_error(g, RuleSpec(0.5, 2, 0.0, 800.0), tol=tol)
    assert calls == {}


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
        plain_rule = apply_rule(f, s)
        for kind in CERTIFICATES:
            res = composite_integrate(f, s, panels=1, certificate=kind, norms=norms, band=band)
            covers = certify(s, kind, norms, band).covers_perturbed_rule
            assert res.covers_perturbed_rule is covers, (kind, n)
            expected = plain_rule.f_n_value
            if covers:
                expected += plain_rule.perturbation_term
            assert res.value == expected, (kind, n)


@pytest.mark.parametrize(
    "n, certificate, rate_calls",
    [(2, "l1", 0), (2, "l2", 0), (2, "linf", 0), (2, "band", 11), (2, "sharp", 11),
     (4, "band", 11)],
)
def test_composite_evaluates_the_rate_only_where_it_is_read(n, certificate, rate_calls):
    """f^(n-1) is evaluated only when the certificate or the certified value
    reads the mean rate, and then once per panel edge: P + 1 reads."""
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


@pytest.mark.parametrize("panels", [10, 37])
def test_composite_evaluation_counts_per_order(panels):
    """Every kind, n = 1..8: 3P reads of f, P of each f^(2i)(mid) the
    corrections read, and P + 1 of f^(n-1) where the rate is read (one-sided
    band, or a value that folds in the perturbation), none where not."""
    fn, a, b = Sine(1.3), -0.4, 1.9
    for n in range(1, 9):
        norms, band = fn.norm_data(n, a, b), fn.band(n, a, b)
        cases = [(kind, band) for kind in CERTIFICATES]
        cases.append(("band", DerivativeBand(band.gamma, math.inf, n)))
        for kind, kind_band in cases:
            calls = Counter()

            def derivative_fn(order, x):
                calls[order] += 1
                return fn.derivative(order, x)

            res = composite_integrate(Integrand(derivative_fn, (a, b)), spec(0.3, n, a, b),
                                      panels, kind, norms=norms, band=kind_band)
            expected = Counter({0: 3 * panels})
            for order in range(2, n, 2):
                expected[order] += panels
            if bounds.reads_rate(kind, n, kind_band) or res.covers_perturbed_rule:
                expected[n - 1] += panels + 1
            assert calls == expected, (n, kind, kind_band)


def test_composite_memory_per_panel():
    """The panel loop streams its nodes and rates: at 8000 panels its
    tracemalloc peak stays within 144 bytes per panel for every kind, the
    edges, the budgets and the result included."""
    fn, a, b, panels = Sine(1.3), -0.4, 1.9, 8000
    for n in (3, 4):
        norms, band = fn.norm_data(n, a, b), fn.band(n, a, b)
        cases = [(kind, band) for kind in CERTIFICATES]
        cases.append(("band", DerivativeBand(band.gamma, math.inf, n)))
        for kind, kind_band in cases:
            f, s = fn.integrand(a, b), spec(0.3, n, a, b)
            composite_integrate(f, s, 2, kind, norms=norms, band=kind_band)
            tracemalloc.start()
            try:
                composite_integrate(f, s, panels, kind, norms=norms, band=kind_band)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 144 * panels, (n, kind, kind_band, peak / panels)


@pytest.mark.parametrize("panels", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
def test_blocks_keep_the_bits_and_the_read_counts(panels):
    """The panel loop reads f a block of panels at a time.  Across block edges
    a builtin's column reads give the same bits as its derivative read point
    by point (the default column), for every kind, both half-infinite bands,
    the uncertified and the perturbed loop, and the point reads are exactly
    3P of f, P of each f^(2i) and P + 1 of f^(n-1) where the rate is read."""
    fn, a, b = Sine(1.3), -0.4, 1.9
    for n in (3, 4):
        norms, band = fn.norm_data(n, a, b), fn.band(n, a, b)
        cases = [(kind, band) for kind in CERTIFICATES]
        cases += [("band", DerivativeBand(band.gamma, math.inf, n)),
                  ("band", DerivativeBand(-math.inf, band.Gamma, n)), (None, None)]
        if n % 2 == 0:
            cases.append(("perturbed", None))
        for kind, kind_band in cases:
            calls = Counter()

            def derivative_fn(order, x):
                calls[order] += 1
                return fn.derivative(order, x)

            perturbed, certificate = kind == "perturbed", None if kind == "perturbed" else kind
            results = [_rule_panels(f, spec(0.3, n, a, b), panels, perturbed, certificate,
                                    norms, kind_band)
                       for f in (fn.integrand(a, b), Integrand(derivative_fn, (a, b)))]
            assert results[0] == results[1], (n, kind, kind_band)
            expected = Counter({0: 3 * panels})
            for order in range(2, n, 2):
                expected[order] += panels
            if bounds.reads_rate(certificate, n, kind_band) or results[0][2]:
                expected[n - 1] += panels + 1
            assert calls == expected, (n, kind, kind_band)


def test_a_rule_value_that_overflows_from_finite_values_is_refused():
    """Finite derivative values whose rule arithmetic overflows raise
    OverflowError naming the interval, so no budget stands next to inf or NaN."""
    huge = Integrand(derivative_fn=lambda k, x: 9e307, domain=(0.0, 1.0))
    message = r"^the rule value on \[0\.0, 1\.0\] is inf: finite derivative values overflow"
    with pytest.raises(OverflowError, match=message):
        composite_integrate(huge, spec(1.0 / 3.0, 4), 3, "linf", norms=NormData(linf=1.0))
    with pytest.raises(OverflowError, match=message):
        true_error(huge, spec(1.0 / 3.0, 4))
    largest = Integrand(derivative_fn=lambda k, x: 1.79e308, domain=(0.0, 1.0))
    with pytest.raises(OverflowError, match=r"^the rule value on \[0\.0, 1\.0\] is nan: "):
        apply_rule(largest, spec(0.0, 2))  # base_value = 1 * f(mid) + 0 * inf


def test_a_sum_that_overflows_from_finite_values_names_the_interval():
    """fsum's own errors over finite values (an intermediate overflow, or
    panels overflowed to +inf and -inf) become OverflowError naming [a, b]
    in the panel loop, the oracle and the budget total; an error of f itself
    is not renamed."""
    def opposite(k, x):  # the two panels of [0, 10] are +inf and -inf
        return 5e307 if x < 5.0 else -5e307

    f = Integrand(opposite, (0.0, 10.0))
    with pytest.raises(OverflowError, match=r"^a sum on \[0\.0, 10\.0\] overflows: -inf \+ inf"):
        composite_integrate(f, spec(0.0, 1, 0.0, 10.0), 2, "linf", norms=NormData(linf=1.0))
    with pytest.raises(OverflowError, match=r"^a sum on \[0\.0, 10\.0\] overflows: "):
        reference_integral(f, 0.0, 10.0)
    norms = NormData(l1=1e308 / spec(0.5, 2, 0.0, 5.0).stats.max_abs)  # 1e308 a panel
    with pytest.raises(OverflowError, match=r"^a sum on \[0\.0, 10\.0\] overflows: "):
        composite_integrate(Exponential().integrand(0.0, 10.0), spec(0.5, 2, 0.0, 10.0), 2,
                            "l1", norms=norms)

    def raises(k, x):
        raise ValueError("f's own")

    with pytest.raises(ValueError, match="^f's own$"):
        composite_integrate(Integrand(raises, (0.0, 1.0)), spec(0.5, 2), 2, "linf",
                            norms=NormData(linf=1.0))


def test_calls_that_share_a_spec_and_a_panel_count_share_the_panel_specs(monkeypatch):
    """The spec of each panel width is kept with the caller's spec for the
    last panel count only: a second certificate on the same partition forms
    no kernel statistics, and another panel count replaces them."""
    calls = Counter()
    original = thetaquad.kernel.kernel_stats_closed

    def counted(s):
        calls[s.width] += 1
        return original(s)

    monkeypatch.setattr(thetaquad.kernel, "kernel_stats_closed", counted)
    fn, a, b, n = Sine(1.3), -0.4, 1.9, 4
    norms = fn.norm_data(n, a, b)
    s = spec(0.3, n, a, b)
    edges = thetaquad.integrate._panel_edges(a, b, 7)
    widths = {hi - lo for lo, hi in zip(edges, edges[1:])}
    first = composite_integrate(fn.integrand(a, b), s, 7, "linf", norms=norms)
    assert calls == Counter(dict.fromkeys(widths, 1))
    composite_integrate(fn.integrand(a, b), s, 7, "sharp", norms=norms)
    assert calls == Counter(dict.fromkeys(widths, 1))
    composite_integrate(fn.integrand(a, b), s, 9, "linf", norms=norms)
    calls.clear()
    assert composite_integrate(fn.integrand(a, b), s, 7, "linf", norms=norms) == first
    assert calls == Counter(dict.fromkeys(widths, 1))


@pytest.mark.parametrize("drop", [0, -1])
def test_a_derivatives_fn_that_lists_the_wrong_number_of_values_is_refused(drop):
    """A derivatives_fn that drops a value would pair the rest with the wrong
    points and panels.  Every reader raises ValidationError naming both
    counts, at the first column it lists short."""
    fn, a, b, n = Runge(), -1.2, 2.5, 4
    norms, band = fn.norm_data(n, a, b), fn.band(n, a, b)

    def short(k, xs):
        values = fn.derivatives(k, xs)
        del values[drop]
        return values

    wrong = Integrand(fn.derivative, (a, b), derivatives_fn=short)
    s = spec(0.3, n, a, b)

    def refused(order, points):
        return pytest.raises(ValidationError, match=rf"^derivatives_fn listed {points - 1} "
                                                     rf"values of order {order} at {points} points$")

    for panels in (1, 2, 300):
        block = min(panels, _BLOCK)
        with refused(0, 3 * block):  # the first block's f at its midpoints and edges
            composite_integrate(wrong, s, panels, "linf", norms=norms)
        with refused(n - 1, block + 1):  # a one-sided band reads the rates first
            composite_integrate(wrong, s, panels, "band", band=band)
    with refused(0, 3):
        apply_rule(wrong, s)
    with refused(0, 3):
        true_error(wrong, s)
    with refused(0, 15):  # the oracle's first level
        reference_integral(wrong, a, b)
    with refused(2, 15):  # the oracle's first level, read in columns
        sigma_functional(wrong, 2, a, b)
    with refused(1, 1):
        wrong.eval_derivative(1, 0.5)


@pytest.mark.parametrize(
    "fn, a, b, panels",
    [(PolynomialFunction((0.3, -1.0, 0.5, 2.0, -0.7, 0.1, 0.4)), 0.1, 0.7, 7),
     (Sine(1.0), 1000.0, 1001.0, 13), (Runge(), -5.0, 5.0, 999)],
)
def test_one_certificate_per_width_equals_the_per_panel_definition(monkeypatch, fn, a, b, panels):
    """Panel widths differ by ulps.  Each width is certified once, for every
    kind but a one-sided band (at even n or from a half-infinite band at odd
    n), which certifies none and budgets each panel; and every output bit
    equals the definition: each panel certified on its own, its value the
    fsum of apply_rule's terms plus the perturbation where the certificate
    covers it."""
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
    for n in range(1, 10):  # up to four correction columns
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
                    certs = [original(p, kind, replace(norms, endpoint_diff_rate=r), kind_band)
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
                assert calls["certify"] == (0 if one_sided else widths), case
                assert res.value == math.fsum(values), case
                assert res.per_panel_bound == tuple(c.bound for c in certs), case
                assert res.total_bound == math.fsum(c.bound for c in certs), case
                assert res.covers_perturbed_rule is covers, case


@pytest.mark.parametrize("n", [2, 4])
def test_kernel_stats_are_computed_once_per_panel_width(monkeypatch, n):
    """A one-sided band certifies every panel, but each distinct width has one
    RuleSpec, so the closed form runs once per width, not once per panel."""
    calls = []
    original = thetaquad.kernel.kernel_stats_closed

    def counted(s):
        calls.append(s.width)
        return original(s)

    monkeypatch.setattr(thetaquad.kernel, "kernel_stats_closed", counted)
    fn, a, b, panels = Sine(1.0), 1000.0, 1001.0, 13
    h = (b - a) / panels
    edges = [a + i * h for i in range(panels)] + [b]
    widths = {hi - lo for lo, hi in zip(edges, edges[1:])}
    assert 1 < len(widths) < panels
    band = fn.band(n, a, b)
    for half_infinite in (DerivativeBand(band.gamma, math.inf, n),
                          DerivativeBand(-math.inf, band.Gamma, n)):
        calls.clear()
        res = composite_integrate(fn.integrand(a, b), spec(0.5, n, a, b), panels, "band",
                                  band=half_infinite)
        assert res.covers_perturbed_rule and len(res.per_panel_bound) == panels
        assert sorted(calls) == sorted(widths)


def test_sigma_functional_evaluates_each_node_once():
    """Both oracle passes read one value of f^(order) per node, bit for bit
    the two passes of the definition run separately."""
    sine, calls = Sine(20.0), Counter()

    def counted(k, x):
        calls[k] += 1
        return sine.derivative(k, x)

    value = sigma_functional(Integrand(counted, (0.0, 1.0)), 2, 0.0, 1.0)
    assert calls == {2: 105}
    g = Integrand(lambda _k, x: sine.derivative(2, x), (0.0, 1.0), max_order=0)
    g_sq = Integrand(lambda _k, x: sine.derivative(2, x) ** 2, (0.0, 1.0), max_order=0)
    int_g, int_g2 = reference_integral(g, 0.0, 1.0), reference_integral(g_sq, 0.0, 1.0)
    assert value == max(int_g2 - int_g * int_g / 1.0, 0.0)


def kink(k, x):  # |x - 0.3|: its oracle needs 512 panels at tol 1e-8, its square 2
    return abs(x - 0.3)


@pytest.mark.parametrize("f, order, a, b, tol", [
    (Sine(20.0).integrand(0.0, 1.0), 2, 0.0, 1.0, 1e-12),  # g and g^2 stop at level 3
    (Sine(20.0).integrand(0.0, 1.0), 2, 0.0, 1.0, 1e-6),  # g at level 2, g^2 at 3
    (Runge().integrand(-5.0, 5.0), 1, -5.0, 5.0, 1e-12),  # g at level 2, g^2 at 5
    (Runge().integrand(0.3, 0.3 + 2.0**-40), 3, 0.3, 0.3 + 2.0**-40, 1e-12),
    (Exponential().integrand(-2.0**-45, 0.0), 2, -2.0**-45, 0.0, 1e-12),
    (Integrand(kink, (0.0, 1.0)), 0, 0.0, 1.0, 1e-8),  # g at level 10, g^2 at 2
    (Integrand(lambda k, x: math.sin(7.0 * x) * 3.0**k, (-1.0, 2.0)), 2, -1.0, 2.0, 1e-12),
])
def test_sigma_functional_equals_two_oracle_runs_bit_for_bit(f, order, a, b, tol):
    """One run of the oracle's level loop for int g and int g^2, each
    stopping on its own, equals the definition: two reference_integral runs
    on integrands of g and of g^2."""
    g = Integrand(lambda _k, x: f.derivative_fn(order, x), (a, b), max_order=0)
    g_sq = Integrand(lambda _k, x: f.derivative_fn(order, x) ** 2, (a, b), max_order=0)
    int_g, int_g2 = reference_integral(g, a, b, tol), reference_integral(g_sq, a, b, tol)
    definition = max(int_g2 - int_g * int_g / (b - a), 0.0)
    value = sigma_functional(f, order, a, b, oracle_tol=tol)
    assert struct.pack("<d", value) == struct.pack("<d", definition)


def test_sigma_functional_reads_one_column_per_block_of_each_level():
    """Each level's nodes are read as one column per block of _BLOCK panels,
    for g and g^2 together: 3 columns and 105 points for Sine(20) at order 2,
    and a second column at the level of 2 * _BLOCK panels."""
    sine, columns = Sine(20.0), []

    def derivatives_fn(k, xs):
        columns.append((k, len(xs)))
        return sine.derivatives(k, xs)

    sigma_functional(Integrand(sine.derivative, (0.0, 1.0), derivatives_fn=derivatives_fn),
                     2, 0.0, 1.0)
    assert columns == [(2, 15), (2, 30), (2, 60)]
    columns.clear()
    sigma_functional(Integrand(kink, (0.0, 1.0), derivatives_fn=lambda k, xs: (
        columns.append((k, len(xs))) or [kink(k, x) for x in xs])), 0, 0.0, 1.0, 1e-8)
    assert columns == [(0, 15 * 2**i) for i in range(9)] + [(0, 15 * _BLOCK)] * 2


def test_a_square_that_overflows_in_sigma_functional_names_the_interval():
    f = Integrand(lambda k, x: 1e200, (0.0, 1.0))
    with pytest.raises(OverflowError, match=r"^a sum on \[0\.0, 1\.0\] overflows: "):
        sigma_functional(f, 0, 0.0, 1.0)


@pytest.mark.parametrize("n, band", [(2, DerivativeBand(1.0, math.inf, 3)),
                                     (2, DerivativeBand(-math.inf, 1.0, 3)),
                                     (3, DerivativeBand(1.0, math.inf, 2))])
def test_a_one_sided_band_of_another_order_is_refused_before_any_read(n, band):
    reads = []
    f = Integrand(lambda k, x: reads.append(x) or math.exp(x), (0.0, 1.0))
    message = rf"^band is for derivative order {band.order}, rule expects {n}$"
    for panels in (1, 300):
        with pytest.raises(ValidationError, match=message):
            composite_integrate(f, spec(0.5, n), panels, "band", band=band)
    assert reads == []


def test_a_one_sided_composite_forms_no_certificate(monkeypatch):
    """Every panel of a one-sided band is budgeted by bounds._one_sided;
    certify is never called, and the value folds in the perturbation
    exactly at even n."""
    calls = []
    original = bounds.certify
    monkeypatch.setattr(bounds, "certify", lambda *args: calls.append(args) or original(*args))
    fn, a, b = Exponential(), 0.0, 1.0
    for n, band in [(2, fn.band(2, a, b)), (3, DerivativeBand(1.0, math.inf, 3)),
                    (4, DerivativeBand(-math.inf, math.e, 4))]:
        res = composite_integrate(fn.integrand(a, b), spec(0.5, n), 300, "band", band=band)
        assert res.covers_perturbed_rule is (n % 2 == 0) and len(res.per_panel_bound) == 300
        assert abs((math.e - 1.0) - res.value) <= res.total_bound
    assert calls == []
    edges = thetaquad.integrate._panel_edges(a, b, 300)  # BandOdd: one certificate per width
    composite_integrate(fn.integrand(a, b), spec(0.5, 3), 300, "band", band=fn.band(3, a, b))
    assert len(calls) == len({hi - lo for lo, hi in zip(edges, edges[1:])})


@pytest.mark.parametrize(
    "n, band, left, right, message",
    [(2, DerivativeBand(-1.0, 1.0, 2), -1e308, 1e308, "endpoint_diff_rate must be finite, got inf"),
     (2, DerivativeBand(-1.0, 1.0, 2), 1e308, -1e308, "endpoint_diff_rate must be finite, got -inf"),
     (3, DerivativeBand(-1.0, math.inf, 3), -1e308, 1e308,
      "endpoint_diff_rate must be finite, got inf"),
     (3, DerivativeBand(-1.0, math.inf, 3), 1e308, -1e308,
      "endpoint_diff_rate must be finite, got -inf"),
     (2, DerivativeBand(-1e308, math.inf, 2), 0.0, 2e307, "bound must be finite and >= 0, got inf"),
     (3, DerivativeBand(-1e308, math.inf, 3), 0.0, 2e307, "bound must be finite and >= 0, got inf")],
)
def test_non_finite_panel_rate_is_refused(n, band, left, right, message):
    """f^(n-1) jumps from ``left`` to ``right`` inside the third of four equal
    panels; each panel is budgeted at its own rate, and the first two at
    finite ones.  Where the jump overflows the rate, or the finite rate
    8e307 overflows |rate - edge| against the edge -1e308, the one-sided band
    refuses that panel with certify's one-sided message."""

    def derivative_fn(order, x):
        return (right if x > 0.6 else left) if order == n - 1 else 0.0

    f = Integrand(derivative_fn=derivative_fn, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
        composite_integrate(f, spec(0.5, n), 4, "band", band=band)


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
    """The panel loop, apply_rule, the oracle and sigma_functional check each
    column as they read it; a failure raises what eval_derivative raises for
    that point."""

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

    reads = Counter()

    def nan_near_three_quarters(order, x):  # first hit by the level-2 panels
        reads[order] += 1
        return math.nan if 0.74 < x < 0.76 else math.exp(x)

    g = Integrand(derivative_fn=nan_near_three_quarters, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match=r"^derivative of order 0 at x=0\.75 is nan$"):
        reference_integral(g, 0.0, 1.0)
    assert reads == {0: 45}  # the pass stops at the NaN level, not at 4096 panels

    outside = r"^x=1\.5 outside integrand domain \[0\.0, 1\.0\]$"
    with pytest.raises(DomainError, match=outside):
        composite_integrate(Exponential().integrand(0.0, 1.0), spec(0.5, 2, 0.0, 1.5), 3,
                            "linf", norms=norms)

    def nan_at_one_correction_node(order, x):  # f''(0.55), the sixth panel's midpoint
        return math.nan if order == 2 and 0.54 < x < 0.56 else math.exp(x)

    f = Integrand(derivative_fn=nan_at_one_correction_node, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match=r"^derivative of order 2 at x=0\.55 is nan$"):
        composite_integrate(f, spec(0.5, 4), 10, "linf", norms=norms)

    def nan_at_one_rate_edge(order, x):  # f'''(0.30000000000000004), an edge
        return math.nan if order == 3 and 0.29 < x < 0.31 else math.exp(x)

    f = Integrand(derivative_fn=nan_at_one_rate_edge, domain=(0.0, 1.0))
    message = r"^derivative of order 3 at x=0\.30000000000000004 is nan$"
    with pytest.raises(ValidationError, match=message):
        composite_integrate(f, spec(0.5, 4), 10, "band", band=Exponential().band(4, 0.0, 1.0))

    def raises_in_the_fourth_panel(order, x):
        if 0.3 < x < 0.4:
            raise KeyError("fourth panel")
        return math.exp(x)

    f = Integrand(derivative_fn=raises_in_the_fourth_panel, domain=(0.0, 1.0))
    with pytest.raises(KeyError, match="fourth panel"):
        composite_integrate(f, spec(0.5, 4), 10, "linf", norms=norms)

    def inf_third_derivative(order, x):
        return math.inf if order == 3 else math.exp(x)

    f = Integrand(derivative_fn=inf_third_derivative, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match=r"^derivative of order 3 at x=1\.0 is inf$"):
        apply_rule(f, spec(0.5, 4))

    def nan_near_a_third(order, x):  # f''(0.3485...) is the first NaN node the oracle reads
        return math.nan if order == 2 and 0.34 < x < 0.36 else math.exp(x)

    f = Integrand(derivative_fn=nan_near_a_third, domain=(0.0, 1.0))
    message = r"^derivative of order 2 at x=0\.3485378367693909 is nan$"
    with pytest.raises(ValidationError, match=message):
        sigma_functional(f, 2, 0.0, 1.0)

    def raises_at_the_midpoint(order, x):
        if x == 0.5:
            raise KeyError("midpoint")
        return math.exp(x)

    with pytest.raises(KeyError, match="midpoint"):
        reference_integral(Integrand(raises_at_the_midpoint, (0.0, 1.0)), 0.0, 1.0)

    # Finite terms and perturbation whose sum overflows: apply_rule returns
    # them as they are, where an fsum over all three raises OverflowError
    def huge_midpoint(order, x):
        return (1.79e308 if x == 0.5 else 0.0) if order == 0 else 1.7e308 * x

    res = apply_rule(Integrand(huge_midpoint, (0.0, 1.0)), spec(0.0, 2))
    assert (res.base_value, res.correction_terms, res.f_n_value) == (1.79e308, (), 1.79e308)
    assert res.perturbation_term == res.spec.stats.integral * 1.7e308 == 7.083333333333332e306

    # Finite values whose panel terms, 1.5e308 each, overflow the panel's fsum
    huge = Integrand(derivative_fn=lambda k, x: 3e307 if k == 0 else 2.88e307, domain=(0.0, 10.0))
    message = r"^a sum on \[0\.0, 10\.0\] overflows: intermediate overflow in fsum$"
    with pytest.raises(OverflowError, match=message):
        composite_integrate(huge, spec(0.0, 3, 0.0, 10.0), 2, "linf", norms=norms)


def test_several_faults_raise_the_first_in_block_order():
    """The panel loop reads a block's midpoints before its edges, so of the
    NaNs from the edge 0.4 of the fourth panel on it raises at the fifth
    panel's midpoint 0.45, the first bad point of the first column read.  In
    the second block of 512 panels it reads f before f'', so it raises at a
    NaN of f near 1, not at the one of f'' near 0.5, which a reader going
    panel by panel would meet first."""

    def nan_from_an_edge(order, x):
        return math.nan if 0.38 <= x <= 0.46 else math.exp(x)

    f = Integrand(derivative_fn=nan_from_an_edge, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match=r"^derivative of order 0 at x=0\.45 is nan$"):
        composite_integrate(f, spec(0.5, 4), 10, "linf", norms=NormData(linf=math.e))

    def two_faults_past_the_first_block(order, x):  # f'' near 0.5, f near 1
        if order == 2 and 0.5 < x < 0.51 or order == 0 and x > 0.9:
            return math.nan
        return math.exp(x)

    f = Integrand(derivative_fn=two_faults_past_the_first_block, domain=(0.0, 1.0))
    message = r"^derivative of order 0 at x=0\.9013671875 is nan$"  # the first such midpoint
    with pytest.raises(ValidationError, match=message):
        composite_integrate(f, spec(0.5, 4), 2 * _BLOCK, "linf", norms=NormData(linf=math.e))


def test_too_wide_an_interval_names_the_kernel_statistics():
    """Every panel is certified before its value is formed, so an interval
    whose kernel statistics overflow reports that, not the overflow of a
    correction coefficient w^3 on the way."""
    zero = Integrand(derivative_fn=lambda k, x: 0.0, domain=(0.0, 1e200))
    norms, band = NormData(l1=1.0, l2=1.0, linf=1.0, sigma=1.0), DerivativeBand(-1.0, 1.0, 4)
    for kind in CERTIFICATES:
        with pytest.raises(OverflowError, match=r"^kernel statistics at n=4 on an interval"):
            composite_integrate(zero, spec(0.5, 4, 0.0, 1e200), 2, kind, norms=norms, band=band)


def test_composite_clamps_nodes_in_the_domain_slack():
    """An interval that overshoots the domain within its floating slack is
    read as eval_derivative reads it: nodes beyond the domain are clamped
    into it, never handed to derivative_fn as they are."""
    b = 1.0 + 1e-13
    s, norms = spec(0.5, 4, 0.0, b), NormData(linf=1.0)
    slack = Integrand(derivative_fn=lambda k, x: x, domain=(0.0, 1.0))
    clamped = Integrand(derivative_fn=lambda k, x: min(x, 1.0), domain=(0.0, b))
    for panels in (1, 3):
        res = composite_integrate(slack, s, panels, "linf", norms=norms)
        assert res == composite_integrate(clamped, s, panels, "linf", norms=norms)


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


def test_too_many_panels_name_the_panel_count():
    """Neighbouring edges a + i (b - a)/panels that round to one float are
    a panel count too large for the interval, not a bad interval."""
    f = Exponential().integrand(1.0, 1.000000000001)
    s = spec(0.5, 2, a=1.0, b=1.000000000001)
    message = r"panels=100000 on \[1.0, 1.000000000001\]: neighbouring panel edges round"
    for certificate, norms in [("linf", NormData(linf=3.0)), ("band", None)]:
        band = DerivativeBand(2.7, 2.8, 2) if norms is None else None
        with pytest.raises(ValidationError, match=message):
            composite_integrate(f, s, 100000, certificate, norms=norms, band=band)
    assert composite_integrate(f, s, 1000, "linf", norms=NormData(linf=3.0)).panels == 1000


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


@pytest.mark.parametrize("n, b", [(2, 1e-100), (1, 1e-200), (3, 1e-320)])
def test_sharpness_on_an_underflowing_interval_is_rejected(n, b):
    """rhs underflows to 0.0, so lhs / rhs is undefined: a ValidationError
    that names the underflow, not a ZeroDivisionError."""
    with pytest.raises(ValidationError, match="underflows to 0.0"):
        sharpness_check(spec(0.5, n, a=0.0, b=b))


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


def test_end_to_end_node_values_are_the_extremal_pieces(monkeypatch):
    """The closed forms the end-to-end check feeds the rule are the exact
    pieces of the extremal integrand at a, mid and b, for every order below
    n and for F (order -1, F(b) = int f), so the two derivations agree."""
    readers = []

    def capture(column, *args):
        readers.append(lambda order, x: column(order, [x])[0])
        return rules._rule_terms(column, *args)

    monkeypatch.setattr(thetaquad.integrate, "_rule_terms", capture)
    rng = random.Random(5)
    for n in range(1, 13):
        for theta in (0.0, 1.0 / 3.0, 0.5, 1.0, 1.0 / n, rng.random()):
            a = rng.uniform(-3.0, 3.0)
            s = spec(theta, n, a=a, b=a + rng.uniform(0.01, 4.0))
            sharpness_check(s, end_to_end=True)
            derivative = readers.pop()
            pieces, antiderivative = _extremal_pieces(s)
            a, b = Fraction(s.a), Fraction(s.b)
            h = (b - a) / 2
            for order, (left, right) in enumerate([antiderivative, *pieces[:n]], start=-1):
                assert derivative(order, a) == left[0] == 0, (s, order)
                assert derivative(order, a + h) == _exact_value(left, h) == right[0], (s, order)
                assert derivative(order, b) == _exact_value(right, h), (s, order)


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
    s = spec(0.5, 3)
    f = extremal_integrand(s)
    err = true_error(f, s, tol=1e-13)
    sigma = sigma_functional(f, 3, 0.0, 1.0)
    cert = certify(s, "sharp", NormData(sigma=sigma, provenance="exact"))
    assert err == pytest.approx(cert.bound, rel=1e-9)
