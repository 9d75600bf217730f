"""Acceptance gate: eight end-to-end criteria, one test (and one PASS/FAIL
line under ``pytest -v``) each.  Tolerances are pinned; loosening them is a
behaviour change, not a test fix.
"""

import json
import math
import time
from pathlib import Path

import pytest

from thetaquad import (
    CERTIFICATES,
    DerivativeBand,
    Exponential,
    NormData,
    PolynomialFunction,
    Runge,
    RuleSpec,
    Sine,
    apply_rule,
    certify,
    composite_integrate,
    kernel_stats_brute,
    kernel_stats_closed,
    reference_integral,
    sharpness_check,
)
from thetaquad.cli import run_cli

THETA_GRID = [i / 10.0 for i in range(11)]
INTERVALS = [(0.0, 1.0), (-1.0, 2.0)]
CORPUS = [
    Exponential(),
    Sine(3.0),
    Runge(),
    PolynomialFunction((1.0, -1.0, 0.5, 2.0, -0.25, 0.125, 1.0)),
]


def spec(theta, n, a=0.0, b=1.0):
    return RuleSpec(theta=theta, n=n, a=a, b=b)


def test_1_kernel_closed_forms_match_brute_force_everywhere():
    started = time.monotonic()
    checked = 0
    for n in range(1, 41):  # the verify corpus runs n = 40 witnesses
        for theta in THETA_GRID:
            for a, b in INTERVALS:
                s = spec(theta, n, a, b)
                closed = kernel_stats_closed(s)
                brute = kernel_stats_brute(s)
                scale = (b - a) ** (n + 1) / (math.factorial(n) * 2.0**n)
                pairs = [
                    (closed.integral, brute.integral),
                    (closed.abs_integral, brute.abs_integral),
                    (closed.max_abs, brute.max_abs),
                    (closed.l2_sq, brute.l2_sq),
                    (closed.centered_l2_sq, brute.centered_l2_sq),
                ]
                if n % 2 == 0:
                    pairs.append((closed.centered_max_abs, brute.centered_max_abs))
                for x, y in pairs:
                    assert abs(x - y) <= 1e-10 * max(abs(x), abs(y)) + 1e-13 * scale, (
                        n, theta, (a, b), x, y,
                    )
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"kernel sweep took {elapsed:.2f}s"
    assert checked == 40 * 11 * 2 * 5 + 20 * 11 * 2  # 4,840 comparisons


def test_2_exactness_ladder():
    for n in range(1, 9):
        for theta in THETA_GRID:
            s = spec(theta, n)
            # strictly below the order: always exact
            for degree in range(n):
                f = PolynomialFunction((0.0,) * degree + (1.0,)).integrand(0.0, 1.0)
                res = apply_rule(f, s)
                assert abs(res.f_n_value - 1.0 / (degree + 1)) <= 1e-12, (
                    n, theta, degree,
                )
            # at the order: exact for odd n, exact after perturbation for even n
            f = PolynomialFunction((0.0,) * n + (1.0,)).integrand(0.0, 1.0)
            res = apply_rule(f, s)
            value = res.f_n_value
            if n % 2 == 0:
                value += res.perturbation_term
            assert abs(value - 1.0 / (n + 1)) <= 1e-12, (n, theta)


def test_3_special_constant_regression():
    third = 1.0 / 3.0
    cases = [
        (certify(spec(third, 2), "linf", NormData(linf=1.0)).bound, 1.0 / 81.0),
        (certify(spec(third, 3), "l1", NormData(l1=1.0)).bound, 1.0 / 324.0),
        (certify(spec(third, 4), "linf", NormData(linf=1.0)).bound, 1.0 / 2880.0),
        (
            certify(
                spec(1.0, 3), "band", NormData(endpoint_diff_rate=1.0),
                DerivativeBand(0.0, math.inf, 3),
            ).bound,
            1.0 / 24.0,
        ),
    ]
    for gamma, Gamma in ((0.0, 1.0), (-1.5, 2.5)):
        cases.append(
            (
                certify(spec(0.0, 1), "band", band=DerivativeBand(gamma, Gamma, 1)).bound,
                (Gamma - gamma) / 8.0,
            )
        )
    for got, want in cases:
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)


def test_4_bound_validity_sweep():
    started = time.monotonic()
    exact_cache = {}
    checked = 0
    for fn in CORPUS:
        for a, b in INTERVALS:
            f = fn.integrand(a, b)
            key = (fn.name, a, b)
            if key not in exact_cache:
                exact_cache[key] = reference_integral(f, a, b, tol=1e-13)
            exact = exact_cache[key]
            for n in range(1, 7):
                norms = fn.norm_data(n, a, b)
                band = fn.band(n, a, b)
                for theta in (0.0, 1.0 / 3.0, 0.5, 1.0):
                    s = spec(theta, n, a, b)
                    for certificate in CERTIFICATES:
                        for panels in (1, 4):
                            res = composite_integrate(
                                f, s, panels=panels, certificate=certificate,
                                norms=norms, band=band,
                            )
                            err = abs(exact - res.value)
                            assert err <= res.total_bound + 1e-12, (
                                fn.name, n, theta, (a, b), certificate, panels,
                                err, res.total_bound,
                            )
                            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"validity sweep took {elapsed:.2f}s"
    assert checked == 4 * 2 * 6 * 4 * 5 * 2  # 1920 certificates


def test_5_midpoint_and_trapezoid_equality_witnesses():
    f = PolynomialFunction((0.0, 0.0, 1.0)).integrand(0.0, 1.0)  # x^2, so
    exact = 1.0 / 3.0  # integral over [0, 1], and ||f''||_inf = 2
    for theta, expected_error in ((0.0, 1.0 / 12.0), (1.0, 1.0 / 6.0)):
        s = spec(theta, 2)
        err = abs(exact - apply_rule(f, s).f_n_value)
        cert = certify(s, "linf", NormData(linf=2.0))
        assert abs(err - expected_error) <= 1e-13
        assert abs(cert.bound - expected_error) <= 1e-13
        assert abs(err - cert.bound) <= 1e-13


def test_6_sharpness_identity_and_reconstruction():
    for n in range(1, 7):
        for theta in THETA_GRID:
            report = sharpness_check(spec(theta, n))
            assert abs(report.ratio - 1.0) <= 1e-10, (n, theta, report.ratio)
    for n in range(1, 31):
        for theta in (0.0, 1.0 / 3.0, 0.5, 1.0):
            report = sharpness_check(spec(theta, n), end_to_end=True)
            assert report.end_to_end_error == report.lhs, (n, theta)


def test_7_composite_convergence_order():
    fn = Exponential()
    f = fn.integrand(0.0, 1.0)
    exact = math.e - 1.0
    for theta, n, target in ((1.0 / 3.0, 4, 4.0), (0.0, 2, 2.0)):
        errors = []
        for panels in (1, 2, 4, 8, 16):
            res = composite_integrate(
                f, spec(theta, n), panels=panels, certificate="linf",
                norms=fn.norm_data(n, 0.0, 1.0),
            )
            errors.append(abs(exact - res.value))
        rates = [math.log2(errors[i] / errors[i + 1]) for i in range(4)]
        observed = sum(rates) / len(rates)
        assert abs(observed - target) <= 0.2, (theta, n, observed)


def test_8_cli_golden_files(capsys):
    golden = Path(__file__).parent / "golden"
    cases = [
        ("kernel_n2_theta_third.json",
         ["kernel", "--n", "2", "--theta", "0.333333333333", "--a", "0", "--b", "1"]),
        ("integrate_exp_midpoint.json",
         ["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0",
          "--b", "1", "--panels", "1", "--bound", "linf",
          "--linf", "2.718281828459045"]),
        ("sharpness_n1_averaged.json",
         ["sharpness", "--n", "1", "--theta", "0.5", "--a", "0", "--b", "1"]),
    ]
    for name, argv in cases:
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (golden / name).read_bytes(), name
        json.loads(out)  # stored bytes are valid JSON as well
