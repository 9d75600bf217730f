"""Reference integration, composite rules with budgets, exact sharpness check."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import bounds
from .errors import ConvergenceError, ValidationError, check_int
from .kernel import RuleSpec, closed_integral, kernel_stats_brute, kernel_stats_closed
from .poly import PiecewisePolynomial, _antiderivative_coeffs
from .rules import Integrand, _mean_rate, _rule_value

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "MAX_ORACLE_PANELS",
    "CompositeResult",
    "SharpnessReport",
    "reference_integral",
    "sigma_functional",
    "true_error",
    "composite_integrate",
    "sharpness_check",
    "extremal_integrand",
]

#: Default stopping tolerance of the reference oracle.
DEFAULT_ORACLE_TOL = 1e-12

#: Panel cap of the reference oracle; exceeding it raises ConvergenceError.
MAX_ORACLE_PANELS = 4096

# 15-point Gauss-Legendre rule on [-1, 1], ascending nodes.  The rule is
# symmetric, so only the nodes x >= 0 and their weights are written out.  Each
# literal is the correctly rounded double of the exact node or weight, so the
# oracle does not depend on any linear-algebra library; tests/test_integrate.py
# recomputes all 15 to 40 digits and checks every bit.
_GL_HALF_NODES = (
    0.0,
    0.20119409399743451,
    0.3941513470775634,
    0.5709721726085388,
    0.7244177313601701,
    0.8482065834104272,
    0.937273392400706,
    0.9879925180204854,
)
_GL_HALF_WEIGHTS = (
    0.2025782419255613,
    0.19843148532711158,
    0.1861610000155622,
    0.16626920581699392,
    0.13957067792615432,
    0.10715922046717194,
    0.07036604748810812,
    0.03075324199611727,
)
_GL_NODES = tuple(-x for x in reversed(_GL_HALF_NODES[1:])) + _GL_HALF_NODES
_GL_WEIGHTS = tuple(reversed(_GL_HALF_WEIGHTS[1:])) + _GL_HALF_WEIGHTS


def _gl_panel(f, lo: float, hi: float) -> float:
    """The 15-node rule on [lo, hi]; f(k, x) is f^(k)(x)."""
    half = 0.5 * (hi - lo)
    center = 0.5 * (hi + lo)
    return half * math.fsum(w * f(0, center + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _panel_edges(a: float, b: float, panels: int) -> list[float]:
    h = (b - a) / panels
    edges = [a + i * h for i in range(panels)]
    edges.append(b)
    return edges


def reference_integral(
    f: Integrand, a: float, b: float, tol: float = DEFAULT_ORACLE_TOL
) -> float:
    """Adaptive panel-halving Gauss-Legendre reference value of int_a^b f.

    Fixed 15-node panels on a uniform grid that is halved until two
    successive refinements differ by less than ``tol * (1 + |result|)``.
    The refinement order is deterministic, so identical inputs give
    bit-identical output.  Hitting MAX_ORACLE_PANELS without meeting the
    criterion raises ConvergenceError.

    The nodes and weights are committed, correctly rounded constants, so the
    result does not depend on a linear-algebra library.  It still depends on
    the values ``f`` returns: the builtin integrands call the platform's
    ``math.exp``, ``math.sin`` and the like, and whether those are correctly
    rounded on every platform is not established here.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration bounds must be finite")
    if b < a:
        raise ValidationError(f"need a <= b, got a={a!r}, b={b!r}")
    if b == a:
        return 0.0
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol!r}")

    ev = f._on(*f.domain)  # only the nodes themselves must lie in the domain
    previous = _gl_panel(ev, a, b)
    panels = 2
    while panels <= MAX_ORACLE_PANELS:
        edges = _panel_edges(a, b, panels)
        value = math.fsum(_gl_panel(ev, lo, hi) for lo, hi in zip(edges, edges[1:]))
        if abs(value - previous) < tol * (1.0 + abs(value)):
            return value
        previous = value
        panels *= 2
    raise ConvergenceError(
        f"reference integral did not stabilize to tol={tol!r} within "
        f"{MAX_ORACLE_PANELS} panels"
    )


def sigma_functional(
    f: Integrand, order: int, a: float, b: float, oracle_tol: float = 1e-12
) -> float:
    """sigma(f^(order)) = ||f^(order)||_2^2 - (1/(b-a)) (int f^(order))^2.

    Both integrals come from the reference oracle at ``oracle_tol``.  The
    result is clamped to >= 0; a raw value below -1e-12 * ||g||_2^2 means the
    oracle output is inconsistent and triggers a warning before clamping.
    """
    check_int("order", order, 0)
    g = Integrand(lambda _k, x: f.eval_derivative(order, x), (a, b), max_order=0)
    g_sq = Integrand(lambda _k, x: f.eval_derivative(order, x) ** 2, (a, b), max_order=0)
    int_g = reference_integral(g, a, b, tol=oracle_tol)
    int_g2 = reference_integral(g_sq, a, b, tol=oracle_tol)
    raw = int_g2 - int_g * int_g / (b - a)
    if raw < -1e-12 * int_g2:
        warnings.warn(
            f"sigma functional came out negative ({raw!r}) beyond roundoff; clamping to 0",
            stacklevel=2,
        )
    return max(raw, 0.0)


def _rule_panels(
    f: Integrand,
    spec: RuleSpec,
    panels: int,
    perturbed: bool = False,
    certificate: str | None = None,
    norms: bounds.NormData | None = None,
    band: bounds.DerivativeBand | None = None,
) -> tuple[float, list[float], bool]:
    """The rule on a uniform partition: its value, one budget per panel, and
    whether the value includes the perturbation.

    ``perturbed`` folds each panel's perturbation term (int K times the mean
    rate of f^(n)) into the value.  With a ``certificate`` name each panel
    gets a budget, and the value includes the perturbation exactly when that
    certificate covers it.  The certificate and int K are closed forms in
    (theta, n, width), so each is built once per distinct panel width; a
    certificate that reads the rate (``bounds.reads_rate``) reads the panel's
    own and is built per panel.  The rate is evaluated at most once per
    panel, and only when the certificate or the value reads it.  Panel
    values are reduced in ascending order with compensated summation.
    """
    check_int("panels", panels, 1)
    if perturbed and spec.n % 2 == 1:
        raise ValidationError(f"the perturbed rule needs even n, got n={spec.n}")
    per_panel = bounds.reads_rate(certificate, spec.n, band)
    ev = f._on(spec.a, spec.b)
    edges = _panel_edges(spec.a, spec.b, panels)
    by_width: dict[float, tuple] = {}
    values: list[float] = []
    budgets: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        entry = by_width.get(hi - lo)
        if entry is None:
            pspec = RuleSpec(spec.theta, spec.n, lo, hi)
            rate = _mean_rate(ev, spec.n, lo, hi) if per_panel else None
            cert = None if certificate is None else bounds.certify(
                pspec, certificate, norms, band, rate
            )
            entry = (cert, closed_integral(pspec), rate)
            if not per_panel:
                by_width[hi - lo] = entry
        cert, int_k, rate = entry
        if cert is not None:
            budgets.append(cert.bound)
            perturbed = cert.covers_perturbed_rule
        value = math.fsum(_rule_value(ev, spec.theta, spec.n, lo, hi))
        if perturbed:
            value += int_k * (_mean_rate(ev, spec.n, lo, hi) if rate is None else rate)
        values.append(value)
    return math.fsum(values), budgets, perturbed


def true_error(
    f: Integrand,
    spec: RuleSpec,
    perturbed: bool = False,
    tol: float = DEFAULT_ORACLE_TOL,
) -> float:
    """|I - F_n| against the reference oracle; optionally the perturbed rule.

    With ``perturbed`` (even n only) the perturbation term joins the rule
    value, matching what perturbed-rule certificates bound.
    """
    value, _, _ = _rule_panels(f, spec, 1, perturbed)
    return abs(reference_integral(f, spec.a, spec.b, tol=tol) - value)


@dataclass(frozen=True)
class CompositeResult:
    """Composite rule value plus its per-panel certificate budgets.

    The certified statement is always |int_a^b f - value| <= total_bound:
    when the chosen certificate covers the perturbed rule
    (covers_perturbed_rule), each panel's perturbation term is already
    folded into value.
    """

    value: float
    panels: int
    per_panel_bound: tuple[float, ...]
    total_bound: float
    certificate_kind: str
    covers_perturbed_rule: bool


def composite_integrate(
    f: Integrand,
    spec: RuleSpec,
    panels: int,
    certificate: str = "linf",
    *,
    norms: bounds.NormData | None = None,
    band: bounds.DerivativeBand | None = None,
) -> CompositeResult:
    """Apply the rule on a uniform partition and budget each panel.

    ``certificate`` is a name in bounds.CERTIFICATES; each panel's budget
    comes from bounds.certify, called once per distinct panel width.  Norm
    inputs are global for [a, b] and reused on every panel; that is
    conservative because every norm a certificate consumes can only shrink
    on a subinterval (sigma included: the panel-centred variance is at most
    the interval variance).  A one-sided "band" certificate (even n, or a
    half-infinite band at odd n) reads each panel's own mean rate of f^(n),
    computed exactly from f's derivative closures, so it is certified once
    per panel; ``norms.endpoint_diff_rate`` is never read.
    """
    if certificate is None:  # the panel loop reads None as "no certificate"
        raise ValidationError("composite_integrate needs a certificate kind")
    value, budgets, covers = _rule_panels(f, spec, panels, False, certificate, norms, band)
    return CompositeResult(
        value=value,
        panels=panels,
        per_panel_bound=tuple(budgets),
        total_bound=math.fsum(budgets),
        certificate_kind=certificate,
        covers_perturbed_rule=covers,
    )


@dataclass(frozen=True)
class SharpnessReport:
    """Did the sharp bound attain equality on its extremal integrand?

    lhs is sigma(K) = int K^2 - (int K)^2/(b - a) from the exact kernel
    statistics, rhs the closed-form sharp bound evaluated at sigma(f^(n)) =
    sigma(K) from the closed ones; ratio = lhs / rhs should be 1 up to
    roundoff.  When the end-to-end check runs, end_to_end_error is the rule
    error of the extremal integrand in exact arithmetic, rounded once; it
    equals lhs bit for bit.  Otherwise it is None.
    """

    n: int
    theta: float
    a: float
    b: float
    lhs: float
    rhs: float
    ratio: float
    end_to_end_error: float | None = None


def _exact_value(coeffs: list, u):
    """sum(c_j u^j); u = 0 reads c_0, m leading zeros cost one power u^m."""
    if not u:
        return coeffs[0]
    m = next((j for j, c in enumerate(coeffs) if c), len(coeffs) - 1)
    acc = coeffs[-1]
    for c in reversed(coeffs[m:-1]):
        acc = acc * u + c
    return acc * u**m if m else acc


def _extremal_pieces(spec: RuleSpec) -> tuple[list[tuple[list, list]], tuple[list, list]]:
    """(pieces, F): the extremal integrand f of ``spec`` in Fractions.

    pieces[k] = (left, right), k = 0..n, are the ascending coefficients of
    f^(k) in powers of x - a on [a, mid] and of x - mid on [mid, b]; F, F' = f,
    has the same form.  pieces[n] is K from kernel_stats_brute's two halves,
    n! K = u^(n-1) (u - c) with c = theta n (b - a)/2, u = x - a on the left
    and u = x - b, c negated, on the right (Taylor-shifted to x - mid).  Each
    lower order integrates the one above: zero at a, continuous at mid.
    """
    from fractions import Fraction  # deferred: only the exact path needs it

    n = spec.n
    h = (Fraction(spec.b) - Fraction(spec.a)) / 2
    c = Fraction(spec.theta) * n * h
    scale = Fraction(1, math.factorial(n))
    left = [0] * (n - 1) + [-c * scale, scale]
    # n! K = (t - h)^(n-1) (t - h + c) on the right, in powers of t = x - mid
    right = [
        (-h) ** (n - 1 - j) * (math.comb(n - 1, j) * c - math.comb(n, j) * h) * scale
        for j in range(n)
    ] + [scale]
    pieces = [(left, right)]
    for _ in range(n + 1):  # orders n-1 .. 0, then F
        left = _antiderivative_coeffs(left, 0)
        right = _antiderivative_coeffs(right, _exact_value(left, h))
        pieces.append((left, right))
    antiderivative = pieces.pop()
    pieces.reverse()
    return pieces, antiderivative


def extremal_integrand(spec: RuleSpec) -> Integrand:
    """The integrand on which the sharp bound is attained.

    Its n-th derivative IS the kernel of ``spec``, and every lower
    derivative is continuous: the exact pieces of ``_extremal_pieces``,
    each coefficient rounded to float once.
    """
    pieces, _ = _extremal_pieces(spec)
    by_order = [PiecewisePolynomial((spec.a, spec.midpoint, spec.b), p) for p in pieces]
    return Integrand(lambda k, x: by_order[k].eval(x), (spec.a, spec.b), max_order=spec.n)


def _end_to_end_error(spec: RuleSpec) -> float:
    """Exact rule error of the extremal integrand, rounded once.

    The production rule formula (``rules._rule_value``) runs on the exact
    pieces in Fraction arithmetic.  At even n the perturbation int K times
    the mean of f^(n) joins it; both factors read int K = f^(n-1)(b) -
    f^(n-1)(a), so it is (int K)^2/(b - a).  By the Peano identity the error
    is then sigma(K) exactly, for every n.
    """
    from fractions import Fraction  # deferred: only the exact path needs it

    pieces, antiderivative = _extremal_pieces(spec)
    a, b = Fraction(spec.a), Fraction(spec.b)
    mid = (a + b) / 2

    def derivative(order: int, x):
        left, right = pieces[order]
        return _exact_value(left, x - a) if x < mid else _exact_value(right, x - mid)

    n = spec.n
    value = sum(_rule_value(derivative, Fraction(spec.theta), n, a, b))
    if n % 2 == 0:
        int_k = derivative(n - 1, b) - derivative(n - 1, a)
        value += int_k * int_k / (b - a)
    integral = _exact_value(antiderivative[1], b - mid)  # F(b) - F(a), as F(a) = 0
    return float(abs(integral - value))


def sharpness_check(spec: RuleSpec, end_to_end: bool = False) -> SharpnessReport:
    """Verify the sharp bound attains equality for the kernel-shaped integrand.

    The attained error measure is sigma(K) = int K^2 - (int K)^2/(b - a)
    (int K = 0 for odd n), the centered_l2_sq of kernel_stats_brute, exact
    and rounded once; the closed-form sharp bound at sigma(K) (the
    centered_l2_sq of kernel_stats_closed) must match it.  With
    ``end_to_end`` the rule itself runs on the extremal integrand in exact
    arithmetic, for any n, and its error is reported as well: it equals lhs
    bit for bit.
    """
    lhs = kernel_stats_brute(spec).centered_l2_sq
    norms = bounds.NormData(sigma=kernel_stats_closed(spec).centered_l2_sq, provenance="exact")
    rhs = bounds.certify(spec, "sharp", norms).bound
    return SharpnessReport(
        n=spec.n,
        theta=spec.theta,
        a=spec.a,
        b=spec.b,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        end_to_end_error=_end_to_end_error(spec) if end_to_end else None,
    )
