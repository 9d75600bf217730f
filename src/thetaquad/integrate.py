"""Reference integration, composite rules with budgets, sharpness harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import bounds
from .errors import ConvergenceError, ValidationError
from .kernel import RuleSpec, build_kernel, kernel_stats_brute, kernel_stats_closed
from .poly import PiecewisePolynomial
from .rules import Integrand, apply_rule

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "MAX_ORACLE_PANELS",
    "CompositeResult",
    "SharpnessReport",
    "reference_integral",
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

#: Certificate kinds accepted by composite_integrate (bounds.CERTIFICATES).
COMPOSITE_CERTIFICATES = tuple(bounds.CERTIFICATES)


def _gl_panel(f: Integrand, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    center = 0.5 * (hi + lo)
    return half * math.fsum(
        w * f.eval_derivative(0, center + half * x)
        for x, w in zip(_GL_NODES, _GL_WEIGHTS)
    )


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

    previous = _gl_panel(f, a, b)
    panels = 2
    while panels <= MAX_ORACLE_PANELS:
        edges = _panel_edges(a, b, panels)
        value = math.fsum(_gl_panel(f, lo, hi) for lo, hi in zip(edges, edges[1:]))
        if abs(value - previous) < tol * (1.0 + abs(value)):
            return value
        previous = value
        panels *= 2
    raise ConvergenceError(
        f"reference integral did not stabilize to tol={tol!r} within "
        f"{MAX_ORACLE_PANELS} panels"
    )


def _rule_panels(
    f: Integrand,
    spec: RuleSpec,
    panels: int,
    perturbed: bool = False,
    certify_panel: Callable[[RuleSpec], bounds.ErrorCertificate] | None = None,
) -> tuple[float, list[float]]:
    """The rule on a uniform partition: its value and one budget per panel.

    ``perturbed`` folds each panel's perturbation term into the value.  With
    ``certify_panel`` every panel gets a certificate instead, and the value
    includes the perturbation exactly when that certificate covers it.
    Panel values are reduced in ascending panel order with compensated
    summation.
    """
    if not isinstance(panels, int) or isinstance(panels, bool) or panels < 1:
        raise ValidationError(f"panels must be an int >= 1, got {panels!r}")
    if perturbed and spec.n % 2 != 0:
        raise ValidationError(f"the perturbed rule needs even n, got n={spec.n}")
    edges = _panel_edges(spec.a, spec.b, panels)
    values: list[float] = []
    budgets: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        pspec = replace(spec, a=lo, b=hi)
        result = apply_rule(f, pspec)
        if certify_panel is not None:
            cert = certify_panel(pspec)
            budgets.append(cert.bound)
            perturbed = cert.covers_perturbed_rule
        value = result.f_n_value
        if perturbed:
            value += result.perturbation_term or 0.0
        values.append(value)
    return math.fsum(values), budgets


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
    value, _ = _rule_panels(f, spec, 1, perturbed)
    return abs(reference_integral(f, spec.a, spec.b, tol=tol) - value)


@dataclass(frozen=True)
class CompositeResult:
    """Composite rule value plus its per-panel certificate budgets.

    The certified statement is always |int_a^b f - value| <= total_bound:
    when the chosen certificate covers the perturbed rule, each panel's
    perturbation term is already folded into value.
    """

    value: float
    panels: int
    per_panel_bound: tuple[float, ...]
    total_bound: float
    certificate_kind: str


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
    comes from bounds.certify.  Norm inputs are global for [a, b] and reused
    on every panel; that is conservative because every norm a certificate
    consumes can only shrink on a subinterval (sigma included: the
    panel-centred variance is at most the interval variance).  The endpoint
    rates that one-sided even-n certificates need are computed exactly per
    panel from f's derivative closures.
    """
    rate_order = spec.n - 1 if certificate == "band" and spec.n % 2 == 0 else None

    def certify_panel(pspec: RuleSpec) -> bounds.ErrorCertificate:
        rate = None
        if rate_order is not None:
            rate = (
                f.eval_derivative(rate_order, pspec.b)
                - f.eval_derivative(rate_order, pspec.a)
            ) / pspec.width
        return bounds.certify(pspec, certificate, norms, band, rate)

    value, budgets = _rule_panels(f, spec, panels, certify_panel=certify_panel)
    return CompositeResult(
        value=value,
        panels=panels,
        per_panel_bound=tuple(budgets),
        total_bound=math.fsum(budgets),
        certificate_kind=certificate,
    )


@dataclass(frozen=True)
class SharpnessReport:
    """Did the sharp bound attain equality on its extremal integrand?

    lhs is the attained error measure computed by brute force from the
    kernel polynomial, rhs the closed-form sharp bound evaluated at
    sigma(K); ratio = lhs / rhs should be 1 up to roundoff.  When the
    end-to-end reconstruction runs, end_to_end_error is the oracle-measured
    rule error of the reconstructed integrand (also equal to rhs in exact
    arithmetic), otherwise None.
    """

    n: int
    theta: float
    a: float
    b: float
    lhs: float
    rhs: float
    ratio: float
    end_to_end_error: float | None = None


def extremal_integrand(spec: RuleSpec) -> Integrand:
    """The integrand on which the sharp bound is attained.

    Its n-th derivative IS the kernel of ``spec``.  Construction: f^(n-1) is
    the order-(n+1) kernel (same theta), shifted for even n by the constant
    -+ (b-a)^(n+1) (1/(n+1) - theta) / (n! 2^(n+1)) on the left/right
    segment so that f^(n) picks up no mean offset; lower derivatives follow
    by repeated continuous antidifferentiation.
    """
    n = spec.n
    upper = build_kernel(replace(spec, n=n + 1))
    if n % 2 == 0:
        s = (
            spec.width ** (n + 1)
            / (math.factorial(n) * 2.0 ** (n + 1))
            * (1.0 / (n + 1) - spec.theta)
        )
        left, right = upper.segments
        upper = PiecewisePolynomial(
            upper.breakpoints,
            ((left[0] - s,) + left[1:], (right[0] + s,) + right[1:]),
        )

    by_order: list[PiecewisePolynomial] = [upper]  # starts at order n-1
    for _ in range(n - 1):
        by_order.insert(0, by_order[0].antiderivative(0.0))
    by_order.append(by_order[-1].derivative())  # order n: the kernel itself

    def derivative_fn(order: int, x: float) -> float:
        return by_order[order].eval(x)

    return Integrand(derivative_fn=derivative_fn, domain=(spec.a, spec.b), max_order=n)


def sharpness_check(
    spec: RuleSpec,
    end_to_end: bool = False,
    tol: float = DEFAULT_ORACLE_TOL,
) -> SharpnessReport:
    """Verify the sharp bound attains equality for the kernel-shaped integrand.

    The attained error measure is int K^2 for odd n and
    int K^2 - (1/(b-a))(int K)^2 for even n, both evaluated by brute force
    from the kernel polynomial; the closed-form sharp bound at sigma(K)
    (taken from the closed kernel stats) must match it.  With ``end_to_end``
    (n <= 4 only) the extremal integrand is reconstructed by repeated
    antidifferentiation and pushed through apply_rule and the oracle, and
    the measured rule error is reported as well.
    """
    brute = kernel_stats_brute(spec)
    closed = kernel_stats_closed(spec)
    if spec.n % 2 == 1:
        lhs = brute.l2_sq
        sigma_closed = closed.l2_sq
    else:
        lhs = abs(brute.l2_sq - brute.integral**2 / spec.width)
        sigma_closed = max(closed.l2_sq - closed.integral**2 / spec.width, 0.0)
    norms = bounds.NormData(sigma=sigma_closed, provenance="exact")
    rhs = bounds.certify(spec, "sharp", norms).bound

    e2e: float | None = None
    if end_to_end:
        if spec.n > 4:
            raise ValidationError(
                "end-to-end sharpness reconstruction is supported for n <= 4"
            )
        f = extremal_integrand(spec)
        e2e = true_error(f, spec, perturbed=(spec.n % 2 == 0), tol=tol)

    return SharpnessReport(
        n=spec.n,
        theta=spec.theta,
        a=spec.a,
        b=spec.b,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        end_to_end_error=e2e,
    )
