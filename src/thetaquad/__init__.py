"""Blended midpoint/trapezoid/Simpson quadrature with a-priori error certificates.

A one-parameter family of corrected three-point rules: theta = 0 is the
midpoint rule, 1/3 Simpson's rule, 1/2 the midpoint/trapezoid average and
1 the trapezoid rule, each sharpened by midpoint-derivative corrections.
The package carries the family's Peano kernels with closed-form statistics,
turns them into error certificates (L1/L2/sup/band/one-sided/perturbed/
sharp), composes the rules over uniform panels with per-panel budgets, and
ships a verification harness that checks every kernel closed form against
exact rational arithmetic.
"""

from __future__ import annotations

from .bounds import (
    CERTIFICATES,
    CertificateKind,
    DerivativeBand,
    ErrorCertificate,
    NormData,
    certify,
)
from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    ThetaQuadError,
    ValidationError,
)
from .functions import (
    BUILTIN_NAMES,
    Exponential,
    PolynomialFunction,
    Runge,
    Sine,
    parse_function,
)
from .integrate import (
    CompositeResult,
    SharpnessReport,
    composite_integrate,
    extremal_integrand,
    reference_integral,
    sharpness_check,
    sigma_functional,
    true_error,
)
from .kernel import (
    KernelStats,
    RuleSpec,
    kernel_centered_max_closed,
    kernel_stats_brute,
    kernel_stats_closed,
)
from .poly import PiecewisePolynomial
from .rules import (
    PRESETS,
    Integrand,
    QuadratureResult,
    apply_rule,
    correction_sum,
    perturbation_term,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # poly
    "PiecewisePolynomial",
    # kernel
    "RuleSpec",
    "KernelStats",
    "kernel_stats_closed",
    "kernel_centered_max_closed",
    "kernel_stats_brute",
    # rules
    "Integrand",
    "QuadratureResult",
    "PRESETS",
    "preset",
    "apply_rule",
    "correction_sum",
    "perturbation_term",
    # bounds
    "NormData",
    "DerivativeBand",
    "CertificateKind",
    "ErrorCertificate",
    "CERTIFICATES",
    "certify",
    "sigma_functional",
    # integrate
    "CompositeResult",
    "SharpnessReport",
    "reference_integral",
    "true_error",
    "composite_integrate",
    "sharpness_check",
    "extremal_integrand",
    # functions
    "Exponential",
    "Sine",
    "Runge",
    "PolynomialFunction",
    "parse_function",
    "BUILTIN_NAMES",
    # errors
    "ThetaQuadError",
    "ValidationError",
    "DomainError",
    "CapabilityError",
    "ConvergenceError",
]
