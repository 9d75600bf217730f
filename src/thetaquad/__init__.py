"""Blended midpoint/trapezoid/Simpson quadrature with a-priori error certificates.

A one-parameter family of corrected three-point rules: theta = 0 is the
midpoint rule, 1/3 Simpson's rule, 1/2 the midpoint/trapezoid average and
1 the trapezoid rule, each sharpened by midpoint-derivative corrections.
The package carries the family's Peano kernels with closed-form statistics,
turns them into error certificates (L1/L2/sup/band/one-sided/perturbed/
sharp), composes the rules over uniform panels with per-panel budgets, and
ships a verification harness that checks every kernel closed form against
exact rational arithmetic.

Importing the package loads none of its modules.  ``_EXPORTS`` maps each
module to the names it exports; the first read of a name, or of a module
by its own name, imports that module (PEP 562), so ``thetaquad.cli`` loads
only what each subcommand runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "poly": ("PiecewisePolynomial",),
    "kernel": ("RuleSpec", "KernelStats", "kernel_stats_closed", "kernel_stats_brute"),
    "rules": ("Integrand", "QuadratureResult", "PRESETS", "preset", "apply_rule"),
    "bounds": ("NormData", "DerivativeBand", "CertificateKind", "ErrorCertificate",
               "CERTIFICATES", "certify"),
    "integrate": ("CompositeResult", "SharpnessReport", "reference_integral",
                  "sigma_functional", "true_error", "composite_integrate",
                  "sharpness_check", "extremal_integrand"),
    "functions": ("Exponential", "Sine", "Runge", "PolynomialFunction", "parse_function",
                  "BUILTIN_NAMES"),
    "errors": ("ThetaQuadError", "ValidationError", "DomainError", "CapabilityError",
               "ConvergenceError"),
    "cli": (),  # exports nothing here: read as thetaquad.cli
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    owner = _OWNER.get(name, name)
    if owner not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    globals()[name] = value = module if owner == name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
