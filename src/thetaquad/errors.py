"""Exception types and the input checks shared across the package."""

from __future__ import annotations

import math

__all__ = [
    "ThetaQuadError",
    "ValidationError",
    "DomainError",
    "CapabilityError",
    "ConvergenceError",
]


class ThetaQuadError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ThetaQuadError, ValueError):
    """A parameter or piece of input data is invalid or inconsistent."""


class DomainError(ThetaQuadError, ValueError):
    """Evaluation or integration was requested outside a function's domain."""


class CapabilityError(ThetaQuadError, ValueError):
    """An integrand cannot supply a derivative of the requested order."""


class ConvergenceError(ThetaQuadError, RuntimeError):
    """The reference integrator did not converge within its panel cap."""


def check_int(name: str, value: object, minimum: int) -> None:
    """Raise ValidationError unless ``value`` is an int (not a bool) >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_interval(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats if they are finite with a < b, else ValidationError."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValidationError(f"need finite a < b, got a={a!r}, b={b!r}")
    return a, b
