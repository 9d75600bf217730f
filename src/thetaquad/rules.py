"""The corrected quadrature rules themselves.

The base three-point value is

    (b - a) * ((1 - theta) f(mid) + theta (f(a) + f(b)) / 2)

and for n >= 3 it is sharpened by midpoint-derivative corrections

    sum_{i=1..floor((n-1)/2)} (1 - theta (2i+1)) (b-a)^(2i+1)
                              / ((2i+1)! 2^(2i)) * f^(2i)(mid).

For even n = 2m there is additionally a Gruss-style perturbation built from
the endpoint difference of f^(2m-1); certificates that cover the perturbed
rule bound the error of base + corrections + perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import CapabilityError, DomainError, ValidationError
from .kernel import RuleSpec

__all__ = [
    "Integrand",
    "QuadratureResult",
    "PRESETS",
    "preset",
    "correction_sum",
    "perturbation_term",
    "apply_rule",
]

#: Named blend parameters.
PRESETS: dict[str, float] = {
    "midpoint": 0.0,
    "trapezoid": 1.0,
    "simpson": 1.0 / 3.0,
    "averaged": 0.5,
}


def preset(name: str) -> float:
    """Blend parameter for a named rule (midpoint/trapezoid/simpson/averaged)."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValidationError(f"unknown rule {name!r}; expected one of: {known}") from None


@dataclass(frozen=True)
class Integrand:
    """An integrand exposed through exact derivative evaluations.

    ``derivative_fn(k, x)`` returns f^(k)(x); orders above ``max_order`` are
    rejected (``max_order=None`` means every order is available).  ``domain``
    is the closed interval on which evaluations are legal, with a tiny
    floating slack at the endpoints.
    """

    derivative_fn: Callable[[int, float], float]
    domain: tuple[float, float]
    max_order: int | None = None

    def __post_init__(self) -> None:
        lo, hi = self.domain
        object.__setattr__(self, "domain", (float(lo), float(hi)))
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValidationError(f"domain must be a finite interval, got {self.domain!r}")
        if self.max_order is not None and self.max_order < 0:
            raise ValidationError(f"max_order must be >= 0, got {self.max_order!r}")

    @classmethod
    def from_callables(
        cls, derivatives: Sequence[Callable[[float], float]], domain: tuple[float, float]
    ) -> Integrand:
        """Build from per-order closures [f, f', f'', ...]."""
        if not derivatives:
            raise ValidationError("need at least the order-0 callable")
        funcs = tuple(derivatives)

        def derivative_fn(order: int, x: float) -> float:
            return funcs[order](x)

        return cls(derivative_fn=derivative_fn, domain=domain, max_order=len(funcs) - 1)

    def eval_derivative(self, order: int, x: float) -> float:
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValidationError(f"derivative order must be an int >= 0, got {order!r}")
        if self.max_order is not None and order > self.max_order:
            raise CapabilityError(
                f"integrand supplies derivatives up to order {self.max_order}, "
                f"order {order} requested"
            )
        lo, hi = self.domain
        slack = 1e-12 * max(1.0, abs(lo), abs(hi), hi - lo)
        if x < lo - slack or x > hi + slack:
            raise DomainError(f"x={x!r} outside integrand domain [{lo!r}, {hi!r}]")
        return self.derivative_fn(order, min(max(x, lo), hi))


@dataclass(frozen=True)
class QuadratureResult:
    """One application of the rule on one interval.

    f_n_value = base_value + sum(correction_terms), summed compensated.
    perturbation_term is populated for even n and None for odd n; it is NOT
    included in f_n_value — callers add it when a perturbed-rule certificate
    is in play.
    """

    base_value: float
    correction_terms: tuple[float, ...]
    f_n_value: float
    perturbation_term: float | None
    spec: RuleSpec = field(repr=False)


def _require_subinterval(f: Integrand, spec: RuleSpec) -> None:
    lo, hi = f.domain
    slack = 1e-12 * max(1.0, abs(lo), abs(hi), hi - lo)
    if spec.a < lo - slack or spec.b > hi + slack:
        raise DomainError(
            f"rule interval [{spec.a!r}, {spec.b!r}] not contained in "
            f"integrand domain [{lo!r}, {hi!r}]"
        )


def correction_sum(f: Integrand, spec: RuleSpec) -> list[float]:
    """Midpoint-derivative correction terms, one per i = 1 .. floor((n-1)/2).

    Empty for n <= 2.  Term i is
    (1 - theta (2i+1)) (b-a)^(2i+1) / ((2i+1)! 2^(2i)) * f^(2i)(mid),
    so theta = 1/3 zeroes the first correction (Simpson) and theta = 1/5
    the second.
    """
    _require_subinterval(f, spec)
    terms_count = (spec.n - 1) // 2
    if terms_count == 0:
        return []
    needed = 2 * terms_count
    if f.max_order is not None and f.max_order < needed:
        raise CapabilityError(
            f"corrections for n={spec.n} need derivatives up to order {needed}, "
            f"integrand supplies {f.max_order}"
        )
    w = spec.width
    mid = spec.midpoint
    out = []
    for i in range(1, terms_count + 1):
        k = 2 * i + 1
        coeff = (1.0 - spec.theta * k) * w**k / (math.factorial(k) * 2.0 ** (2 * i))
        out.append(coeff * f.eval_derivative(2 * i, mid))
    return out


def perturbation_term(f: Integrand, spec: RuleSpec) -> float:
    """Endpoint-difference perturbation of the even-order rule.

    For n = 2m:
    (b-a)^(2m+1) / ((2m)! 2^(2m)) * (1/(2m+1) - theta)
        * (f^(2m-1)(b) - f^(2m-1)(a)) / (b - a).
    """
    if spec.n % 2 != 0:
        raise ValidationError("the perturbation term is defined for even n only")
    _require_subinterval(f, spec)
    m = spec.n // 2
    order = 2 * m - 1
    if f.max_order is not None and f.max_order < order:
        raise CapabilityError(
            f"perturbation for n={spec.n} needs derivative order {order}, "
            f"integrand supplies {f.max_order}"
        )
    rate = (f.eval_derivative(order, spec.b) - f.eval_derivative(order, spec.a)) / spec.width
    return (
        spec.width ** (2 * m + 1)
        / (math.factorial(2 * m) * 2.0 ** (2 * m))
        * (1.0 / (2 * m + 1) - spec.theta)
        * rate
    )


def apply_rule(f: Integrand, spec: RuleSpec) -> QuadratureResult:
    """Evaluate the corrected rule on [spec.a, spec.b]."""
    _require_subinterval(f, spec)
    w = spec.width
    fm = f.eval_derivative(0, spec.midpoint)
    fa = f.eval_derivative(0, spec.a)
    fb = f.eval_derivative(0, spec.b)
    base = w * ((1.0 - spec.theta) * fm + spec.theta * 0.5 * (fa + fb))
    corrections = tuple(correction_sum(f, spec))
    value = math.fsum((base, *corrections))
    perturbation = perturbation_term(f, spec) if spec.n % 2 == 0 else None
    return QuadratureResult(
        base_value=base,
        correction_terms=corrections,
        f_n_value=value,
        perturbation_term=perturbation,
        spec=spec,
    )
