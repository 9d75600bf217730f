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
from itertools import islice
from typing import Callable, Iterator

from .errors import CapabilityError, ConvergenceError, DomainError, ValidationError
from .errors import check_int, check_interval
from .kernel import RuleSpec
from .poly import domain_slack

__all__ = [
    "Integrand",
    "QuadratureResult",
    "PRESETS",
    "preset",
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
    floating slack at the endpoints.  A NaN or infinite derivative value is
    rejected, so no budget is ever stated for a non-finite rule value.

    ``eval_derivative`` checks all of this on every call.  Every reader of f
    goes through ``_read``: derivative_fn itself where the checks hold for a
    whole interval, and a replay through eval_derivative if the pass fails.
    """

    derivative_fn: Callable[[int, float], float]
    domain: tuple[float, float]
    max_order: int | None = None
    _padded: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = check_interval(*self.domain)
        slack = domain_slack(lo, hi)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "_padded", (lo - slack, hi + slack))
        if self.max_order is not None:
            check_int("max_order", self.max_order, 0)

    def eval_derivative(self, order: int, x: float) -> float:
        check_int("derivative order", order, 0)
        if self.max_order is not None and order > self.max_order:
            raise CapabilityError(
                f"integrand supplies derivatives up to order {self.max_order}, "
                f"order {order} requested"
            )
        lo, hi = self.domain
        if x < self._padded[0] or x > self._padded[1]:
            raise DomainError(f"x={x!r} outside integrand domain [{lo!r}, {hi!r}]")
        value = self.derivative_fn(order, min(max(x, lo), hi))
        if not math.isfinite(value):
            raise ValidationError(f"derivative of order {order} at x={x!r} is {value!r}")
        return value

    def _read(self, a: float, b: float, order: int, run: Callable[[Callable], tuple]) -> tuple:
        """run(read), reading f^(k)(x) at k <= ``order`` and x in [a, b] or a
        midpoint of two such x; run raises, or returns a tuple led by a
        non-finite item, if a value read is non-finite.  An end of [a, b] outside
        the padded domain raises the DomainError.  Where every other check
        holds for such reads, run(derivative_fn) is kept if its first item is
        finite, and a ConvergenceError from it is final; otherwise
        run(eval_derivative) is returned as is."""
        for x in (a, b):
            if not self._padded[0] <= x <= self._padded[1]:
                self.eval_derivative(0, x)  # raises the DomainError
        lo, hi = self.domain
        capable = self.max_order is None or order <= self.max_order
        if capable and lo <= a and b <= hi and math.isfinite(a + a) and math.isfinite(b + b):
            try:
                result = run(self.derivative_fn)
                if math.isfinite(result[0]):
                    return result
            except Exception as error:  # the checked pass below raises it again
                if isinstance(error, ConvergenceError):  # every value read was finite
                    raise
        return run(self.eval_derivative)


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


def _mean_rate(f: Callable, n: int, a: float, b: float) -> float:
    """(f^(n-1)(b) - f^(n-1)(a)) / (b - a), the mean of f^(n) on [a, b]."""
    return (f(n - 1, b) - f(n - 1, a)) / (b - a)


class _PerWidth(dict):
    """make(w) for each panel width w, formed on the first read of w."""

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, w):
        value = self[w] = self.make(w)
        return value


def _rule_value(f: Callable, theta, n: int, edges: list) -> Iterator[list]:
    """[base, *corrections] of each panel between consecutive ``edges``, F_n
    being their sum; f(k, x) is f^(k)(x), read as each panel is reached:
    f(mid), f(lo), f(hi), then f^(2)(mid), f^(4)(mid), ...

    The corrections are those of the module docstring, so theta = 1/3 zeroes
    the first (Simpson) and theta = 1/5 the second; their coefficients are
    formed once per panel width.  Integer literals only, so Fractions stay
    exact and floats keep their bits (callers use ``math.fsum``).
    """
    keep, blend = 1 - theta, theta / 2
    coefficients = _PerWidth(lambda w: [  # (1 - theta k) w^k / (k! 4^i) with k = 2i + 1
        ((1 - theta * k) * w**k / (math.factorial(k) * 4 ** (k // 2)), k - 1)
        for k in range(3, n + 1, 2)])
    for lo, hi in zip(edges, islice(edges, 1, None)):
        w, mid = hi - lo, (lo + hi) / 2
        terms = [w * (keep * f(0, mid) + blend * (f(0, lo) + f(0, hi)))]
        for coefficient, order in coefficients[w] if n > 2 else ():
            terms.append(coefficient * f(order, mid))
        yield terms


def apply_rule(f: Integrand, spec: RuleSpec) -> QuadratureResult:
    """Evaluate the corrected rule on [spec.a, spec.b]; at even n the
    perturbation is int K times the mean of f^(n), (f^(n-1)(b) - f^(n-1)(a)) / (b - a)."""

    def run(read: Callable[[int, float], float]) -> tuple[float, list, float | None]:
        terms = next(_rule_value(read, spec.theta, spec.n, [spec.a, spec.b]))
        if spec.n % 2:
            return math.fsum(terms), terms, None
        perturbation = spec.stats.integral * _mean_rate(read, spec.n, spec.a, spec.b)
        return math.fsum(terms) + perturbation, terms, perturbation

    _, terms, perturbation = f._read(spec.a, spec.b, spec.n - 1, run)
    return QuadratureResult(terms[0], tuple(terms[1:]), math.fsum(terms), perturbation, spec)
