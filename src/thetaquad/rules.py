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
from functools import partial
from typing import Callable

from .errors import CapabilityError, ConvergenceError, DomainError, ValidationError
from .errors import check_int, check_interval
from .kernel import RuleSpec, _Memo
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
    rejected, and a rule value that overflows from finite ones raises
    OverflowError, so no budget is ever stated for a non-finite rule value.
    The optional ``derivatives_fn(k, xs)`` returns the list of f^(k)(x) for
    x in xs, the same values ``derivative_fn`` gives, in fewer calls.

    ``eval_derivative`` checks all of this on every call.  Every reader of f
    goes through ``_read``, one derivative order at a block of points:
    unchecked where the checks hold for a whole interval, and a replay
    through eval_derivative if the pass fails.  ``derivative_fn`` is assumed
    to be a function of (k, x): the replay reads it again, and
    ``integrate.reference_integral`` keeps its last result with the
    instance, which is neither shown nor compared.
    """

    derivative_fn: Callable[[int, float], float]
    domain: tuple[float, float]
    max_order: int | None = None
    derivatives_fn: Callable[[int, list], list] | None = field(
        default=None, repr=False, compare=False)
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

    def _read(self, a: float, b: float, order: int, run: Callable[..., tuple]) -> tuple:
        """run(column, checked), where column(k, xs) is the list of f^(k)(x)
        for x in xs, k <= ``order`` and x in [a, b] or a midpoint of two such
        x; run raises, or returns a tuple led by a non-finite item, if a value
        read is non-finite.  An end of [a, b] outside the padded domain raises
        the DomainError.  Where every other check holds for such reads, the
        first pass reads ``derivatives_fn`` (else ``derivative_fn`` point by
        point) with checked=False; its result is kept if its first item is
        finite, and a ConvergenceError from it is final.  Otherwise the
        replay reads through eval_derivative with checked=True, in which a
        reader takes one panel at a time, and its result is returned as is.
        A derivatives_fn that lists the wrong number of values fails the
        first pass, so its values are never paired with the wrong points."""
        for x in (a, b):
            if not self._padded[0] <= x <= self._padded[1]:
                self.eval_derivative(0, x)  # raises the DomainError
        lo, hi = self.domain
        capable = self.max_order is None or order <= self.max_order
        if capable and lo <= a and b <= hi and math.isfinite(a + a) and math.isfinite(b + b):
            try:
                result = run(self._column, False)
                if math.isfinite(result[0]):
                    return result
            except Exception as error:  # the checked pass below raises it again
                if isinstance(error, ConvergenceError):  # every value read was finite
                    raise
        return run(self._checked_column, True)

    def _column(self, k: int, xs: list) -> list:
        """f^(k) at xs as _read's first pass reads it, without the checks."""
        many, fn = self.derivatives_fn, self.derivative_fn
        values = many(k, xs) if many else [fn(k, x) for x in xs]
        if len(values) != len(xs):
            raise ValidationError(f"derivatives_fn listed {len(values)} values of order {k} "
                                  f"at {len(xs)} points")
        return values

    def _checked_column(self, k: int, xs: list) -> list:
        """f^(k) at xs through eval_derivative, as _read's replay reads it."""
        checked = self.eval_derivative
        return [checked(k, x) for x in xs]


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


def _mean_rate(column: Callable, n: int, a: float, b: float) -> float:
    """(f^(n-1)(b) - f^(n-1)(a)) / (b - a), the mean of f^(n) on [a, b];
    column(k, xs) lists f^(k)(x) for x in xs."""
    at_b, at_a = column(n - 1, [b, a])
    return (at_b - at_a) / (b - a)


def _coefficients(theta, n: int) -> _Memo:
    """The correction coefficients of each panel width w, one per order
    2i = 2, 4, ... < n: (1 - theta k) w^k / (k! 4^i) with k = 2i + 1, so
    theta = 1/3 zeroes the first (Simpson) and theta = 1/5 the second."""
    return _Memo(partial(_coefficients_of_width, theta, n))


def _coefficients_of_width(theta, n: int, w) -> list:
    return [(1 - theta * k) * w**k / (math.factorial(k) * 4 ** (k // 2))
            for k in range(3, n + 1, 2)]


def _rule_terms(column: Callable, theta, n: int, los: list, his: list, widths: list,
                coefficients: _Memo) -> list[list]:
    """Columns [base, *corrections] of the rule on the panels [lo, hi] of
    the given widths (hi - lo), one entry per panel, F_n of a panel being
    the sum of its entries.

    column(k, xs) lists f^(k)(x) for x in xs.  It is read once for f at the
    midpoints, then the left and the right edges, and once for each f^(2),
    f^(4), ... at the midpoints.  ``coefficients`` is ``_coefficients(theta,
    n)``, kept by the caller across calls.  Integer literals only, so
    Fractions stay exact and floats keep their bits (callers use ``math.fsum``).
    """
    keep, blend = 1 - theta, theta / 2
    mids = [(lo + hi) / 2 for lo, hi in zip(los, his)]
    f, p = column(0, mids + los + his), len(mids)
    terms = [[w * (keep * f_mid + blend * (f_lo + f_hi))
              for w, f_mid, f_lo, f_hi in zip(widths, f, f[p:], f[2 * p:])]]
    if n > 2:
        per_panel = list(map(coefficients.__getitem__, widths))
        for i, k in enumerate(range(2, n, 2)):
            terms.append([c[i] * f_k for c, f_k in zip(per_panel, column(k, mids))])
    return terms


def _finite(value: float, a: float, b: float) -> float:
    """``value``, a rule value on [a, b] formed from finite derivative values;
    OverflowError where their arithmetic overflowed it to inf or NaN."""
    if not math.isfinite(value):
        raise OverflowError(f"the rule value on [{a!r}, {b!r}] is {value!r}: "
                            f"finite derivative values overflow its arithmetic")
    return value


def apply_rule(f: Integrand, spec: RuleSpec) -> QuadratureResult:
    """Evaluate the corrected rule on [spec.a, spec.b]; at even n the
    perturbation is int K times the mean of f^(n), (f^(n-1)(b) - f^(n-1)(a)) / (b - a).
    A non-finite f_n_value (so any non-finite base_value) raises OverflowError."""
    a, b, n, theta = spec.a, spec.b, spec.n, spec.theta

    def run(column: Callable, _checked: bool) -> tuple[float, list, float | None]:
        columns = _rule_terms(column, theta, n, [a], [b], [b - a], _coefficients(theta, n))
        terms = [term for term, in columns]
        if n % 2:
            return math.fsum(terms), terms, None
        perturbation = spec.stats.integral * _mean_rate(column, n, a, b)
        return math.fsum(terms) + perturbation, terms, perturbation

    _, terms, perturbation = f._read(a, b, n - 1, run)
    f_n_value = _finite(math.fsum(terms), a, b)  # an fsum is finite only over finite terms
    return QuadratureResult(terms[0], tuple(terms[1:]), f_n_value, perturbation, spec)
