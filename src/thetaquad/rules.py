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

from .errors import CapabilityError, DomainError, ValidationError
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
    x in xs, the same values ``derivative_fn`` gives, in fewer calls; one
    that lists another number of values raises ValidationError.

    Every reader of f, ``eval_derivative`` included, reads it through
    ``_column``, one derivative order at a list of points, with every check
    made on each column once it is read; so of several faults the one
    raised is in the first column, in the order the reader reads them, that
    has one, and an exception of the integrand's own comes before the
    checks of the column it is raised in.
    ``derivative_fn`` is assumed to be a function of (k, x):
    ``integrate.reference_integral`` keeps its last result with the
    instance, and the panel loop its last one-block read, so a second
    certificate on the same spec and panel count reads only the rates it
    needs.  Neither is shown or compared.
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
        return self._column(True, order, [x])[0]

    def _read(self, a: float, b: float) -> Callable[[int, list], list]:
        """column(k, xs), the list of f^(k)(x) for x in xs, for a reader of
        [a, b]: x in [a, b], a midpoint of two such x, or a node of the
        oracle.  An end of [a, b] outside the padded domain raises the
        DomainError at once.  Points are checked against the domain, and
        clamped into it, only where they may leave it: where [a, b] reaches
        into the slack, a midpoint may overflow, or [a, b] is so narrow that
        a node may round past its ends."""
        self._clamped([a, b])
        lo, hi = self.domain
        inside = (lo <= a and b <= hi and math.isfinite(a + a) and math.isfinite(b + b)
                  and b - a >= 2**-32 * max(abs(a), abs(b)) + 2**-1000)
        return partial(self._column, not inside)

    def _column(self, clamp: bool, k: int, xs: list) -> list:
        """f^(k) at xs, read once: from ``derivatives_fn``, else
        ``derivative_fn`` point by point, at xs ``_clamped`` if ``clamp``.
        Raises CapabilityError above ``max_order``, ValidationError for a
        list of the wrong length, and for a non-finite value, naming the
        first such point of xs."""
        if self.max_order is not None and k > self.max_order:
            raise CapabilityError(
                f"integrand supplies derivatives up to order {self.max_order}, "
                f"order {k} requested"
            )
        points = self._clamped(xs) if clamp else xs
        many, fn = self.derivatives_fn, self.derivative_fn
        values = many(k, points) if many else [fn(k, x) for x in points]
        if len(values) != len(xs):
            raise ValidationError(f"derivatives_fn listed {len(values)} values of order {k} "
                                  f"at {len(xs)} points")
        if not math.isfinite(sum(values)):  # one test per column; finite sums may overflow
            for x, value in zip(xs, values):
                if not math.isfinite(value):
                    raise ValidationError(f"derivative of order {k} at x={x!r} is {value!r}")
        return values

    def _clamped(self, xs: list) -> list:
        """xs clamped into the domain; DomainError at the first x beyond its slack."""
        (lo, hi), (low, high) = self.domain, self._padded
        for x in xs:
            if x < low or x > high:
                raise DomainError(f"x={x!r} outside integrand domain [{lo!r}, {hi!r}]")
        return [min(max(x, lo), hi) for x in xs]


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
    Fractions stay exact and floats keep their bits (callers sum with ``_checked_sum``).
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


def _checked_sum(summed: Callable, values, a: float, b: float):
    """summed(values): ``math.fsum`` of values already read on [a, b], or
    ``list`` of lazy fsums over rows of them.  Where fsum overflows
    ("intermediate overflow", or "-inf + inf" from values overflowed to
    inf), OverflowError naming [a, b].  Nothing in ``values`` reads f, so no
    ValueError or OverflowError of a reader is renamed."""
    try:
        return summed(values)
    except (OverflowError, ValueError) as exc:
        raise OverflowError(f"a sum on [{a!r}, {b!r}] overflows: {exc}") from None


def _rule_value(terms, a: float, b: float) -> float:
    """The rule value on [a, b], the checked sum of its ``terms`` formed from
    finite derivative values; OverflowError where their arithmetic
    overflowed it to inf or NaN."""
    value = _checked_sum(math.fsum, terms, a, b)
    if not math.isfinite(value):
        raise OverflowError(f"the rule value on [{a!r}, {b!r}] is {value!r}: "
                            f"finite derivative values overflow its arithmetic")
    return value


def apply_rule(f: Integrand, spec: RuleSpec) -> QuadratureResult:
    """Evaluate the corrected rule on [spec.a, spec.b]; at even n the
    perturbation is int K times the mean of f^(n), (f^(n-1)(b) - f^(n-1)(a)) / (b - a).
    A non-finite f_n_value (so any non-finite base_value) raises OverflowError."""
    a, b, n, theta = spec.a, spec.b, spec.n, spec.theta
    column = f._read(a, b)
    columns = _rule_terms(column, theta, n, [a], [b], [b - a], _coefficients(theta, n))
    terms = [term for term, in columns]
    perturbation = None if n % 2 else spec.stats.integral * _mean_rate(column, n, a, b)
    f_n_value = _rule_value(terms, a, b)  # an fsum is finite only over finite terms
    return QuadratureResult(terms[0], tuple(terms[1:]), f_n_value, perturbation, spec)
