"""Peano kernels of the blended three-point rule family, with closed-form stats.

The family blends the midpoint and trapezoid rules through a parameter
``theta`` in [0, 1]: theta=0 is the midpoint rule, theta=1 the trapezoid
rule, theta=1/3 Simpson's rule and theta=1/2 the midpoint/trapezoid average.
For derivative order ``n`` the error of the corrected rule is an integral of
f^(n) against the kernel

    K(x) = (x - a)^(n-1) / n! * (x - a - theta*n*(b - a)/2)   on [a, mid],
    K(x) = (x - b)^(n-1) / n! * (x - b + theta*n*(b - a)/2)   on (mid, b],

with mid = (a + b)/2.  Everything a certificate needs about K — its integral,
the integral of |K|, its sup norm, the integral of K^2, the centred integral
sigma(K) = int K^2 - (int K)^2/(b - a) and (for even n) the sup norm of K
minus its mean — has a closed form, implemented here next to an exact
evaluation in rational arithmetic from the definition above, so the two can
be checked against each other.  Each certificate in ``bounds`` is one of these
closed forms times a norm datum; K itself is the n-th derivative of
``integrate.extremal_integrand``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, check_int, check_interval

__all__ = [
    "RuleSpec",
    "KernelStats",
    "kernel_stats_closed",
    "kernel_centered_max_closed",
    "kernel_stats_brute",
]


@dataclass(frozen=True)
class RuleSpec:
    """A fully determined rule: blend parameter, derivative order, interval.

    Parameters
    ----------
    theta : float
        Blend parameter in [0, 1] (0 midpoint, 1/3 Simpson, 1/2 averaged,
        1 trapezoid).
    n : int
        Derivative order of the kernel representation, n >= 1.
    a, b : float
        Integration interval endpoints, a < b.
    """

    theta: float
    n: int
    a: float
    b: float

    def __post_init__(self) -> None:
        check_int("n", self.n, 1)
        a, b = check_interval(self.a, self.b)
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not math.isfinite(self.theta) or not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must lie in [0, 1], got {self.theta!r}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class KernelStats:
    """Closed-form (or exact rational) statistics of one kernel.

    centered_max_abs is the sup norm of K minus its interval mean; it only
    enters even-order certificates and is None for odd n.  centered_l2_sq is
    sigma(K) = int K^2 - (int K)^2/(b - a), the constant of the sharp bound;
    for odd n int K = 0 and it equals l2_sq.
    """

    integral: float
    abs_integral: float
    max_abs: float
    l2_sq: float
    centered_max_abs: float | None
    centered_l2_sq: float


def _factorial(n: int) -> float:
    return float(math.factorial(n))


# -- dimensionless branch factors -----------------------------------------
#
# Each closed form is a power of (b - a) over n! 2^n times a dimensionless
# factor in (n, theta).  The bounds module multiplies the closed forms below
# by a norm datum, so a certificate and the kernel statistic it rests on come
# from one formula.


def max_factor(n: int, theta: float) -> float:
    """Factor of the kernel sup norm over (b-a)^n / (n! 2^n).

    Four branches: a dedicated n=1 case (which also dodges 0**0), then
    theta*n > theta + 1, 1 <= theta*n <= theta + 1, and theta*n < 1.
    """
    if n == 1:
        return max(1.0 - theta, theta)
    tn = theta * n
    peak = theta**n * float(n - 1) ** (n - 1)
    if tn > theta + 1.0:
        return tn - 1.0
    if tn >= 1.0:
        return peak
    return max(1.0 - tn, peak)


def centered_factor(n: int, theta: float) -> float:
    """Centered sup-norm factor over (b-a)^(2m) / ((2m)! 2^(2m)), n = 2m."""
    m = n // 2
    d1 = theta - 1.0 / (2 * m + 1)
    d2 = theta * (2 * m - 1) - 2.0 * m / (2 * m + 1)
    if theta * (2 * m - 1) >= 1.0:
        return max(d1, d2)
    d3 = d1 - theta ** (2 * m) * float(2 * m - 1) ** (2 * m - 1)
    return max(abs(d1), abs(d2), abs(d3))


# -- closed forms ----------------------------------------------------------


def closed_integral(spec: RuleSpec) -> float:
    """Integral of K: zero for odd n, signed and theta-dependent for even n."""
    n, theta = spec.n, spec.theta
    if n % 2 == 1:
        return 0.0
    return spec.width ** (n + 1) / (_factorial(n) * 2.0**n) * (1.0 / (n + 1) - theta)


def closed_abs_integral(spec: RuleSpec) -> float:
    """Integral of |K|, branching at theta*n = 1."""
    n, theta = spec.n, spec.theta
    w = spec.width
    if theta * n >= 1.0:
        return w ** (n + 1) / (_factorial(n) * 2.0**n) * (theta - 1.0 / (n + 1))
    tn = theta * n
    return (
        w ** (n + 1)
        / (n * _factorial(n + 1) * 2.0**n)
        * (2.0 * tn ** (n + 1) - tn * (n + 1) + n)
    )


def closed_max_abs(spec: RuleSpec) -> float:
    """Sup norm of K."""
    n = spec.n
    return spec.width**n / (_factorial(n) * 2.0**n) * max_factor(n, spec.theta)


def _l2_sq(spec: RuleSpec, centered: bool) -> float:
    """Integral of K^2, less (int K)^2/(b - a) when ``centered`` and n is even."""
    n, theta = spec.n, spec.theta
    bracket = theta * theta * n * n * (2 * n + 1) - theta * (4 * n * n - 1) + (2 * n - 1)
    if centered and n % 2 == 0:
        # (int K)^2/(b - a) over the same denominator; clamped against roundoff
        bracket = max(bracket - (4 * n * n - 1) * (1.0 / (n + 1) - theta) ** 2, 0.0)
    denom = (2 * n + 1) * (2 * n - 1) * _factorial(n) ** 2 * 2.0 ** (2 * n)
    return bracket * spec.width ** (2 * n + 1) / denom


def closed_l2_sq(spec: RuleSpec) -> float:
    """Integral of K^2."""
    return _l2_sq(spec, centered=False)


def closed_centered_l2_sq(spec: RuleSpec) -> float:
    """sigma(K) = int K^2 - (int K)^2/(b - a); equals closed_l2_sq for odd n."""
    return _l2_sq(spec, centered=True)


def kernel_centered_max_closed(spec: RuleSpec) -> float:
    """Sup norm of K minus its mean; defined for even n only."""
    n = spec.n
    if n % 2 != 0:
        raise ValidationError("centered kernel max is defined for even n only")
    return spec.width**n / (_factorial(n) * 2.0**n) * centered_factor(n, spec.theta)


def kernel_stats_closed(spec: RuleSpec) -> KernelStats:
    """All closed-form statistics of the kernel in one bundle."""
    centered = kernel_centered_max_closed(spec) if spec.n % 2 == 0 else None
    return KernelStats(
        integral=closed_integral(spec),
        abs_integral=closed_abs_integral(spec),
        max_abs=closed_max_abs(spec),
        l2_sq=closed_l2_sq(spec),
        centered_max_abs=centered,
        centered_l2_sq=closed_centered_l2_sq(spec),
    )


def kernel_stats_brute(spec: RuleSpec) -> KernelStats:
    """The same statistics computed exactly from the kernel's definition.

    Each half of K is p(u)/n! with p(u) = u^n - c u^(n-1): u = x - a on
    [a, mid] with c = theta n (b - a)/2, and u = x - b on [mid, b] with c
    negated.  Its interior root u = c and stationary point u = c(n-1)/n are
    rational, so every statistic is a finite sum of monomial integrals and
    point values in ``fractions.Fraction``, rounded to float once; sigma(K)
    is int K^2 - (int K)^2/(b - a) formed from those exact sums before its one
    rounding.  No closed form is reused, so disagreement with
    kernel_stats_closed flags an error in one of the two.
    """
    from fractions import Fraction  # deferred: only this cross-check needs it

    n = spec.n
    a, b = Fraction(spec.a), Fraction(spec.b)
    h = (b - a) / 2
    c_left = Fraction(spec.theta) * n * h

    def p(u, c):
        return u ** (n - 1) * (u - c)

    def p_antiderivative(u, c):
        return u**n * (u / (n + 1) - c / n)

    def p_squared_antiderivative(u, c):
        return u ** (2 * n - 1) * (u * u / (2 * n + 1) - c * u / n + c * c / (2 * n - 1))

    integral = abs_integral = l2_sq = Fraction(0)
    values = []
    for c, lo, hi in ((c_left, Fraction(0), h), (-c_left, -h, Fraction(0))):
        cuts = [lo, c, hi] if lo < c < hi else [lo, hi]
        pieces = [
            p_antiderivative(right, c) - p_antiderivative(left, c)
            for left, right in zip(cuts, cuts[1:])
        ]
        integral += sum(pieces)
        abs_integral += sum(map(abs, pieces))
        l2_sq += p_squared_antiderivative(hi, c) - p_squared_antiderivative(lo, c)
        values += [p(u, c) for u in (lo, hi, c * (n - 1) / n) if lo <= u <= hi]

    fact = math.factorial(n)
    mean = integral / (b - a)
    return KernelStats(
        integral=float(integral / fact),
        abs_integral=float(abs_integral / fact),
        max_abs=float(max(map(abs, values)) / fact),
        l2_sq=float(l2_sq / fact**2),
        centered_max_abs=(
            float(max(abs(v - mean) for v in values) / fact) if n % 2 == 0 else None
        ),
        centered_l2_sq=float((l2_sq - integral * mean) / fact**2),
    )
