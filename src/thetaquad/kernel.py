"""Peano kernels of the blended three-point rule family, with closed-form stats.

The family blends the midpoint and trapezoid rules through a parameter
``theta`` in [0, 1]: theta=0 is the midpoint rule, theta=1 the trapezoid
rule, theta=1/3 Simpson's rule and theta=1/2 the midpoint/trapezoid average.
For derivative order ``n`` the error of the corrected rule is an integral of
f^(n) against the kernel

    K(x) = (x - a)^(n-1) / n! * (x - a - theta*n*(b - a)/2)   on [a, mid],
    K(x) = (x - b)^(n-1) / n! * (x - b + theta*n*(b - a)/2)   on (mid, b],

with mid = (a + b)/2.  Everything a certificate needs about K — its integral,
the integral of |K|, its sup norm, the integral of K^2 and (for even n) the
sup norm of K minus its mean — has a closed form, implemented here next to a
brute-force evaluation path through the poly module so the two can be checked
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .poly import PiecewisePolynomial

__all__ = [
    "RuleSpec",
    "KernelStats",
    "build_kernel",
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
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValidationError(f"n must be an int, got {self.n!r}")
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not math.isfinite(self.theta) or not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must lie in [0, 1], got {self.theta!r}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValidationError(f"need a < b, got a={self.a!r}, b={self.b!r}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class KernelStats:
    """Closed-form (or brute-force) statistics of one kernel.

    centered_max_abs is the sup norm of K minus its interval mean; it only
    enters even-order certificates and is None for odd n.
    """

    integral: float
    abs_integral: float
    max_abs: float
    l2_sq: float
    centered_max_abs: float | None


def _factorial(n: int) -> float:
    return float(math.factorial(n))


def build_kernel(spec: RuleSpec) -> PiecewisePolynomial:
    """The kernel as a two-segment piecewise polynomial on (a, mid, b)."""
    n, theta = spec.n, spec.theta
    a, b = spec.a, spec.b
    h = 0.5 * (b - a)
    c = 0.5 * theta * n * (b - a)
    fact = _factorial(n)

    # Left segment, u = x - a:  u^(n-1) * (u - c) / n!
    left = [0.0] * (n + 1)
    left[n - 1] = -c / fact
    left[n] += 1.0 / fact

    # Right segment, v = x - mid, so x - b = v - h:
    # (v - h)^(n-1) * (v + (c - h)) / n!
    base = [math.comb(n - 1, j) * (-h) ** (n - 1 - j) for j in range(n)]
    right = [0.0] * (n + 1)
    shift = c - h
    for j, cj in enumerate(base):
        right[j] += cj * shift
        right[j + 1] += cj
    for j in range(n + 1):
        right[j] /= fact

    return PiecewisePolynomial(
        breakpoints=(a, spec.midpoint, b),
        segments=(tuple(left), tuple(right)),
    )


# -- dimensionless branch factors -----------------------------------------
#
# Each closed form is a power of (b - a) over n! 2^n times a dimensionless
# factor in (n, theta).  The bounds module builds its coefficients from these
# and from the closed forms below, so a certificate and the kernel statistic
# it rests on come from one formula.


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


def l2_bracket(n: int, theta: float) -> float:
    """Quadratic-in-theta numerator of the squared-l2 closed form."""
    return (
        theta * theta * n * n * (2 * n + 1)
        - theta * (4 * n * n - 1)
        + (2 * n - 1)
    )


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


def closed_l2_sq(spec: RuleSpec) -> float:
    """Integral of K^2."""
    n = spec.n
    denom = (2 * n + 1) * (2 * n - 1) * _factorial(n) ** 2 * 2.0 ** (2 * n)
    return l2_bracket(n, spec.theta) * spec.width ** (2 * n + 1) / denom


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
    )


def kernel_stats_brute(spec: RuleSpec) -> KernelStats:
    """The same statistics computed from the piecewise polynomial itself.

    Exercises a completely different code path (poly-module integration,
    sign-change isolation, stationary-point search) so disagreement with
    kernel_stats_closed flags an error in one of the two.
    """
    kern = build_kernel(spec)
    integral = kern.definite_integral(spec.a, spec.b)
    stats = kern.norm_stats(spec.a, spec.b)
    centered: float | None = None
    if spec.n % 2 == 0:
        mean = integral / spec.width
        centered = kern.add_constant(-mean).norm_stats(spec.a, spec.b).max_abs
    return KernelStats(
        integral=integral,
        abs_integral=stats.l1,
        max_abs=stats.max_abs,
        l2_sq=stats.l2_sq,
        centered_max_abs=centered,
    )
