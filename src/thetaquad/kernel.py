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
minus its mean — comes from one closed form, ``kernel_stats_closed``, which
``RuleSpec.stats`` calls at most once per spec.  ``kernel_stats_brute``
evaluates the same six exactly from the definition above, as integer sums
divided once, so the two can be checked against each other.  Each
certificate in ``bounds`` is one ``KernelStats`` field times a norm datum;
K itself is the n-th derivative of ``integrate.extremal_integrand``.

The closed form raises OverflowError where (n!)^2 or (b - a)^(2n+1)
overflows a float: at every n >= 99, checked before n! is formed, and at
lower n on intervals so wide that (b - a)^(2n+1) exceeds 1.8e308.
Everything that reads it raises there too.
From n = 85 on, the denominator of int K^2 overflows a float, so the closed
form divides (n!)^2 out of (b - a)^(2n+1) first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from .errors import ValidationError, check_int, check_interval

__all__ = [
    "RuleSpec",
    "KernelStats",
    "kernel_stats_closed",
    "kernel_stats_brute",
]


class _Memo(dict):
    """make(key) for each key, formed on the first read of key."""

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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

    @cached_property
    def stats(self) -> KernelStats:
        """kernel_stats_closed of this spec, computed on first read and kept."""
        return kernel_stats_closed(self)

    def _panels(self, panels: int) -> _Memo:
        """This rule on [0, w] for each width w of a partition into ``panels``
        panels, formed on the first read of w.  Like ``stats`` they are kept
        with the spec, for the last partition read only, so calls that share
        a spec and a panel count (one per certificate, say) form them once."""
        kept = self.__dict__.get("_kept_panels")
        if kept is None or kept[0] != panels:
            make = partial(RuleSpec, self.theta, self.n, 0.0)
            kept = self.__dict__["_kept_panels"] = (panels, _Memo(make))
        return kept[1]


@dataclass(frozen=True)
class KernelStats:
    """Closed-form (or exact, rounded once) statistics of one kernel.

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


def kernel_stats_closed(spec: RuleSpec) -> KernelStats:
    """All six closed-form statistics of the kernel, the only float path to them.

    Each is a power of (b - a) over n! 2^n (squared for the l2 pair) times a
    dimensionless factor of (n, theta).  The bounds, the rules and the panel
    loop read them through ``RuleSpec.stats``, which calls this once per
    spec.  Where one overflows the call raises OverflowError naming n, the
    interval width and the supported range (module docstring).
    """
    n, theta, w = spec.n, spec.theta, spec.width
    try:
        if n > 98:  # (n!)^2 overflows at every width: raise before forming n!
            raise OverflowError
        fact = float(math.factorial(n))
        scale = fact * 2.0**n
        w_n1, w_2n1 = w ** (n + 1), w ** (2 * n + 1)
        height = w**n / scale  # sup|K| and the centred sup are this times a factor
        volume = w_n1 / scale  # at even n, int K = volume * (1/(n+1) - theta)
        tn = theta * n
        if tn >= 1.0:
            abs_integral = volume * (theta - 1.0 / (n + 1))
        else:
            lobe = n * float(math.factorial(n + 1)) * 2.0**n
            abs_integral = w_n1 / lobe * (2.0 * tn ** (n + 1) - tn * (n + 1) + n)
        # sup|K|: a dedicated n = 1 branch (which also dodges 0**0), then
        # theta n > theta + 1, 1 <= theta n <= theta + 1 and theta n < 1
        peak = theta**n * float(n - 1) ** (n - 1) if n > 1 else 0.0
        if n == 1:
            sup = max(1.0 - theta, theta)
        elif tn > theta + 1.0:
            sup = tn - 1.0
        else:
            sup = peak if tn >= 1.0 else max(1.0 - tn, peak)
        # int K^2 over one denominator; sigma(K) takes (int K)^2/(b - a) off its
        # bracket, clamped against roundoff; at odd n int K = 0 and the two agree
        bracket = theta * theta * n * n * (2 * n + 1) - theta * (4 * n * n - 1) + (2 * n - 1)
        denom = (2 * n + 1) * (2 * n - 1) * fact**2 * 2.0 ** (2 * n)
        if denom == math.inf:  # from n = 85 on: divide (n!)^2 out of the power first
            w_2n1, denom = w_2n1 / fact / fact, (2 * n + 1) * (2 * n - 1) * 2.0 ** (2 * n)
        if bracket * w_2n1 == math.inf:  # divide first only where the product overflows
            w_2n1, denom = w_2n1 / denom, 1.0
        l2_sq = centered_l2_sq = bracket * w_2n1 / denom
        integral, centered = 0.0, None
        if n % 2 == 0:
            integral = volume * (1.0 / (n + 1) - theta)
            bracket = max(bracket - (4 * n * n - 1) * (1.0 / (n + 1) - theta) ** 2, 0.0)
            centered_l2_sq = bracket * w_2n1 / denom
            d1 = theta - 1.0 / (n + 1)
            d2 = theta * (n - 1) - n / (n + 1)
            if theta * (n - 1) >= 1.0:
                centered = height * max(d1, d2)
            else:
                centered = height * max(abs(d1), abs(d2), abs(d1 - peak))
        return KernelStats(integral, abs_integral, height * sup, l2_sq, centered, centered_l2_sq)
    except OverflowError as exc:
        raise OverflowError(
            f"kernel statistics at n={n} on an interval of width {w!r} overflow a float; "
            f"the closed form is supported for n <= 98 with (b - a)^(2n+1) < 1.8e308"
        ) from exc


def kernel_stats_brute(spec: RuleSpec) -> KernelStats:
    """The same statistics computed exactly from the kernel's definition.

    Each half of K is p(u)/n! with p(u) = u^n - c u^(n-1): u = x - a on
    [a, mid] with c = theta n (b - a)/2, and u = x - b on [mid, b] with c
    negated.  a, b and theta are binary fractions, so with u = U/D and
    c = C/D every statistic, sigma(K) included, is an integer sum of
    monomial integrals or point values over one integer denominator, divided
    once (Python's int / int rounds correctly).  No closed form is reused, so
    disagreement with kernel_stats_closed flags an error in one of the two.
    """
    n, q, r = spec.n, 2 * spec.n + 1, 2 * spec.n - 1
    (a_num, a_den), (b_num, b_den) = spec.a.as_integer_ratio(), spec.b.as_integer_ratio()
    w_den = max(a_den, b_den)  # both are powers of two
    w_num = b_num * (w_den // b_den) - a_num * (w_den // a_den)
    t_num, t_den = spec.theta.as_integer_ratio()
    # D = 2 n w_den t_den keeps c(n-1)/n integral: (b - a)/2 = H/D, c = C/D
    d, h, c_left = 2 * n * w_den * t_den, n * w_num * t_den, t_num * n * n * w_num

    def primitive(u, c):  # D^(n+1) n (n+1) int_0^u p
        return u**n * (n * u - (n + 1) * c)

    def primitive_sq(u, c):  # D^q n q r int_0^u p^2
        return u**r * (n * r * u * u - q * r * c * u + n * q * c * c)

    integral, abs_integral, l2_sq, values = 0, 0, 0, []
    for c, lo, hi in ((c_left, 0, h), (-c_left, -h, 0)):
        cuts = [lo, c, hi] if lo < c < hi else [lo, hi]
        pieces = [primitive(right, c) - primitive(left, c) for left, right in zip(cuts, cuts[1:])]
        integral += sum(pieces)
        abs_integral += sum(map(abs, pieces))
        l2_sq += primitive_sq(hi, c) - primitive_sq(lo, c)
        values += [u ** (n - 1) * (u - c) for u in (lo, hi, c * (n - 1) // n) if lo <= u <= hi]

    fact = math.factorial(n)
    vol, point, sq = d ** (n + 1) * n * (n + 1) * fact, d**n * fact, d**q * n * q * r * fact**2
    mean = n * (n + 1) * 2 * h  # the mean of p is integral / (D^n mean)
    sup = max(map(abs, values)) / point
    centered = None if n % 2 else max(abs(v * mean - integral) for v in values) / (point * mean)
    sigma = (l2_sq * (n + 1) * mean - integral * integral * q * r) / (sq * (n + 1) * mean)
    return KernelStats(integral / vol, abs_integral / vol, sup, l2_sq / sq, centered, sigma)
