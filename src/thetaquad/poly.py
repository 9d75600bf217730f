"""Piecewise polynomials for float evaluation, and the real roots of a polynomial.

A piecewise polynomial is stored as a strictly increasing breakpoint grid
``t_0 < t_1 < ... < t_N`` together with one coefficient tuple per interval.
Coefficients are ascending monomial coefficients *centred at the left
endpoint* of their segment: on ``[t_i, t_{i+1}]`` the value at ``x`` is
``sum(c_k * (x - t_i)**k)``.  Per-segment centring keeps the coefficients of
narrow or far-from-origin segments well conditioned.

At an interior breakpoint the right-hand segment wins; the final breakpoint
belongs to the last segment; the extremal integrand is built exactly in
``integrate`` and rounded into this form once.  ``real_roots`` finds the
sign changes of one polynomial by a loop down its derivative chain, with no
probe grid and no tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError, ValidationError

__all__ = ["PiecewisePolynomial", "real_roots"]


def domain_slack(lo: float, hi: float) -> float:
    """Floating tolerance by which evaluations may overshoot [lo, hi]."""
    return 1e-12 * max(1.0, abs(lo), abs(hi), hi - lo)


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _derivative_coeffs(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    if len(coeffs) <= 1:
        return (0.0,)
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


def _antiderivative_coeffs(coeffs, constant):
    """Antiderivative equal to ``constant`` at 0; zero coefficients skip the division."""
    return [constant] + [c / (k + 1) if c else c for k, c in enumerate(coeffs)]


def _taylor_shift(coeffs, a: float) -> list[float]:
    """Ascending coefficients of p(u + a) in u, where ``coeffs`` are p's."""
    shifted = list(coeffs)
    for i in range(len(shifted)):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += a * shifted[j + 1]
    return shifted


def _integral_on(coeffs: tuple[float, ...], u0: float, u1: float) -> float:
    """Integral of the local polynomial over local coordinates [u0, u1]."""
    anti = _antiderivative_coeffs(coeffs, 0.0)
    return _horner(anti, u1) - _horner(anti, u0)


def _poly_mul(p, q) -> list:
    """Ascending coefficients of p * q, summed from integer 0 over the nonzero
    factors, so int and Fraction products stay exact."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                if qj:
                    out[i + j] += pi * qj
    return out


def _crossing(coeffs: tuple[float, ...], left: float, right: float, left_negative: bool) -> float:
    """The sign change of p inside (left, right), bisected to adjacent floats."""
    while True:
        mid = 0.5 * (left + right)
        if not left < mid < right:
            return left
        value = _horner(coeffs, mid)
        if value == 0.0:
            return mid
        if (value < 0.0) == left_negative:
            left = mid
        else:
            right = mid


def _derivative_chain(coeffs) -> tuple[tuple[float, ...], ...]:
    """p, p', p'', ... down to the first constant derivative."""
    chain = [tuple(coeffs)]
    while len(chain[-1]) > 1:
        chain.append(_derivative_coeffs(chain[-1]))
    return tuple(chain)


def real_roots(coeffs: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Roots of ``sum(c_k * u**k)`` inside (lo, hi), ascending.

    A loop down the derivative chain, from the constant highest derivative
    to p itself: the sign changes of p^(k+1) cut [lo, hi] into pieces on
    which p^(k) is monotone.  A cut where p^(k) evaluates to exactly 0 is a
    root; otherwise a piece holds at most one crossing, which one sign test
    finds and bisection narrows to adjacent floats.  Roots at ``lo`` or
    ``hi`` are not reported, nor are touching roots that round to nonzero
    values: callers split |p| into one-signed pieces or list extremum
    candidates, and neither needs them.
    """
    return _chain_roots(_derivative_chain(coeffs), lo, hi)[1]


def _chain_roots(chain, lo: float, hi: float) -> tuple[list[float], list[float]]:
    """(roots of p', roots of p) for the chain of p: the last two steps of the walk."""
    stationary: list[float] = []
    roots: list[float] = []
    for p in reversed(chain[:-1]):
        stationary, cuts = roots, [lo, *roots, hi]
        values = [_horner(p, u) for u in cuts]
        roots = []
        for k, (left, right) in enumerate(zip(cuts, cuts[1:])):
            f_left, f_right = values[k], values[k + 1]
            if k > 0 and f_left == 0.0:
                roots.append(left)
            elif f_left < 0.0 < f_right or f_right < 0.0 < f_left:
                roots.append(_crossing(p, left, right, f_left < 0.0))
    return stationary, roots


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial segments on a shared breakpoint grid.

    Parameters
    ----------
    breakpoints : tuple of float
        Strictly increasing grid ``t_0 < ... < t_N`` with ``N >= 1``.
    segments : tuple of tuple of float
        One ascending coefficient tuple per interval, centred at that
        interval's left endpoint.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        segs = tuple(tuple(float(c) for c in seg) for seg in self.segments)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "segments", segs)
        if len(bp) < 2:
            raise ValidationError("need at least two breakpoints")
        if any(not math.isfinite(t) for t in bp):
            raise ValidationError("breakpoints must be finite")
        if any(t1 <= t0 for t0, t1 in zip(bp, bp[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if len(segs) != len(bp) - 1:
            raise ValidationError(
                f"expected {len(bp) - 1} segments, got {len(segs)}"
            )
        if any(len(seg) == 0 for seg in segs):
            raise ValidationError("each segment needs at least one coefficient")
        if any(not math.isfinite(c) for seg in segs for c in seg):
            raise ValidationError("coefficients must be finite")

    # -- basic queries -----------------------------------------------------

    @property
    def domain(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    def _segment_index(self, x: float) -> int:
        idx = bisect_right(self.breakpoints, x) - 1
        return min(max(idx, 0), len(self.segments) - 1)

    def eval(self, x: float) -> float:
        """Value at ``x``; raises DomainError outside the breakpoint span."""
        lo, hi = self.domain
        slack = domain_slack(lo, hi)
        if x < lo - slack or x > hi + slack:
            raise DomainError(f"x={x!r} outside domain [{lo!r}, {hi!r}]")
        x = min(max(x, lo), hi)
        idx = self._segment_index(x)
        return _horner(self.segments[idx], x - self.breakpoints[idx])
