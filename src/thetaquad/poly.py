"""Exact piecewise-polynomial arithmetic.

A piecewise polynomial is stored as a strictly increasing breakpoint grid
``t_0 < t_1 < ... < t_N`` together with one coefficient tuple per interval.
Coefficients are ascending monomial coefficients *centred at the left
endpoint* of their segment: on ``[t_i, t_{i+1}]`` the value at ``x`` is
``sum(c_k * (x - t_i)**k)``.  Per-segment centring keeps the coefficients of
narrow or far-from-origin segments well conditioned.

At an interior breakpoint the right-hand segment wins; the final breakpoint
belongs to the last segment.  All integration is closed-form monomial
integration accumulated with compensated summation; nothing here is sampled
except the deterministic sign-change bisection used to split ``|p|`` into
one-signed pieces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError, ValidationError

__all__ = ["PiecewisePolynomial", "NormStats"]

#: Width below which sign-change bisection stops refining a root bracket.
ROOT_TOLERANCE = 1e-14

#: Number of initial probe cells per segment when isolating sign changes.
ROOT_GRID = 64


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


def _antiderivative_coeffs(coeffs: tuple[float, ...], constant: float) -> tuple[float, ...]:
    return (constant,) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


def _integral_on(coeffs: tuple[float, ...], u0: float, u1: float) -> float:
    """Integral of the local polynomial over local coordinates [u0, u1]."""
    anti = _antiderivative_coeffs(coeffs, 0.0)
    return _horner(anti, u1) - _horner(anti, u0)


def _square_coeffs(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * (2 * len(coeffs) - 1)
    for i, ci in enumerate(coeffs):
        if ci == 0.0:
            continue
        for j, cj in enumerate(coeffs):
            out[i + j] += ci * cj
    return tuple(out)


def _bisect_sign_change(
    coeffs: tuple[float, ...], lo: float, hi: float, flo: float
) -> float:
    """Shrink a sign-change bracket to ROOT_TOLERANCE width or to adjacent floats."""
    while hi - lo > ROOT_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = _horner(coeffs, mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _root_toward_zero(
    coeffs: tuple[float, ...], far: float, ffar: float, zero: float
) -> float | None:
    """A root between ``far`` and a probe ``zero`` where p vanishes, or None.

    Steps toward ``zero``, cutting the distance 256-fold each time, until p
    vanishes or changes sign against ``ffar``, then bisects that bracket.  A
    crossing within ROOT_TOLERANCE of ``zero`` is not told apart from it.
    """
    x = far
    while abs(x - zero) > ROOT_TOLERANCE:
        nxt = zero + (x - zero) / 256.0
        if nxt in (x, zero):
            break
        v = _horner(coeffs, nxt)
        if v == 0.0:
            return nxt
        if (v < 0.0) != (ffar < 0.0):
            lo, hi = sorted((x, nxt))
            return _bisect_sign_change(coeffs, lo, hi, _horner(coeffs, lo))
        x = nxt
    return None


def _sign_change_roots(coeffs: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Locate roots of the local polynomial in [lo, hi] by grid + bisection.

    Deterministic: a fixed ROOT_GRID-cell probe grid, bisection on every sign
    change.  A probe where p is exactly 0 is a root, and each cell next to it
    is searched from its other end toward that probe, so a crossing between
    the two is not lost.  Roots that touch zero without crossing are not
    reported; callers only use the result to split integrals or enumerate
    extremum candidates, and both uses stay correct when a non-crossing root
    is skipped.
    """
    if hi <= lo:
        return []
    xs = [lo + (hi - lo) * i / ROOT_GRID for i in range(ROOT_GRID + 1)]
    vals = [_horner(coeffs, x) for x in xs]
    roots: list[float] = []
    for i in range(ROOT_GRID):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(xs[i])
            if v1 != 0.0:
                roots.append(_root_toward_zero(coeffs, xs[i + 1], v1, xs[i]))
        elif v1 == 0.0:
            roots.append(_root_toward_zero(coeffs, xs[i], v0, xs[i + 1]))
        elif (v0 < 0.0) != (v1 < 0.0):
            roots.append(_bisect_sign_change(coeffs, xs[i], xs[i + 1], v0))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return [r for r in roots if r is not None]


@dataclass(frozen=True)
class NormStats:
    """Exact norm data of a piecewise polynomial over a subinterval.

    l1 is the integral of |p|, max_abs the sup norm, l2_sq the integral of
    p**2 (kept squared so no precision is thrown away in a square root).
    """

    l1: float
    max_abs: float
    l2_sq: float


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

    def __call__(self, x: float) -> float:
        return self.eval(x)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> PiecewisePolynomial:
        """Segment-wise derivative on the same grid."""
        return PiecewisePolynomial(
            self.breakpoints,
            tuple(_derivative_coeffs(seg) for seg in self.segments),
        )

    def antiderivative(self, left_value: float = 0.0) -> PiecewisePolynomial:
        """Antiderivative, continuous across breakpoints.

        The constant of each segment is chosen so the result is C^0: the
        first segment starts at ``left_value`` and every later segment starts
        where its predecessor ended.
        """
        if not math.isfinite(left_value):
            raise ValidationError("left_value must be finite")
        running = float(left_value)
        out: list[tuple[float, ...]] = []
        for i, seg in enumerate(self.segments):
            anti = _antiderivative_coeffs(seg, running)
            out.append(anti)
            width = self.breakpoints[i + 1] - self.breakpoints[i]
            running = _horner(anti, width)
        return PiecewisePolynomial(self.breakpoints, tuple(out))

    def add_constant(self, c: float) -> PiecewisePolynomial:
        """The function ``p + c`` on the same grid."""
        if not math.isfinite(c):
            raise ValidationError("constant must be finite")
        return PiecewisePolynomial(
            self.breakpoints,
            tuple((seg[0] + c,) + seg[1:] for seg in self.segments),
        )

    # -- integration and norms ---------------------------------------------

    def _clip_range(self, a: float, b: float) -> tuple[float, float]:
        lo, hi = self.domain
        slack = domain_slack(lo, hi)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("integration bounds must be finite")
        if b < a:
            raise ValidationError(f"need a <= b, got a={a!r}, b={b!r}")
        if a < lo - slack or b > hi + slack:
            raise DomainError(
                f"[{a!r}, {b!r}] not contained in domain [{lo!r}, {hi!r}]"
            )
        return max(a, lo), min(b, hi)

    def _overlaps(self, a: float, b: float):
        """Yield (segment index, local lo, local hi) covering [a, b]."""
        for i, seg in enumerate(self.segments):
            t0, t1 = self.breakpoints[i], self.breakpoints[i + 1]
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                yield i, lo - t0, hi - t0

    def definite_integral(self, a: float, b: float) -> float:
        """Exact integral of p over [a, b] (compensated across segments)."""
        a, b = self._clip_range(a, b)
        return math.fsum(
            _integral_on(self.segments[i], u0, u1) for i, u0, u1 in self._overlaps(a, b)
        )

    def norm_stats(self, a: float, b: float) -> NormStats:
        """l1, sup and squared-l2 norms of p over [a, b].

        l1 splits each segment at sign changes of p located by deterministic
        bisection so every piece is integrated with a fixed sign; max_abs
        evaluates |p| at segment ends and at stationary points of p.
        """
        a, b = self._clip_range(a, b)
        l1_parts: list[float] = []
        l2_parts: list[float] = []
        max_abs = 0.0
        for i, u0, u1 in self._overlaps(a, b):
            seg = self.segments[i]
            l2_parts.append(_integral_on(_square_coeffs(seg), u0, u1))

            cuts = sorted({u0, u1, *(r for r in _sign_change_roots(seg, u0, u1))})
            for left, right in zip(cuts, cuts[1:]):
                l1_parts.append(abs(_integral_on(seg, left, right)))

            stationary = _sign_change_roots(_derivative_coeffs(seg), u0, u1)
            for u in (u0, u1, *stationary):
                max_abs = max(max_abs, abs(_horner(seg, u)))
        return NormStats(l1=math.fsum(l1_parts), max_abs=max_abs, l2_sq=math.fsum(l2_parts))

    def extrema(self, a: float, b: float) -> tuple[float, float]:
        """Signed (min, max) of p over [a, b], same candidates as norm_stats."""
        a, b = self._clip_range(a, b)
        lo = math.inf
        hi = -math.inf
        for i, u0, u1 in self._overlaps(a, b):
            seg = self.segments[i]
            stationary = _sign_change_roots(_derivative_coeffs(seg), u0, u1)
            for u in (u0, u1, *stationary):
                v = _horner(seg, u)
                lo = min(lo, v)
                hi = max(hi, v)
        if lo is math.inf:  # degenerate a == b
            v = self.eval(a)
            lo = hi = v
        return lo, hi
