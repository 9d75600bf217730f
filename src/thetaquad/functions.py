"""Builtin integrands with exact derivative closures and exact norm metadata.

Each builtin can evaluate every derivative order in closed form and knows its
own norms (l1, l2, sup), band and mean rate for any derivative order on any
interval — also in closed form, so the certificates the CLI emits for them
are rigorous.  The trick everywhere is that extrema and sign changes of the
relevant derivative have enumerable closed-form locations:

* exp'(k) is exp: monotone, no interior candidates.
* sin(w x): derivatives are shifted sines; zeros and peaks sit on an
  arithmetic grid.
* 1/(1+x^2): with x = cot(t) the k-th derivative is
  (-1)^k k! sin^(k+1)(t) sin((k+1) t), whose zeros and stationary points are
  cot(j pi / (k+1)) and cot(j pi / (k+2)); the squared derivative integrates
  in closed form as a finite cosine series in t with integer coefficients.
* polynomials: zeros and stationary points are the sign changes of the
  relevant derivative, found by ``poly.real_roots``; the squared derivative
  integrates term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from .bounds import DerivativeBand, NormData
from .errors import ValidationError, check_int, check_interval
from .kernel import _Memo
from .poly import (
    _chain_roots, _derivative_chain, _horner, _integral_on, _poly_mul, _taylor_shift,
)
from .rules import Integrand, _mean_rate

__all__ = [
    "AnalyticFunction",
    "Exponential",
    "Sine",
    "Runge",
    "PolynomialFunction",
    "BUILTIN_NAMES",
    "parse_function",
]

_PHASE_GRID_LIMIT = 2**20  # most multiples of pi Sine lists for one interval


class AnalyticFunction:
    """Shared assembly of exact norm data from per-function primitives.

    Subclasses provide ``_formula``, f^(order) in column form (a list of
    points to the list of its values) with its per-order constants formed
    once.  ``derivatives`` returns that column, and ``derivative`` reads a
    column of one point; an OverflowError from either names the function,
    the order and the range of points.  Subclasses also provide the interior
    stationary points and zeros of a given derivative order (one call, so
    that both can come from one computation), and the closed-form squared
    l2 norm; everything else (band via candidate evaluation, l1 via
    splitting at zeros and differencing the antiderivative, sigma via the
    mean rate) is generic.
    """

    name = "?"

    def _formula(self, order: int) -> Callable[[list], list]:
        raise NotImplementedError

    @cached_property
    def _formulas(self) -> _Memo:
        """_formula(order) for each order read, formed on its first read."""
        return _Memo(self._formula)

    def derivative(self, order: int, x: float) -> float:
        return self.derivatives(order, [x])[0]

    def derivatives(self, order: int, xs: list) -> list:
        try:
            return self._formulas[order](xs)
        except OverflowError as error:
            raise OverflowError(f"{self.name}: derivative of order {order} overflows a float "
                                f"on [{min(xs)!r}, {max(xs)!r}]") from error

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        """Interior stationary points and interior zeros of f^(order) on (a, b)."""
        raise NotImplementedError

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        raise NotImplementedError

    def _primitive(self, order: int, a: float) -> Callable[[list], list]:
        """f^(order-1) up to a constant on [a, ...], in column form; l1 sums
        its differences."""
        return partial(self.derivatives, order - 1)

    def _rate(self, order: int, a: float, b: float, at_cuts: list) -> float:
        """The mean rate of f^(order) on [a, b] from the ``_primitive`` column
        at a, the zeros and b: where that column is f^(order-1) itself, its
        ends give ``_mean_rate``'s operation on the same values."""
        return (at_cuts[-1] - at_cuts[0]) / (b - a)

    # -- generic assembly --------------------------------------------------

    def integrand(self, a: float, b: float) -> Integrand:
        a, b = check_interval(a, b)
        return Integrand(self.derivative, (a, b), derivatives_fn=self.derivatives)

    def band(self, order: int, a: float, b: float) -> DerivativeBand:
        check_int("derivative order", order, 1)
        a, b = check_interval(a, b)
        return self._band(order, a, b, self._critical_points(order, a, b)[0])

    def _band(self, order: int, a: float, b: float, stationary: list) -> DerivativeBand:
        values = self.derivatives(order, [a, b, *stationary])
        return DerivativeBand(gamma=min(values), Gamma=max(values), order=order)

    def endpoint_diff_rate(self, order: int, a: float, b: float) -> float:
        check_int("derivative order", order, 1)
        a, b = check_interval(a, b)
        return _mean_rate(self.derivatives, order, a, b)

    def norm_data(self, order: int, a: float, b: float) -> NormData:
        """The exact norms of f^(order) on [a, b]; l2 and sigma None where not
        finite.  l1 reads one ``_primitive`` column, at a, b and the zeros,
        and the mean rate comes from its ends (``_rate``)."""
        check_int("derivative order", order, 1)
        a, b = check_interval(a, b)
        stationary, zeros = self._critical_points(order, a, b)
        band = self._band(order, a, b, stationary)
        linf = max(abs(band.gamma), abs(band.Gamma))

        at_cuts = self._primitive(order, a)(sorted({a, b, *zeros}))
        l1 = math.fsum(abs(right - left) for left, right in zip(at_cuts, at_cuts[1:]))
        l2_sq = self._l2_sq(order, a, b)
        rate = self._rate(order, a, b, at_cuts)
        sigma = l2_sq - rate * rate * (b - a)
        return NormData(
            l1=l1,
            l2=math.sqrt(max(l2_sq, 0.0)) if math.isfinite(l2_sq) else None,
            linf=linf,
            endpoint_diff_rate=rate,
            sigma=max(sigma, 0.0) if math.isfinite(sigma) else None,
            provenance="exact",
        )


class Exponential(AnalyticFunction):
    """f(x) = exp(x); every derivative is exp itself."""

    name = "exp"

    def _formula(self, order: int) -> Callable[[list], list]:
        exp = math.exp
        return lambda xs: list(map(exp, xs))

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        return [], []

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        return 0.5 * (math.exp(2.0 * b) - math.exp(2.0 * a))


@dataclass(frozen=True)
class Sine(AnalyticFunction):
    """f(x) = sin(omega x); f^(k)(x) = omega^k sin(omega x + k pi/2)."""

    omega: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega) or self.omega <= 0.0:
            raise ValidationError(f"omega must be positive, got {self.omega!r}")

    @property
    def name(self) -> str:  # type: ignore[override]
        return "sin" if self.omega == 1.0 else f"sin({self.omega:g}x)"

    def _formula(self, order: int) -> Callable[[list], list]:
        w, sin = self.omega, math.sin
        scale, phase = w**order, order * math.pi / 2.0
        return lambda xs: [scale * sin(w * x + phase) for x in xs]

    def _phase_grid(self, phase: float, a: float, b: float) -> list[float]:
        """Solutions of omega x + phase = j pi strictly inside (a, b)."""
        w = self.omega
        j_lo = math.floor((w * a + phase) / math.pi) - 1
        j_hi = math.ceil((w * b + phase) / math.pi) + 1
        if j_hi - j_lo >= _PHASE_GRID_LIMIT:
            raise ValidationError(f"sin with omega={w!r} on [{a!r}, {b!r}] lists "
                                  f"more than {_PHASE_GRID_LIMIT} multiples of pi")
        points = ((j * math.pi - phase) / w for j in range(j_lo, j_hi + 1))
        return [x for x in points if a < x < b]

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        stationary = self._phase_grid((order + 1) * math.pi / 2.0, a, b)
        return stationary, self._phase_grid(order * math.pi / 2.0, a, b)

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        # int sin^2(w x + phi) = (b-a)/2 - [sin(2 w x + 2 phi)]_a^b / (4 w)
        w = self.omega
        phi = order * math.pi / 2.0
        osc = math.sin(2.0 * w * b + 2.0 * phi) - math.sin(2.0 * w * a + 2.0 * phi)
        return w ** (2 * order) * (0.5 * (b - a) - osc / (4.0 * w))


class Runge(AnalyticFunction):
    """f(x) = 1/(1 + x^2).

    Substituting x = cot(t), t = arccot(x) in (0, pi), gives
    f^(k)(x) = (-1)^k k! sin^(k+1)(t) sin((k+1) t).
    """

    name = "runge"

    def _formula(self, order: int) -> Callable[[list], list]:
        scale, m = (-1.0) ** order * math.factorial(order), order + 1
        sin, atan2 = math.sin, math.atan2  # t = arccot(x) = atan2(1.0, x)
        return lambda xs: [scale * sin(t) ** m * sin(m * t) for x in xs for t in [atan2(1.0, x)]]

    @staticmethod
    def _cot_grid(parts: int, a: float, b: float) -> list[float]:
        """cot(j pi / parts) for j = 1..parts-1, restricted to (a, b)."""
        points = []
        for j in range(1, parts):
            x = 1.0 / math.tan(j * math.pi / parts)
            if a < x < b:
                points.append(x)
        return points

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        return self._cot_grid(order + 2, a, b), self._cot_grid(order + 1, a, b)

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        # int (f^(k))^2 dx = (k!)^2 int_{t(b)}^{t(a)} sin^(2k)(t) sin^2((k+1)t) dt,
        # and the trig product expands into an integer cosine series via
        # z = exp(i t):  sin^(2k)(t) sin^2((k+1)t)
        #   = (z^2-1)^(2k) (z^(2k+2)-1)^2 / ((-4)^(k+1) z^(4k+2)).
        k = order
        poly_a = [(-1) ** i * math.comb(2 * k, i) for i in range(2 * k + 1)]
        poly_b = [0] * (2 * k + 3)
        poly_b[0] = 1
        poly_b[k + 1] = -2
        poly_b[2 * k + 2] = 1
        conv = _poly_mul(poly_a, poly_b)
        center = 2 * k + 1
        t_hi, t_lo = math.atan2(1.0, a), math.atan2(1.0, b)  # t decreases in x
        total = conv[center] * (t_hi - t_lo)
        for d in range(1, center + 1):
            coeff = conv[center + d]
            if coeff:
                total += coeff * (math.sin(2 * d * t_hi) - math.sin(2 * d * t_lo)) / d
        scale = math.factorial(k) ** 2 / (-4.0) ** (k + 1)
        return scale * total


@dataclass(frozen=True)
class PolynomialFunction(AnalyticFunction):
    """A global polynomial sum(c_j x^j) given by ascending coefficients.

    The derivative chain is built once.  Zeros and stationary points of
    each derivative come from one walk down it (``poly.real_roots``); band
    and norms from the shared assembly.
    """

    coefficients: tuple[float, ...]
    _chain: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise ValidationError("polynomial needs at least one coefficient")
        if any(not math.isfinite(c) for c in coeffs):
            raise ValidationError("polynomial coefficients must be finite")
        object.__setattr__(self, "_chain", _derivative_chain(coeffs))

    @property
    def name(self) -> str:  # type: ignore[override]
        return "poly:" + ",".join(repr(c) for c in self.coefficients)

    def _coeffs_of_order(self, order: int) -> tuple[float, ...]:
        return self._chain[order] if order < len(self._chain) else (0.0,)

    def _formula(self, order: int) -> Callable[[list], list]:
        descending = self._coeffs_of_order(order)[::-1]

        def column(xs: list) -> list:  # poly._horner at each x: its operations, from acc = 0.0
            values = []
            for x in xs:
                acc = 0.0
                for c in descending:
                    acc = acc * x + c
                values.append(acc)
            return values

        return column

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        return _chain_roots(self._chain[order:], a, b)

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        # Taylor-shift to the left endpoint, so the integral runs over [0, b - a]
        # and does not cancel between two large antiderivative values.
        shifted = _taylor_shift(self._coeffs_of_order(order), a)
        return _integral_on(_poly_mul(shifted, shifted), 0.0, b - a)

    def _primitive(self, order: int, a: float):
        # f^(order-1) Taylor-shifted to a, less its value there, so the l1
        # differences do not cancel between two large values far from 0.
        shifted = _taylor_shift(self._coeffs_of_order(order - 1), a)
        shifted[0] = 0.0
        return lambda xs: [_horner(shifted, x - a) for x in xs]

    def _rate(self, order: int, a: float, b: float, at_cuts: list) -> float:
        # the shifted column's ends differ from f^(order-1)'s, so the rate reads its own
        return self.endpoint_diff_rate(order, a, b)


BUILTIN_NAMES = ("exp", "sin", "runge", "poly:c0,c1,...")


def parse_function(text: str) -> AnalyticFunction:
    """CLI integrand parser: exp | sin | runge | poly:c0,c1,..."""
    if text == "exp":
        return Exponential()
    if text == "sin":
        return Sine(1.0)
    if text == "runge":
        return Runge()
    if text.startswith("poly:"):
        body = text[len("poly:") :]
        try:
            coeffs = tuple(float(part) for part in body.split(","))
        except ValueError:
            raise ValidationError(
                f"could not parse polynomial coefficients from {body!r}"
            ) from None
        return PolynomialFunction(coeffs)
    raise ValidationError(
        f"unknown integrand {text!r}; expected one of: " + ", ".join(BUILTIN_NAMES)
    )
