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

from .bounds import DerivativeBand, NormData
from .errors import ValidationError, check_int, check_interval
from .poly import _chain_roots, _derivative_chain, _horner, _integral_on, _square_coeffs
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


class AnalyticFunction:
    """Shared assembly of exact norm data from per-function primitives.

    Subclasses provide ``derivative``, the interior stationary points and
    zeros of a given derivative order (one call, so that both can come from
    one computation), and the closed-form squared l2 norm;
    everything else (band via candidate evaluation, l1 via splitting at
    zeros and differencing the antiderivative, sigma via the mean rate)
    is generic.
    """

    name = "?"

    def derivative(self, order: int, x: float) -> float:
        raise NotImplementedError

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        """Interior stationary points and interior zeros of f^(order) on (a, b)."""
        raise NotImplementedError

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        raise NotImplementedError

    # -- generic assembly --------------------------------------------------

    def integrand(self, a: float, b: float) -> Integrand:
        a, b = check_interval(a, b)
        return Integrand(derivative_fn=self.derivative, domain=(a, b))

    def band(self, order: int, a: float, b: float) -> DerivativeBand:
        check_int("derivative order", order, 1)
        a, b = check_interval(a, b)
        return self._band(order, a, b, self._critical_points(order, a, b)[0])

    def _band(self, order: int, a: float, b: float, stationary: list) -> DerivativeBand:
        values = [self.derivative(order, x) for x in (a, b, *stationary)]
        return DerivativeBand(gamma=min(values), Gamma=max(values), order=order)

    def endpoint_diff_rate(self, order: int, a: float, b: float) -> float:
        check_int("derivative order", order, 1)
        a, b = check_interval(a, b)
        return _mean_rate(self.derivative, order, a, b)

    def norm_data(self, order: int, a: float, b: float) -> NormData:
        check_int("derivative order", order, 1)
        a, b = check_interval(a, b)
        stationary, zeros = self._critical_points(order, a, b)
        band = self._band(order, a, b, stationary)
        linf = max(abs(band.gamma), abs(band.Gamma))

        cuts = sorted({a, b, *zeros})
        l1 = math.fsum(
            abs(self.derivative(order - 1, right) - self.derivative(order - 1, left))
            for left, right in zip(cuts, cuts[1:])
        )
        l2_sq = self._l2_sq(order, a, b)
        rate = self.endpoint_diff_rate(order, a, b)
        return NormData(
            l1=l1,
            l2=math.sqrt(max(l2_sq, 0.0)),
            linf=linf,
            endpoint_diff_rate=rate,
            sigma=max(l2_sq - rate * rate * (b - a), 0.0),
            provenance="exact",
        )


class Exponential(AnalyticFunction):
    """f(x) = exp(x); every derivative is exp itself."""

    name = "exp"

    def derivative(self, order: int, x: float) -> float:
        return math.exp(x)

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

    def derivative(self, order: int, x: float) -> float:
        return self.omega**order * math.sin(self.omega * x + order * math.pi / 2.0)

    def _phase_grid(self, phase: float, a: float, b: float) -> list[float]:
        """Solutions of omega x + phase = j pi strictly inside (a, b)."""
        w = self.omega
        j_lo = math.floor((w * a + phase) / math.pi) - 1
        j_hi = math.ceil((w * b + phase) / math.pi) + 1
        points = []
        for j in range(j_lo, j_hi + 1):
            x = (j * math.pi - phase) / w
            if a < x < b:
                points.append(x)
        return points

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

    @staticmethod
    def _t(x: float) -> float:
        return math.atan2(1.0, x)

    def derivative(self, order: int, x: float) -> float:
        t = self._t(x)
        return (
            (-1.0) ** order
            * math.factorial(order)
            * math.sin(t) ** (order + 1)
            * math.sin((order + 1) * t)
        )

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
        conv = [0] * (len(poly_a) + len(poly_b) - 1)
        for i, ai in enumerate(poly_a):
            if ai:
                for j, bj in enumerate(poly_b):
                    if bj:
                        conv[i + j] += ai * bj
        center = 2 * k + 1
        t_hi, t_lo = self._t(a), self._t(b)  # t decreases in x
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

    def derivative(self, order: int, x: float) -> float:
        return _horner(self._coeffs_of_order(order), x)

    def _critical_points(self, order: int, a: float, b: float) -> tuple[list, list]:
        return _chain_roots(self._chain[order:], a, b)

    def _l2_sq(self, order: int, a: float, b: float) -> float:
        # Taylor-shift to the left endpoint, so the integral runs over [0, b - a]
        # and does not cancel between two large antiderivative values.
        shifted = list(self._coeffs_of_order(order))
        for i in range(len(shifted)):
            for j in range(len(shifted) - 2, i - 1, -1):
                shifted[j] += a * shifted[j + 1]
        return _integral_on(_square_coeffs(tuple(shifted)), 0.0, b - a)


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
