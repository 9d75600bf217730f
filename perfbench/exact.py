"""Exact reference integrals, independent of the package under test.

Every reference is a closed-form antiderivative evaluated with the standard
library only: ``fractions.Fraction`` for polynomials (exact) and ``decimal``
at WORKING_DIGITS for exp, sin(omega x) and 1/(1+x^2), whose results are
within 10**-EXACT_DIGITS of the truth, relative to the largest antiderivative
value involved.  Floats enter as the
exact dyadic rationals they are, so nothing here depends on libm or on the
package's Gauss-Legendre oracle.

Integrands are plain descriptors, the same ones the corpus hands out:
``("exp",)``, ``("sin", omega)``, ``("runge",)`` and ``("poly", coeffs)``.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction

#: Significant digits every reference is correct to.
EXACT_DIGITS = 40

#: Precision of the decimal arithmetic that produces them; the surplus over
#: EXACT_DIGITS absorbs the rounding of the series and of argument reduction.
WORKING_DIGITS = 50

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = Fraction(1, 2**53)

#: Safety factor of the roundoff allowance (see ``roundoff_allowance``).
ROUNDOFF_FACTOR = 64

_CTX = Context(prec=WORKING_DIGITS)


def _atan_series(x: Decimal) -> Decimal:
    """atan(x) for |x| <= 0.25 by its Taylor series."""
    eps = Decimal(10) ** -(WORKING_DIGITS + 2)
    term = x
    x2 = _CTX.multiply(x, x)
    total = Decimal(0)
    k = 0
    while abs(term) > eps:
        total = _CTX.add(total, _CTX.divide(term, 2 * k + 1))
        term = _CTX.minus(_CTX.multiply(term, x2))
        k += 1
    return total


def _machin_pi() -> Decimal:
    a = _atan_series(_CTX.divide(Decimal(1), 5))
    b = _atan_series(_CTX.divide(Decimal(1), 239))
    return _CTX.subtract(_CTX.multiply(16, a), _CTX.multiply(4, b))


PI = _machin_pi()


def atan(x: Decimal) -> Decimal:
    """Arc tangent at WORKING_DIGITS precision."""
    if x < 0:
        return _CTX.minus(atan(_CTX.minus(x)))
    if x > 1:
        return _CTX.subtract(_CTX.divide(PI, 2), atan(_CTX.divide(Decimal(1), x)))
    # Two half-angle steps, atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))),
    # bring the argument below tan(pi/16) ~ 0.199.
    for _ in range(2):
        x = _CTX.divide(x, _CTX.add(1, _CTX.sqrt(_CTX.add(1, _CTX.multiply(x, x)))))
    return _CTX.multiply(4, _atan_series(x))


def cos(x: Decimal) -> Decimal:
    """Cosine at WORKING_DIGITS precision, after reduction into [-pi, pi]."""
    two_pi = _CTX.multiply(2, PI)
    k = _CTX.to_integral_value(_CTX.divide(x, two_pi))
    r = _CTX.subtract(x, _CTX.multiply(k, two_pi))
    eps = Decimal(10) ** -(WORKING_DIGITS + 2)
    r2 = _CTX.multiply(r, r)
    term = Decimal(1)
    total = Decimal(0)
    i = 0
    while abs(term) > eps or i == 0:
        total = _CTX.add(total, term)
        term = _CTX.divide(_CTX.minus(_CTX.multiply(term, r2)), (2 * i + 1) * (2 * i + 2))
        i += 1
    return total


def integral(f: tuple, a: float, b: float) -> Fraction:
    """int_a^b f: exact for polynomials, else to EXACT_DIGITS digits."""
    kind = f[0]
    if kind == "poly":
        fa, fb = Fraction(a), Fraction(b)
        return sum(
            (Fraction(c) * (fb ** (j + 1) - fa ** (j + 1)) / (j + 1) for j, c in enumerate(f[1])),
            Fraction(0),
        )
    da, db = Decimal(a), Decimal(b)
    if kind == "exp":
        value = _CTX.subtract(_CTX.exp(db), _CTX.exp(da))
    elif kind == "sin":
        w = Decimal(f[1])
        value = _CTX.divide(
            _CTX.subtract(cos(_CTX.multiply(w, da)), cos(_CTX.multiply(w, db))), w
        )
    elif kind == "runge":
        value = _CTX.subtract(atan(db), atan(da))
    else:
        raise ValueError(f"unknown integrand descriptor {f!r}")
    return Fraction(value)


def derivative_sup(f: tuple, order: int, a: float, b: float) -> float:
    """An upper bound on sup |f^(order)| over [a, b], from the closed forms."""
    kind = f[0]
    if kind == "exp":
        return math.exp(max(a, b))
    if kind == "sin":
        return float(f[1]) ** order
    if kind == "runge":
        # f^(k)(cot t) = (-1)^k k! sin^(k+1)(t) sin((k+1) t), so |f^(k)| <= k!.
        return float(math.factorial(order))
    if kind == "poly":
        r = max(abs(a), abs(b))
        return sum(
            abs(c) * math.perm(j, order) * r ** (j - order)
            for j, c in enumerate(f[1])
            if j >= order
        )
    raise ValueError(f"unknown integrand descriptor {f!r}")


def roundoff_allowance(f: tuple, n: int, a: float, b: float, panels: int) -> Fraction:
    """How far roundoff alone may move a composite rule value on [a, b].

    Per panel of width w the rule evaluates f at three rounded nodes, blends
    them with a handful of roundings, adds floor((n-1)/2) midpoint
    corrections and, for even n, the endpoint-difference perturbation whose
    f^(n-1)(b) - f^(n-1)(a) cancels.  With libm accurate to about one ulp,
    each contribution is a small multiple of u times

      w (M0 + R M1)                          base value, node rounding
      w^(2i+1)/((2i+1)! 4^i) (M2i + R M2i+1)  i-th correction
      w^n/(n! 2^n) 2 M(n-1)                  perturbation (even n)

    where Mk bounds |f^(k)| and R = max(|a|, |b|).  The panel sum is rounded
    once more by math.fsum.  ROUNDOFF_FACTOR = 64 covers the multiples with
    room to spare; an error beyond budget + allowance is a failed op, while
    cert_violations counts every error beyond the budget alone.
    """
    w = (b - a) / panels
    r = max(abs(a), abs(b))
    per_panel = w * (derivative_sup(f, 0, a, b) + r * derivative_sup(f, 1, a, b))
    for i in range(1, (n - 1) // 2 + 1):
        k = 2 * i + 1
        scale = w**k / (math.factorial(k) * 4.0**i)
        per_panel += scale * (
            derivative_sup(f, 2 * i, a, b) + r * derivative_sup(f, 2 * i + 1, a, b)
        )
    if n % 2 == 0:
        per_panel += w**n / (math.factorial(n) * 2.0**n) * 2.0 * derivative_sup(f, n - 1, a, b)
    return ROUNDOFF_FACTOR * UNIT_ROUNDOFF * Fraction(panels * per_panel)
