"""A-priori error certificates for the blended rules.

Every bound here is a closed form in (theta, n, b - a) times a norm or band
datum about f^(n) that the caller supplies; certificates never measure the
integrand themselves.  The provenance of the supplied data flows into the
certificate's rigor flag, so sampled guesses cannot masquerade as proof.

Certificate kinds and what they certify:

==================  =============================================  =========
kind                inequality certified                           parity
==================  =============================================  =========
L1                  |I - F_n| <= max|K| * ||f^(n)||_1              any n
L2                  |I - F_n| <= ||K||_2 * ||f^(n)||_2             any n
Linf                |I - F_n| <= int|K| * ||f^(n)||_inf            any n
BandOdd             |I - F_n| from gamma <= f^(n) <= Gamma         odd n
OneSidedOdd         |I - F_n| from a single band edge + the
                    endpoint difference rate of f^(n-1)            odd n
PerturbedEven       |I - F_n - perturbation| likewise              even n
SharpOdd/SharpEven  best-constant bound via sigma(f^(n))           by parity
==================  =============================================  =========

F_n is the corrected rule value; I the true integral; sigma(g) the squared
l2 norm of g minus (b-a) times its squared mean.  A one-sided certificate
records its side in its half-infinite band: a finite gamma is the lower edge,
a finite Gamma the upper one.  ``certify`` builds any of them from a
certificate name in CERTIFICATES.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ValidationError, check_int
from .kernel import (
    RuleSpec,
    closed_abs_integral,
    closed_centered_l2_sq,
    closed_l2_sq,
    closed_max_abs,
    kernel_centered_max_closed,
)

__all__ = [
    "PROVENANCES",
    "NormData",
    "DerivativeBand",
    "CertificateKind",
    "ErrorCertificate",
    "bound_l1",
    "bound_l2",
    "bound_linf",
    "bound_band_odd",
    "bound_one_sided_odd",
    "bound_perturbed_even",
    "bound_sharp",
    "CERTIFICATES",
    "certify",
]

#: How a norm datum was obtained.  Only "sampled-heuristic" downgrades rigor.
PROVENANCES = ("exact", "user-supplied", "sampled-heuristic")


@dataclass(frozen=True)
class NormData:
    """Norm data about one derivative of the integrand.

    All fields are optional; a bound op only reads the one it needs.
    endpoint_diff_rate is (f^(n-1)(b) - f^(n-1)(a)) / (b - a), i.e. the mean
    of f^(n), and is the only field allowed to be negative.
    """

    l1: float | None = None
    l2: float | None = None
    linf: float | None = None
    endpoint_diff_rate: float | None = None
    sigma: float | None = None
    provenance: str = "user-supplied"

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValidationError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        for name in ("l1", "l2", "linf", "sigma"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        rate = self.endpoint_diff_rate
        if rate is not None and not math.isfinite(rate):
            raise ValidationError(f"endpoint_diff_rate must be finite, got {rate!r}")


@dataclass(frozen=True)
class DerivativeBand:
    """gamma <= f^(order) <= Gamma on the working interval.

    One-sided knowledge is expressed with an infinite opposite edge
    (Gamma=inf or gamma=-inf).
    """

    gamma: float
    Gamma: float
    order: int

    def __post_init__(self) -> None:
        if math.isnan(self.gamma) or math.isnan(self.Gamma):
            raise ValidationError("band edges must not be NaN")
        if not self.gamma <= self.Gamma:
            raise ValidationError(
                f"need gamma <= Gamma, got gamma={self.gamma!r}, Gamma={self.Gamma!r}"
            )
        check_int("band order", self.order, 1)


class CertificateKind(enum.Enum):
    L1 = "L1"
    L2 = "L2"
    LINF = "Linf"
    BAND_ODD = "BandOdd"
    ONE_SIDED_ODD = "OneSidedOdd"
    PERTURBED_EVEN = "PerturbedEven"
    SHARP_ODD = "SharpOdd"
    SHARP_EVEN = "SharpEven"


@dataclass(frozen=True)
class ErrorCertificate:
    """A nonnegative error budget together with what it certifies.

    covers_perturbed_rule says whether the budget bounds the plain rule error
    |I - F_n| (False) or the perturbed-rule error |I - F_n - perturbation|
    (True).  rigor is "heuristic-inputs" whenever any input datum is
    sampled rather than exact or user-supplied.
    """

    bound: float
    theorem: CertificateKind
    spec: RuleSpec
    norms: NormData | None
    band: DerivativeBand | None
    covers_perturbed_rule: bool
    rigor: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.bound) or self.bound < 0.0:
            raise ValidationError(f"bound must be finite and >= 0, got {self.bound!r}")
        if self.rigor not in ("rigorous", "heuristic-inputs"):
            raise ValidationError(f"unexpected rigor value {self.rigor!r}")


def _certificate(
    theorem: CertificateKind,
    spec: RuleSpec,
    bound: float,
    norms: NormData | None = None,
    band: DerivativeBand | None = None,
    covers_perturbed_rule: bool = False,
) -> ErrorCertificate:
    heuristic = norms is not None and norms.provenance == "sampled-heuristic"
    return ErrorCertificate(
        bound=bound,
        theorem=theorem,
        spec=spec,
        norms=norms,
        band=band,
        covers_perturbed_rule=covers_perturbed_rule,
        rigor="heuristic-inputs" if heuristic else "rigorous",
    )


def bound_l1(
    spec: RuleSpec, norm1: float, provenance: str = "user-supplied"
) -> ErrorCertificate:
    """|I - F_n| <= sup|K| * ||f^(n)||_1."""
    norms = NormData(l1=norm1, provenance=provenance)
    return _certificate(CertificateKind.L1, spec, closed_max_abs(spec) * norm1, norms)


def bound_l2(
    spec: RuleSpec, norm2: float, provenance: str = "user-supplied"
) -> ErrorCertificate:
    """|I - F_n| <= ||K||_2 * ||f^(n)||_2, with ||K||_2 = sqrt(closed_l2_sq)."""
    norms = NormData(l2=norm2, provenance=provenance)
    return _certificate(CertificateKind.L2, spec, math.sqrt(closed_l2_sq(spec)) * norm2, norms)


def bound_linf(
    spec: RuleSpec, norminf: float, provenance: str = "user-supplied"
) -> ErrorCertificate:
    """|I - F_n| <= int|K| * ||f^(n)||_inf, with int|K| from the kernel module."""
    norms = NormData(linf=norminf, provenance=provenance)
    return _certificate(CertificateKind.LINF, spec, closed_abs_integral(spec) * norminf, norms)


def _check_band_order(spec: RuleSpec, band: DerivativeBand) -> None:
    if band.order != spec.n:
        raise ValidationError(
            f"band is for derivative order {band.order}, rule expects {spec.n}"
        )


def bound_band_odd(spec: RuleSpec, band: DerivativeBand) -> ErrorCertificate:
    """Two-sided band bound for odd n: half the band width replaces the sup norm."""
    if spec.n % 2 != 1:
        raise ValidationError("the band bound applies to odd n only")
    _check_band_order(spec, band)
    if not (math.isfinite(band.gamma) and math.isfinite(band.Gamma)):
        raise ValidationError("the two-sided band bound needs finite gamma and Gamma")
    half_width = 0.5 * (band.Gamma - band.gamma)
    return _certificate(
        CertificateKind.BAND_ODD, spec, half_width * closed_abs_integral(spec), band=band
    )


def _one_sided(
    spec: RuleSpec, side: str, band_edge: float, rate: float, perturbed: bool
) -> ErrorCertificate:
    """|rate - edge| (b-a) times sup|K|, or the centered sup for the perturbed rule."""
    if side not in ("lower", "upper"):
        raise ValidationError(f"side must be 'lower' or 'upper', got {side!r}")
    if not math.isfinite(band_edge) or not math.isfinite(rate):
        raise ValidationError("band_edge and endpoint_diff_rate must be finite")
    if (rate < band_edge) if side == "lower" else (band_edge < rate):
        raise ValidationError(
            f"a {side} band edge {band_edge!r} must lie on the {side} side of "
            f"endpoint_diff_rate {rate!r}"
        )
    sup = kernel_centered_max_closed(spec) if perturbed else closed_max_abs(spec)
    if side == "lower":
        band = DerivativeBand(gamma=band_edge, Gamma=math.inf, order=spec.n)
    else:
        band = DerivativeBand(gamma=-math.inf, Gamma=band_edge, order=spec.n)
    return _certificate(
        CertificateKind.PERTURBED_EVEN if perturbed else CertificateKind.ONE_SIDED_ODD,
        spec,
        abs(rate - band_edge) * spec.width * sup,
        NormData(endpoint_diff_rate=rate),
        band,
        covers_perturbed_rule=perturbed,
    )


def bound_one_sided_odd(
    spec: RuleSpec, side: str, band_edge: float, endpoint_diff_rate: float
) -> ErrorCertificate:
    """One-sided band bound for odd n.

    Uses a single edge gamma <= f^(n) (side="lower") or f^(n) <= Gamma
    (side="upper") plus the exact mean rate of f^(n); the budget is
    |rate - edge| (b-a)^(n+1) / (n! 2^n) times the kernel sup factor.
    """
    if spec.n % 2 != 1:
        raise ValidationError("the one-sided bound applies to odd n only")
    return _one_sided(spec, side, band_edge, endpoint_diff_rate, perturbed=False)


def bound_perturbed_even(
    spec: RuleSpec, side: str, band_edge: float, endpoint_diff_rate: float
) -> ErrorCertificate:
    """One-sided bound on the perturbed even rule |I - F_n - perturbation|.

    For n = 2m the budget is |rate - edge| (b-a)^(2m+1) / ((2m)! 2^(2m))
    times the centered kernel sup factor.
    """
    if spec.n % 2 != 0:
        raise ValidationError("the perturbed bound applies to even n only")
    return _one_sided(spec, side, band_edge, endpoint_diff_rate, perturbed=True)


def bound_sharp(
    spec: RuleSpec, sigma: float, provenance: str = "user-supplied"
) -> ErrorCertificate:
    """Best-constant bound from sigma(f^(n)).

    The budget is sqrt(sigma(K)) sqrt(sigma) with sigma(K) from
    closed_centered_l2_sq.  For odd n, sigma(K) = ||K||_2^2 and the budget
    bounds |I - F_n|; for even n it bounds the perturbed-rule error.
    Equality is attained when f^(n) is a scalar multiple of K (plus a
    constant in the even case); integrate.sharpness_check runs the rule on
    f^(n) = K in exact arithmetic and finds the error equal to sigma(K).
    """
    norms = NormData(sigma=sigma, provenance=provenance)
    even = spec.n % 2 == 0
    kind = CertificateKind.SHARP_EVEN if even else CertificateKind.SHARP_ODD
    bound = math.sqrt(closed_centered_l2_sq(spec)) * math.sqrt(sigma)
    return _certificate(kind, spec, bound, norms, covers_perturbed_rule=even)


#: Certificate name -> the NormData field it consumes.  "band" also needs a
#: DerivativeBand; its field, the mean rate of f^(n), is read for even n only.
CERTIFICATES = {
    "l1": "l1",
    "l2": "l2",
    "linf": "linf",
    "band": "endpoint_diff_rate",
    "sharp": "sigma",
}


def _datum(spec: RuleSpec, kind: str, norms: NormData | None) -> float:
    field = CERTIFICATES[kind]
    value = None if norms is None else getattr(norms, field)
    if value is None:
        raise ValidationError(f"certificate {kind!r} at n={spec.n} needs NormData.{field}")
    return value


def certify(
    spec: RuleSpec,
    kind: str,
    norms: NormData | None = None,
    band: DerivativeBand | None = None,
    rate: float | None = None,
) -> ErrorCertificate:
    """The certificate named ``kind`` (a key of CERTIFICATES) for ``spec``.

    Norm kinds read their NormData field and keep its provenance.  "band"
    gives the two-sided bound for odd n; for even n it gives the tighter
    valid side of the perturbed one-sided bound, with ``rate`` (default
    ``norms.endpoint_diff_rate``) as the mean of f^(n).
    """
    if kind not in CERTIFICATES:
        raise ValidationError(
            f"unknown certificate kind {kind!r}; expected one of {tuple(CERTIFICATES)}"
        )
    if kind != "band":
        # Looked up per call, so a rebound module-level bound_* is the one called.
        bound = {"l1": bound_l1, "l2": bound_l2, "linf": bound_linf, "sharp": bound_sharp}
        return bound[kind](spec, _datum(spec, kind, norms), norms.provenance)
    if band is None:
        raise ValidationError("certificate 'band' needs a DerivativeBand")
    _check_band_order(spec, band)
    if spec.n % 2 == 1:
        return bound_band_odd(spec, band)
    if rate is None:
        rate = _datum(spec, kind, norms)
    sides = []
    if math.isfinite(band.gamma) and rate >= band.gamma:
        sides.append(bound_perturbed_even(spec, "lower", band.gamma, rate))
    if math.isfinite(band.Gamma) and band.Gamma >= rate:
        sides.append(bound_perturbed_even(spec, "upper", band.Gamma, rate))
    if not sides:
        raise ValidationError(
            f"no valid side for the even-n band certificate: the rate {rate!r} "
            "violates the supplied band"
        )
    return min(sides, key=lambda cert: cert.bound)

