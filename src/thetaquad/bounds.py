"""A-priori error certificates for the blended rules.

Every bound here is one field of ``spec.stats``, the spec's ``KernelStats``
from the one closed form ``kernel.kernel_stats_closed``, times a norm or band
datum about f^(n) that the caller supplies; certificates never measure the
integrand themselves.  The provenance of the supplied data flows into the
certificate's rigor flag, so sampled guesses cannot masquerade as proof.

``certify`` is the one constructor.  Certificate names (CERTIFICATES) and
the theorems they state:

=====  ==================  ========================================  =========
name   theorem             inequality certified                      parity
=====  ==================  ========================================  =========
l1     L1                  |I - F_n| <= max|K| * ||f^(n)||_1         any n
l2     L2                  |I - F_n| <= ||K||_2 * ||f^(n)||_2        any n
linf   Linf                |I - F_n| <= int|K| * ||f^(n)||_inf       any n
band   BandOdd             |I - F_n| from gamma <= f^(n) <= Gamma    odd n
band   OneSidedOdd         |I - F_n| from a single band edge + the
                           endpoint difference rate of f^(n-1)       odd n
band   PerturbedEven       |I - F_n - perturbation| likewise         even n
sharp  SharpOdd/SharpEven  best-constant bound via sigma(f^(n))      by parity
=====  ==================  ========================================  =========

F_n is the corrected rule value; I the true integral; sigma(g) the squared
l2 norm of g minus (b-a) times its squared mean.  "band" is BandOdd when n is
odd and both band edges are finite, and a one-sided bound otherwise;
``reads_rate`` is that one decision.  A one-sided certificate records its
side in its half-infinite band: a finite gamma is the lower edge, a finite
Gamma the upper one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ValidationError, check_int
from .kernel import RuleSpec

__all__ = [
    "PROVENANCES",
    "NormData",
    "DerivativeBand",
    "CertificateKind",
    "ErrorCertificate",
    "CERTIFICATES",
    "reads_rate",
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
        if self.endpoint_diff_rate is not None:
            _check_rate(self.endpoint_diff_rate)


def _check_rate(rate: float) -> None:
    if not math.isfinite(rate):
        raise ValidationError(f"endpoint_diff_rate must be finite, got {rate!r}")


def _check_bound(bound: float) -> None:
    if not math.isfinite(bound) or bound < 0.0:
        raise ValidationError(f"bound must be finite and >= 0, got {bound!r}")


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
        _check_bound(self.bound)
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


#: Certificate name -> the NormData field it consumes.  "band" also needs a
#: DerivativeBand; its field, the mean rate of f^(n), is read where reads_rate
#: says so.
CERTIFICATES = {
    "l1": "l1",
    "l2": "l2",
    "linf": "linf",
    "band": "endpoint_diff_rate",
    "sharp": "sigma",
}


def reads_rate(kind: str | None, n: int, band: DerivativeBand | None) -> bool:
    """Whether certificate ``kind`` at order ``n`` reads the mean rate of f^(n).

    Only "band" does, unless n is odd and both edges of ``band`` are finite:
    that case is the two-sided BandOdd bound, which reads the band alone.
    """
    if kind != "band" or band is None:
        return False
    return n % 2 == 0 or not (math.isfinite(band.gamma) and math.isfinite(band.Gamma))


def _band_reads_rate(band: DerivativeBand | None, n: int) -> bool:
    """reads_rate("band", n, band) once ``band`` passes certify's checks,
    which the panel loop makes before it reads f."""
    if band is None:
        raise ValidationError("certificate 'band' needs a DerivativeBand")
    if band.order != n:
        raise ValidationError(f"band is for derivative order {band.order}, rule expects {n}")
    return reads_rate("band", n, band)


def _datum(spec: RuleSpec, kind: str, norms: NormData | None) -> tuple[float, NormData]:
    """The NormData field certificate ``kind`` reads, and ``norms`` cut down
    to it; certify runs once per panel width, so this is formed per call."""
    field = CERTIFICATES[kind]
    value = None if norms is None else getattr(norms, field)
    if value is None:
        raise ValidationError(f"certificate {kind!r} at n={spec.n} needs NormData.{field}")
    return value, NormData(**{field: value}, provenance=norms.provenance)


def certify(
    spec: RuleSpec,
    kind: str,
    norms: NormData | None = None,
    band: DerivativeBand | None = None,
) -> ErrorCertificate:
    """The certificate named ``kind`` (a key of CERTIFICATES) for ``spec``.

    Norm kinds read their NormData field d and keep its provenance; the
    budget is a kernel statistic times d: max|K| (l1), ||K||_2 (l2), int|K|
    (linf), or sqrt(sigma(K)) times sqrt(d) (sharp, SharpOdd/SharpEven by
    parity).  "band" reads ``band``: with odd n and two finite edges it is
    BandOdd, half the band width times int|K|.  Otherwise it reads the mean
    rate of f^(n), ``norms.endpoint_diff_rate`` with its provenance, and
    takes the tighter valid side, the lower winning a tie, of |rate - edge|
    (b - a) times max|K| (OneSidedOdd, odd n) or the centred sup of K
    (PerturbedEven, even n, bounding the perturbed rule), in its
    half-infinite band.
    """
    if kind not in CERTIFICATES:
        raise ValidationError(
            f"unknown certificate kind {kind!r}; expected one of {tuple(CERTIFICATES)}"
        )
    even = spec.n % 2 == 0
    if kind != "band":
        d, datum = _datum(spec, kind, norms)
        if kind == "l1":
            theorem, bound = CertificateKind.L1, spec.stats.max_abs * d
        elif kind == "l2":
            theorem, bound = CertificateKind.L2, math.sqrt(spec.stats.l2_sq) * d
        elif kind == "linf":
            theorem, bound = CertificateKind.LINF, spec.stats.abs_integral * d
        else:
            theorem = CertificateKind.SHARP_EVEN if even else CertificateKind.SHARP_ODD
            bound = math.sqrt(spec.stats.centered_l2_sq) * math.sqrt(d)
        covers = theorem is CertificateKind.SHARP_EVEN
        return _certificate(theorem, spec, bound, datum, covers_perturbed_rule=covers)
    if not _band_reads_rate(band, spec.n):
        bound = 0.5 * (band.Gamma - band.gamma) * spec.stats.abs_integral
        return _certificate(CertificateKind.BAND_ODD, spec, bound, band=band)
    rate, datum = _datum(spec, kind, norms)
    (bound,), (lower,) = _one_sided(band, [rate], [spec.width], {spec.width: spec})
    side = DerivativeBand(*((band.gamma, math.inf) if lower else (-math.inf, band.Gamma)), spec.n)
    theorem = CertificateKind.PERTURBED_EVEN if even else CertificateKind.ONE_SIDED_ODD
    return _certificate(theorem, spec, bound, datum, side, covers_perturbed_rule=even)


def _one_sided(band: DerivativeBand, rates, widths, specs) -> tuple[list[float], list[bool]]:
    """Budgets and sides (True: the lower edge) of certify's one-sided band
    bound, one per rate and width, specs[w] being the spec of width w; the
    panel loop forms a block of panels' budgets here.  Each rate and side is
    checked before the stats of its spec, whose sup is read from the stats
    the spec keeps, and each budget as ErrorCertificate checks it."""
    gamma, Gamma = band.gamma, band.Gamma
    has_lower, has_upper = math.isfinite(gamma), math.isfinite(Gamma)
    sup_name = "centered_max_abs" if band.order % 2 == 0 else "max_abs"  # band.order is n
    budgets, lowers = [], []
    for rate, w in zip(rates, widths):
        _check_rate(rate)
        lower = has_lower and rate >= gamma
        upper = has_upper and Gamma >= rate
        if not (lower or upper):
            raise ValidationError(
                f"no valid side for the band certificate: no finite band edge bounds the "
                f"rate {rate!r}"
            )
        sup = getattr(specs[w].stats, sup_name)
        low = abs(rate - gamma) * w * sup if lower else math.inf
        high = abs(rate - Gamma) * w * sup if upper else math.inf
        bound = min(low, high)  # the lower side on a tie
        _check_bound(bound)
        budgets.append(bound)
        lowers.append(low <= high)
    return budgets, lowers
