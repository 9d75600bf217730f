"""Reference integration, composite rules with budgets, exact sharpness check."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from operator import add, attrgetter, lt, mul, sub, truediv

from . import bounds
from .errors import ConvergenceError, ValidationError, check_int, check_interval
from .kernel import RuleSpec, kernel_stats_brute
from .poly import PiecewisePolynomial, _antiderivative_coeffs
from .rules import Integrand, _checked_sum, _coefficients, _Memo, _rule_terms, _rule_value

__all__ = [
    "DEFAULT_ORACLE_TOL",
    "MAX_ORACLE_PANELS",
    "CompositeResult",
    "SharpnessReport",
    "reference_integral",
    "sigma_functional",
    "true_error",
    "composite_integrate",
    "sharpness_check",
    "extremal_integrand",
]

#: Default stopping tolerance of the reference oracle.
DEFAULT_ORACLE_TOL = 1e-12

#: Panel cap of the reference oracle; exceeding it raises ConvergenceError.
MAX_ORACLE_PANELS = 4096

# Panels whose nodes are read as one column, in the panel loop and the oracle:
# enough to amortise a read, few enough to keep their memory small.
_BLOCK = 256
_INTEGRAL, _BOUND = attrgetter("stats.integral"), attrgetter("bound")

# 15-point Gauss-Legendre rule on [-1, 1], ascending nodes.  The rule is
# symmetric, so only the nodes x >= 0 and their weights are written out.  Each
# literal is the correctly rounded double of the exact node or weight, so the
# oracle does not depend on any linear-algebra library; tests/test_integrate.py
# recomputes all 15 to 40 digits and checks every bit.
_GL_HALF_NODES = (
    0.0,
    0.20119409399743451,
    0.3941513470775634,
    0.5709721726085388,
    0.7244177313601701,
    0.8482065834104272,
    0.937273392400706,
    0.9879925180204854,
)
_GL_HALF_WEIGHTS = (
    0.2025782419255613,
    0.19843148532711158,
    0.1861610000155622,
    0.16626920581699392,
    0.13957067792615432,
    0.10715922046717194,
    0.07036604748810812,
    0.03075324199611727,
)
_GL_NODES = tuple(-x for x in reversed(_GL_HALF_NODES[1:])) + _GL_HALF_NODES
_GL_WEIGHTS = tuple(reversed(_GL_HALF_WEIGHTS[1:])) + _GL_HALF_WEIGHTS


def _gl_nodes(edges: list) -> list[float]:
    """The 15 nodes of each panel between consecutive ``edges``, in order."""
    halves = [(0.5 * (hi + lo), 0.5 * (hi - lo)) for lo, hi in zip(edges, islice(edges, 1, None))]
    return [mid + half * x for mid, half in halves for x in _GL_NODES]


def _gl_panels(values: list, edges: list) -> list[float]:
    """The 15-node rule on each panel between ``edges``, from ``values`` at their nodes."""
    halves = [0.5 * (hi - lo) for lo, hi in zip(edges, islice(edges, 1, None))]
    values = iter(values)
    sums = (h * math.fsum(map(mul, _GL_WEIGHTS, islice(values, len(_GL_NODES)))) for h in halves)
    return _checked_sum(list, sums, edges[0], edges[-1])


def _panel_edges(a: float, b: float, panels: int) -> list[float]:
    h = (b - a) / panels
    return [a + i * h for i in range(panels)] + [b]


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol!r}")


def _levels(column, order: int, a: float, b: float, tol: float, powers: tuple) -> list[float]:
    """int_a^b g**p for each p in ``powers``, g = f^(order) as column(k, xs)
    lists it: the oracle's loop.  A level reads its nodes once per block of
    _BLOCK panels and sums each integral still open; each stops at the first
    level within ``tol * (1 + |value|)`` of the one before.  A power that
    overflows raises OverflowError naming its block, as it is formed."""
    last, open_powers = dict.fromkeys(powers, math.nan), list(powers)
    for panels in (2**k for k in range(MAX_ORACLE_PANELS.bit_length())):  # 1, 2, 4, ...
        edges = _panel_edges(a, b, panels)
        sums = {p: [] for p in open_powers}
        for i in range(0, panels, _BLOCK):
            block = edges[i:i + _BLOCK + 1]
            g = column(order, _gl_nodes(block))
            for p, panel_sums in sums.items():
                values = g if p == 1 else _checked_sum(list, (v**p for v in g), block[0], block[-1])
                panel_sums += _gl_panels(values, block)
        for p, panel_sums in sums.items():
            value = _checked_sum(math.fsum, panel_sums, a, b)
            if abs(value - last[p]) < tol * (1.0 + abs(value)):
                open_powers.remove(p)
            last[p] = value
        if not open_powers:
            return [last[p] for p in powers]
    raise ConvergenceError(f"reference integral did not stabilize to tol={tol!r} "
                           f"within {MAX_ORACLE_PANELS} panels")


def reference_integral(f: Integrand, a: float, b: float, tol: float = DEFAULT_ORACLE_TOL) -> float:
    """Adaptive panel-halving Gauss-Legendre reference value of int_a^b f.

    Fixed 15-node panels on a uniform grid that is halved until two
    successive refinements differ by less than ``tol * (1 + |result|)``.
    The refinement order is deterministic, so identical inputs give
    bit-identical output.  Hitting MAX_ORACLE_PANELS without meeting the
    criterion raises ConvergenceError.  ``tol`` is checked first; then an
    empty interval gives 0.0, and an end of [a, b] outside the domain of
    ``f`` raises DomainError.

    The loop is ``_levels``, reading through ``Integrand._read``: a
    non-finite value raises ValidationError at the first such node of the
    first level that reads one; a level sum that overflows ``math.fsum``
    raises OverflowError naming [a, b].  On an interval so narrow that a
    node may round past [a, b], the nodes are clamped into the domain.

    The last result is kept with ``f``, for one (a, b, tol) only, as
    ``RuleSpec._panels`` keeps its last partition: a second call on the same
    key (``true_error`` after this, say) returns it without reading f.  That
    assumes ``derivative_fn`` is a function of its arguments.  No error is
    kept: each call that raises reads f again and raises again.

    The nodes and weights are committed, correctly rounded constants, so the
    result does not depend on a linear-algebra library.  It still depends on
    the values ``f`` returns: the builtin integrands call the platform's
    ``math.exp``, ``math.sin`` and the like, and whether those are correctly
    rounded on every platform is not established here.
    """
    _check_tol(tol)
    if a == b and math.isfinite(a):
        return 0.0
    a, b = check_interval(a, b)
    kept = f.__dict__.get("_kept_reference")
    if kept is not None and kept[0] == (a, b, tol):
        return kept[1]
    value, = _levels(f._read(a, b), 0, a, b, tol, (1,))
    f.__dict__["_kept_reference"] = ((a, b, tol), value)
    return value


def sigma_functional(
    f: Integrand, order: int, a: float, b: float, oracle_tol: float = DEFAULT_ORACLE_TOL
) -> float:
    """sigma(f^(order)) = ||f^(order)||_2^2 - (1/(b-a)) (int f^(order))^2.

    int g and int g^2, g = f^(order), come from one run of ``_levels`` at
    ``oracle_tol``, which reads each node once and stops each integral on its
    own, so each equals a ``reference_integral`` of g or g^2 bit for bit.  The
    result is clamped to >= 0; a raw value below -1e-12 * ||g||_2^2 means the
    oracle output is inconsistent and triggers a warning before clamping.
    """
    check_int("order", order, 0)
    a, b = check_interval(a, b)
    _check_tol(oracle_tol)
    int_g, int_g2 = _levels(f._read(a, b), order, a, b, oracle_tol, (1, 2))
    raw = int_g2 - int_g * int_g / (b - a)
    if raw < -1e-12 * int_g2:
        warnings.warn(f"sigma functional came out negative ({raw!r}) beyond roundoff; "
                      "clamping to 0", stacklevel=2)
    return max(raw, 0.0)


def _rule_panels(
    f: Integrand,
    spec: RuleSpec,
    panels: int,
    perturbed: bool = False,
    certificate: str | None = None,
    norms: bounds.NormData | None = None,
    band: bounds.DerivativeBand | None = None,
) -> tuple[float, list[float], bool]:
    """The rule on a uniform partition: its value, one budget per panel, and
    whether the value includes the perturbation (see composite_integrate).

    ``perturbed`` folds each panel's perturbation (int K times the mean rate
    of f^(n)) into the value; with a ``certificate`` the value includes it
    exactly when the certificate covers it.  One pass walks the panels in
    blocks of _BLOCK, reading each column of ``rules._rule_terms`` once per
    block through ``Integrand._read``, the rates first where a one-sided
    band or the perturbation reads them (f^(n-1) once per edge, a block's
    last kept for the next).  Certificate inputs are checked before the
    first read; a one-sided band's budgets come from ``bounds._one_sided``
    alone.  Every panel is read before the values are summed, once; a sum
    that overflows, or a non-finite value, raises OverflowError.

    A call of one block keeps its read with ``f``, one entry stored on
    success: each panel's unperturbed value and, once read, its rate.  A
    later call for the same ``spec`` object (an equal spec may differ in the
    sign of a zero end) and panel count reads only what the entry lacks, so
    a second certificate reads only the rates it needs.  This assumes
    ``derivative_fn`` is a function of its arguments.
    """
    check_int("panels", panels, 1)
    theta, n = spec.theta, spec.n
    if perturbed and n % 2 == 1:
        raise ValidationError(f"the perturbed rule needs even n, got n={n}")
    one_sided = bounds.reads_rate(certificate, n, band)  # before any read
    # the spec of each panel width: spec itself if as wide, else kept with spec across calls
    specs = _Memo(lambda w: spec if w == spec.width else spec._panels(panels)[w])
    certs = _Memo(lambda w: bounds.certify(specs[w], certificate, norms, band))
    coefficients = _coefficients(theta, n)
    fixed = certificate is not None and not one_sided

    column = f._read(spec.a, spec.b)
    edges = _panel_edges(spec.a, spec.b, panels)
    if not all(map(lt, edges, islice(edges, 1, None))):
        at = f"panels={panels} on [{spec.a!r}, {spec.b!r}]"
        raise ValidationError(f"{at}: neighbouring panel edges round to the same float")
    widths = map(sub, islice(edges, 1, None), edges)
    budgets = list(map(_BOUND, map(certs.__getitem__, widths))) if fixed else []
    covers = certs[edges[1] - edges[0]].covers_perturbed_rule if fixed else (
        perturbed or one_sided and n % 2 == 0)  # PerturbedEven covers it, OneSidedOdd not
    ends = []  # f^(n-1) at the last edge read

    def block(i: int, values=None, rates=None):
        """The panels from edges[i] on: their values and rates as read (None
        where not read), and the values the rule sums.  Only what is None is read."""
        his = edges[i + 1:i + _BLOCK + 1]
        los = edges[i:i + len(his)]
        ws = list(map(sub, his, los))
        if (one_sided or covers) and rates is None:  # f^(n-1) once per edge, before any value
            ends.extend(column(n - 1, edges[i + len(ends):i + len(ws) + 1]))
            rates = list(map(truediv, map(sub, islice(ends, 1, None), ends), ws))
            del ends[:-1]
        if one_sided:  # every panel budgeted at its own rate
            budgets.extend(bounds._one_sided(band, rates, ws, specs)[0])
        if values is None:
            terms = _rule_terms(column, theta, n, los, his, ws, coefficients)
            values = _checked_sum(list, map(math.fsum, zip(*terms)), los[0], his[-1])
        if not covers:
            return values, rates, values
        integrals = map(_INTEGRAL, map(specs.__getitem__, ws))
        return values, rates, list(map(add, values, map(mul, integrals, rates)))

    if panels > _BLOCK:
        blocks = [block(i)[2] for i in range(0, panels, _BLOCK)]
        return _rule_value(chain.from_iterable(blocks), spec.a, spec.b), budgets, covers
    kept = f.__dict__.get("_kept_rule", (None,))  # read for this spec object and panel count
    served = kept[0] is spec and kept[1] == panels
    values, rates, summed = block(0, *kept[2:]) if served else block(0)
    value = _rule_value(summed, spec.a, spec.b)
    f.__dict__["_kept_rule"] = (spec, panels, values, rates)
    return value, budgets, covers


def true_error(
    f: Integrand,
    spec: RuleSpec,
    perturbed: bool = False,
    tol: float = DEFAULT_ORACLE_TOL,
) -> float:
    """|I - F_n| against the reference oracle; optionally the perturbed rule.

    With ``perturbed`` (even n only) the perturbation term joins the rule
    value, matching what perturbed-rule certificates bound.  The oracle's
    value is the one ``reference_integral`` keeps with ``f``: after a call
    of it on [spec.a, spec.b] at ``tol``, or across a sweep of specs on one
    interval, the oracle's nodes are read once.
    """
    _check_tol(tol)
    value, _, _ = _rule_panels(f, spec, 1, perturbed)
    return abs(reference_integral(f, spec.a, spec.b, tol=tol) - value)


@dataclass(frozen=True)
class CompositeResult:
    """Composite rule value plus its per-panel certificate budgets.

    The certified statement is always |int_a^b f - value| <= total_bound:
    when the chosen certificate covers the perturbed rule
    (covers_perturbed_rule), each panel's perturbation term is already
    folded into value.
    """

    value: float
    panels: int
    per_panel_bound: tuple[float, ...]
    total_bound: float
    certificate_kind: str
    covers_perturbed_rule: bool


def composite_integrate(
    f: Integrand,
    spec: RuleSpec,
    panels: int,
    certificate: str = "linf",
    *,
    norms: bounds.NormData | None = None,
    band: bounds.DerivativeBand | None = None,
) -> CompositeResult:
    """Apply the rule on a uniform partition and budget each panel.

    ``certificate`` is a name in bounds.CERTIFICATES.  Norm inputs are global
    for [a, b] and reused on every panel; that is conservative because every
    norm a certificate consumes can only shrink on a subinterval (sigma
    included: the panel-centred variance is at most the interval variance).
    A one-sided "band" (``bounds.reads_rate``) instead reads each panel's own
    mean rate of f^(n) and budgets every panel with ``bounds._one_sided``,
    certify's formula, forming no certificate.  Each width's spec,
    certificate and rule coefficients are formed once.  With P panels f is
    read 3P times, f^(2i) P times, and f^(n-1) P + 1 times if the rate is.
    At P <= 256 a second certificate on the same ``spec`` and P reads only
    the rates it needs (``_rule_panels``).
    """
    if certificate is None:  # the panel loop reads None as "no certificate"
        raise ValidationError("composite_integrate needs a certificate kind")
    value, budgets, covers = _rule_panels(f, spec, panels, False, certificate, norms, band)
    return CompositeResult(
        value=value,
        panels=panels,
        per_panel_bound=tuple(budgets),
        total_bound=_checked_sum(math.fsum, budgets, spec.a, spec.b),
        certificate_kind=certificate,
        covers_perturbed_rule=covers,
    )


@dataclass(frozen=True)
class SharpnessReport:
    """Did the sharp bound attain equality on its extremal integrand?

    lhs is sigma(K) = int K^2 - (int K)^2/(b - a) from the exact kernel
    statistics, rhs the closed-form sharp bound evaluated at sigma(f^(n)) =
    sigma(K) from the closed ones; ratio = lhs / rhs should be 1 up to
    roundoff.  When the end-to-end check runs, end_to_end_error is the rule
    error of the extremal integrand in exact arithmetic, rounded once; it
    equals lhs bit for bit.  Otherwise it is None.
    """

    n: int
    theta: float
    a: float
    b: float
    lhs: float
    rhs: float
    ratio: float
    end_to_end_error: float | None = None


def _extremal_pieces(spec: RuleSpec) -> tuple[list[tuple[list, list]], tuple[list, list]]:
    """(pieces, F): the extremal integrand f of ``spec`` in Fractions.

    pieces[k] = (left, right), k = 0..n, are the ascending coefficients of
    f^(k) in powers of x - a on [a, mid] and of x - mid on [mid, b]; F, F' = f,
    has the same form.  pieces[n] is K from kernel_stats_brute's two halves,
    n! K = u^(n-1) (u - c) with c = theta n (b - a)/2, u = x - a on the left
    and u = x - b, c negated, on the right (Taylor-shifted to x - mid).  Each
    lower order integrates the one above: zero at a, continuous at mid.
    """
    from fractions import Fraction  # deferred: only the exact path needs it

    n = spec.n
    h = (Fraction(spec.b) - Fraction(spec.a)) / 2
    c = Fraction(spec.theta) * n * h
    scale = Fraction(1, math.factorial(n))
    left = [0] * (n - 1) + [-c * scale, scale]
    # n! K = (t - h)^(n-1) (t - h + c) on the right, in powers of t = x - mid
    right = [
        (-h) ** (n - 1 - j) * (math.comb(n - 1, j) * c - math.comb(n, j) * h) * scale
        for j in range(n)
    ] + [scale]
    pieces = [(left, right)]
    for _ in range(n + 1):  # orders n-1 .. 0, then F
        left = _antiderivative_coeffs(left, 0)
        right = _antiderivative_coeffs(right, sum(c * h**j for j, c in enumerate(left)))
        pieces.append((left, right))
    antiderivative = pieces.pop()
    pieces.reverse()
    return pieces, antiderivative


def extremal_integrand(spec: RuleSpec) -> Integrand:
    """The integrand on which the sharp bound is attained.

    Its n-th derivative IS the kernel of ``spec``, and every lower
    derivative is continuous: the exact pieces of ``_extremal_pieces``,
    each coefficient rounded to float once.
    """
    pieces, _ = _extremal_pieces(spec)
    by_order = [PiecewisePolynomial((spec.a, spec.midpoint, spec.b), p) for p in pieces]
    return Integrand(lambda k, x: by_order[k].eval(x), (spec.a, spec.b), max_order=spec.n)


def _end_to_end_error(spec: RuleSpec) -> float:
    """Exact rule error of the extremal integrand, rounded once.

    ``rules._rule_terms`` runs in Fraction on the values of f it reads, each
    from a closed form.  With h = (b - a)/2 and alpha_j = (1 - theta (2n - j))
    / (2n - j)!, f^(j) is 0 at a and h^(2n-j) alpha_j at mid, where the right
    half's own primitive is (-1)^j times that, so f^(j)(b) is h^(2n-j) times
    the sum over odd i = j..n-1 of 2 alpha_i/(i - j)!; order -1 is int f.
    At even n the perturbation (int K)^2/(b - a) joins the rule.  By the
    Peano identity the error is then sigma(K) exactly, for every n.
    """
    from fractions import Fraction  # deferred: only the exact path needs it

    n, (t_num, t_den) = spec.n, spec.theta.as_integer_ratio()
    a, b = Fraction(spec.a), Fraction(spec.b)
    h, mid = (b - a) / 2, (a + b) / 2

    def derivative(order: int, x):  # h^m s / (t_den m!) with m = 2n - order
        if x == a:
            return 0
        m = 2 * n - order
        if x == mid:
            s = t_den - t_num * m
        else:
            s = sum(2 * math.comb(m, i - order) * (t_den - t_num * (2 * n - i))
                    for i in range(order | 1, n, 2))
        return Fraction(h.numerator**m * s, h.denominator**m * t_den * math.factorial(m))

    def column(order: int, xs: list) -> list:
        return [derivative(order, x) for x in xs]

    theta = Fraction(spec.theta)
    columns = _rule_terms(column, theta, n, [a], [b], [b - a], _coefficients(theta, n))
    value = sum(term for term, in columns)
    if n % 2 == 0:
        int_k = derivative(n - 1, b) - derivative(n - 1, a)
        value += int_k * int_k / (b - a)
    return float(abs(derivative(-1, b) - value))


def sharpness_check(spec: RuleSpec, end_to_end: bool = False) -> SharpnessReport:
    """Verify the sharp bound attains equality for the kernel-shaped integrand.

    The attained error measure is sigma(K) = int K^2 - (int K)^2/(b - a)
    (int K = 0 for odd n), the centered_l2_sq of kernel_stats_brute (integer
    sums, divided once); the closed-form sharp bound at sigma(K) (the
    centered_l2_sq of kernel_stats_closed) must match it.  With
    ``end_to_end`` the rule runs in Fraction on closed-form values of the
    extremal integrand, for any n, and its error is reported as well: it
    equals lhs bit for bit.  An interval so narrow that rhs underflows to
    0.0 leaves the ratio undefined and raises ValidationError.
    """
    norms = bounds.NormData(sigma=spec.stats.centered_l2_sq, provenance="exact")
    rhs = bounds.certify(spec, "sharp", norms).bound
    if rhs == 0.0:
        raise ValidationError(f"the sharp bound of {spec} underflows to 0.0; lhs/rhs is undefined")
    lhs = kernel_stats_brute(spec).centered_l2_sq  # after the closed form names its overflow
    return SharpnessReport(
        n=spec.n,
        theta=spec.theta,
        a=spec.a,
        b=spec.b,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        end_to_end_error=_end_to_end_error(spec) if end_to_end else None,
    )
