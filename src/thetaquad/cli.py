"""Command-line interface.

Subcommands: ``integrate`` (composite rule + optional certificate + true
error), ``bound`` (certificate only), ``kernel`` (closed-form kernel stats,
optionally cross-checked in exact arithmetic), ``sweep`` (plot-ready CSV over a
theta grid) and ``sharpness`` (attainment check of the sharp bound).

Output is a JSON record {schema_version, command, inputs, results} (CSV on
request, and always CSV for sweep).  Numbers are emitted through Python's
shortest round-trip repr, so every value parses back to the identical float
and identical invocations produce byte-identical output.  Exit codes:
0 success, 2 validation/usage error or floating-point overflow, 3 oracle
non-convergence.

Each subcommand imports the modules it runs when it runs, so ``kernel``
loads neither the rules nor the integrands, and ``bound`` not the composite
loop.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

import argparse

from .bounds import CERTIFICATES
from .errors import ConvergenceError, ThetaQuadError, ValidationError
from .kernel import RuleSpec

if TYPE_CHECKING:
    from .bounds import DerivativeBand, ErrorCertificate, NormData
    from .functions import AnalyticFunction
    from .kernel import KernelStats

__all__ = ["run_cli", "main"]

SCHEMA_VERSION = "1"

class _Parser(argparse.ArgumentParser):
    """argparse that reads any float as a value: alone it takes ``-inf`` or
    ``-1e-3`` for an unknown flag (only ``-12`` and ``-1.5`` for numbers)."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thetaquad",
        description="Blended midpoint/trapezoid/Simpson quadrature with error certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_interval(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="derivative order of the rule")
        p.add_argument("--a", type=float, required=True, help="left endpoint")
        p.add_argument("--b", type=float, required=True, help="right endpoint")

    def add_theta(p: argparse.ArgumentParser, with_rule: bool = False) -> None:
        p.add_argument("--theta", type=float, help="blend parameter in [0, 1]")
        if with_rule:
            p.add_argument(
                "--rule",
                help="named preset: midpoint | trapezoid | simpson | averaged",
            )

    def add_norm_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--l1", type=float, help="||f^(n)||_1 override")
        p.add_argument("--l2", type=float, help="||f^(n)||_2 override")
        p.add_argument("--linf", type=float, help="||f^(n)||_inf override")
        p.add_argument("--gamma", type=float, help="lower band edge of f^(n)")
        p.add_argument("--Gamma", dest="Gamma", type=float, help="upper band edge of f^(n)")
        p.add_argument("--sigma", type=float, help="sigma(f^(n)) override")

    p_int = sub.add_parser("integrate", help="composite rule value, certificate, true error")
    p_int.add_argument("--f", required=True, help="integrand: exp | sin | runge | poly:c0,c1,...")
    add_interval(p_int)
    add_theta(p_int, with_rule=True)
    p_int.add_argument("--panels", type=int, default=1, help="uniform panel count")
    p_int.add_argument(
        "--perturbed",
        action="store_true",
        help="include the even-n perturbation term in the rule value",
    )
    p_int.add_argument("--bound", choices=tuple(CERTIFICATES), help="certificate kind")
    add_norm_flags(p_int)
    p_int.add_argument("--format", choices=("json", "csv"), default="json")

    p_bnd = sub.add_parser("bound", help="emit a certificate without integrating")
    p_bnd.add_argument("--f", help="integrand supplying exact norms when flags are absent")
    add_interval(p_bnd)
    add_theta(p_bnd, with_rule=True)
    p_bnd.add_argument("--bound", choices=tuple(CERTIFICATES), required=True)
    add_norm_flags(p_bnd)
    p_bnd.add_argument(
        "--rate", type=float, help="endpoint difference rate of f^(n-1) override"
    )

    p_ker = sub.add_parser("kernel", help="closed-form kernel statistics")
    add_interval(p_ker)
    add_theta(p_ker)
    p_ker.add_argument(
        "--brute-force",
        action="store_true",
        help="add an exact rational cross-check computed from the kernel's definition",
    )

    p_swp = sub.add_parser("sweep", help="CSV sweep of value/error/bounds over a theta grid")
    p_swp.add_argument("--f", required=True, help="integrand: exp | sin | runge | poly:c0,c1,...")
    add_interval(p_swp)
    p_swp.add_argument(
        "--theta-grid",
        required=True,
        help="start:step:end inclusive grid of blend parameters",
    )

    p_shp = sub.add_parser("sharpness", help="attainment check of the sharp bound")
    add_interval(p_shp)
    add_theta(p_shp)
    p_shp.add_argument(
        "--end-to-end",
        action="store_true",
        help="also run the rule on the extremal integrand in exact arithmetic and report "
        "its error, which equals lhs",
    )

    return parser


def _rule_spec(args: argparse.Namespace) -> RuleSpec:
    """The rule from --n/--a/--b and exactly one of --theta or --rule."""
    rule = getattr(args, "rule", None)
    if rule is not None and args.theta is not None:
        raise ValidationError("pass either --theta or --rule, not both")
    if rule is None and args.theta is None:
        raise ValidationError("one of --theta or --rule is required")
    theta = args.theta
    if rule is not None:
        from .rules import preset

        theta = preset(rule)
    return RuleSpec(theta=theta, n=args.n, a=args.a, b=args.b)


def _spec_inputs(spec: RuleSpec) -> dict:
    return {"n": spec.n, "theta": spec.theta, "a": spec.a, "b": spec.b}


def _record(command: str, inputs: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


def _print_json(record: dict) -> None:
    import json

    sys.stdout.write(json.dumps(record, indent=2) + "\n")


def _csv_text(header: list[str], rows: list[list[object]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _certificate_payload(cert: ErrorCertificate) -> dict:
    out: dict = {
        "bound": cert.bound,
        "theorem": cert.theorem.value,
        "covers_perturbed_rule": cert.covers_perturbed_rule,
        "rigor": cert.rigor,
    }
    band, norms = cert.band, cert.norms
    if band is not None and norms is None:
        out["gamma"] = band.gamma
        out["Gamma"] = band.Gamma
    elif band is not None:  # one-sided: the finite edge is the datum
        lower = math.isfinite(band.gamma)
        out["side"] = "lower" if lower else "upper"
        out["theorem"] += out["side"].capitalize()
        out["band_edge"] = band.gamma if lower else band.Gamma
    if norms is not None:
        for field in ("l1", "l2", "linf", "endpoint_diff_rate", "sigma"):
            if getattr(norms, field) is not None:
                out[field] = getattr(norms, field)
    return out


def _certificate_inputs(
    args: argparse.Namespace,
    fn: AnalyticFunction | None,
    spec: RuleSpec,
    kind: str | None,
) -> tuple[NormData | None, DerivativeBand | None]:
    """Norm/band inputs for certify: explicit flags beat exact metadata.

    A norm flag the certificate does not read is an error: "band" reads
    --gamma/--Gamma, and --rate (NormData.endpoint_diff_rate) where
    ``reads_rate`` says so; every other kind reads its CERTIFICATES field,
    and no certificate (``kind`` None) reads none.
    """
    from .bounds import DerivativeBand, NormData, reads_rate

    n, a, b = spec.n, spec.a, spec.b
    band, field = None, CERTIFICATES.get(kind)
    if kind == "band":
        if args.gamma is not None and args.Gamma is not None:
            band = DerivativeBand(args.gamma, args.Gamma, order=n)
        elif args.gamma is not None or args.Gamma is not None:
            raise ValidationError("band certificates need both --gamma and --Gamma")
        elif fn is None:
            raise ValidationError("certificate 'band' needs --gamma/--Gamma or --f")
        else:
            band = fn.band(n, a, b)
        if not reads_rate(kind, n, band):
            field = None
    flag = "rate" if field == "endpoint_diff_rate" else field
    read = ("gamma", "Gamma", flag) if kind == "band" else (flag,)
    flags = ("l1", "l2", "linf", "gamma", "Gamma", "sigma", "rate")
    unread = [f"--{f}" for f in flags if f not in read and getattr(args, f, None) is not None]
    if unread:
        reader = "without --bound" if kind is None else f"by --bound {kind} at n={n}"
        raise ValidationError(f"{', '.join(unread)} not read {reader}")
    if field is None:
        return None, band
    value = getattr(args, flag, None)
    if value is not None:
        return NormData(**{field: value}, provenance="user-supplied"), band
    if fn is None:
        raise ValidationError(f"certificate {kind!r} at n={n} needs --{flag} or --f")
    if flag == "rate":
        return NormData(endpoint_diff_rate=fn.endpoint_diff_rate(n, a, b), provenance="exact"), band
    norms = fn.norm_data(n, a, b)
    if getattr(norms, field) is None:  # l2 or sigma, formed in floats
        raise ValidationError(f"certificate {kind!r} at n={n}: the {field} of {args.f} on "
                              f"[{a!r}, {b!r}] is not finite in floats; supply it with --{flag}")
    return norms, band


def _cmd_integrate(args: argparse.Namespace) -> None:
    from .functions import parse_function
    from .integrate import DEFAULT_ORACLE_TOL, _rule_panels, composite_integrate, reference_integral

    fn = parse_function(args.f)
    spec = _rule_spec(args)
    integrand = fn.integrand(args.a, args.b)

    perturbed = args.perturbed
    inputs = {"f": args.f, **_spec_inputs(spec), "panels": args.panels,
              "oracle_tol": DEFAULT_ORACLE_TOL}

    norms, band = _certificate_inputs(args, fn, spec, args.bound)
    if args.bound is None:
        value, _, _ = _rule_panels(integrand, spec, args.panels, perturbed)
    else:
        composite = composite_integrate(
            integrand, spec, args.panels, certificate=args.bound, norms=norms, band=band
        )
        if perturbed and not composite.covers_perturbed_rule:
            raise ValidationError(
                f"--perturbed is not covered by --bound {args.bound}; "
                "the certificate bounds the plain rule error"
            )
        perturbed = composite.covers_perturbed_rule  # already folded into value
        value = composite.value
    reference = reference_integral(integrand, spec.a, spec.b)
    results = {"value": value, "true_error": abs(reference - value)}
    inputs["perturbed"] = perturbed
    if args.bound is not None:
        inputs["bound"] = args.bound
        results["bound"] = composite.total_bound
        results["certificate"] = args.bound
    if args.format == "csv":
        sys.stdout.write(
            _csv_text(list(results.keys()), [list(results.values())])
        )
    else:
        _print_json(_record("integrate", inputs, results))


def _cmd_bound(args: argparse.Namespace) -> None:
    from .bounds import certify
    from .functions import parse_function

    fn = parse_function(args.f) if args.f is not None else None
    spec = _rule_spec(args)
    kind = args.bound
    cert = certify(spec, kind, *_certificate_inputs(args, fn, spec, kind))

    inputs = {**_spec_inputs(spec), "bound": kind}
    if args.f is not None:
        inputs["f"] = args.f
    _print_json(_record("bound", inputs, _certificate_payload(cert)))


def _kernel_payload(stats: KernelStats) -> dict:
    out: dict = {
        "integral": stats.integral,
        "abs_integral": stats.abs_integral,
        "max_abs": stats.max_abs,
        "l2_sq": stats.l2_sq,
    }
    if stats.centered_max_abs is not None:
        out["centered_max"] = stats.centered_max_abs
    return out


def _cmd_kernel(args: argparse.Namespace) -> None:
    from .kernel import kernel_stats_brute, kernel_stats_closed

    spec = _rule_spec(args)
    results = _kernel_payload(kernel_stats_closed(spec))
    if args.brute_force:
        results["brute"] = _kernel_payload(kernel_stats_brute(spec))
    inputs = {**_spec_inputs(spec), "brute_force": bool(args.brute_force)}
    _print_json(_record("kernel", inputs, results))


def _parse_theta_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--theta-grid expects start:step:end, got {text!r}")
    try:
        start, step, end = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--theta-grid expects floats, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(step) and math.isfinite(end)):
        raise ValidationError("--theta-grid values must be finite")
    if step <= 0.0 or end < start:
        raise ValidationError("--theta-grid needs step > 0 and end >= start")
    span = (end - start) / step + 1e-9
    if span >= 10_001:  # at most a step of 1e-4 over [0, 1], checked before listing
        raise ValidationError("--theta-grid holds more than 10001 points")
    grid = [min(start + i * step, end) for i in range(int(math.floor(span)) + 1)]
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise ValidationError("--theta-grid must stay inside [0, 1]")
    return grid


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .bounds import certify
    from .functions import parse_function
    from .integrate import reference_integral
    from .rules import apply_rule

    fn = parse_function(args.f)
    grid = _parse_theta_grid(args.theta_grid)
    integrand = fn.integrand(args.a, args.b)
    even = args.n % 2 == 0

    header = ["theta", "f_n", "true_error", *(f"bound_{kind}" for kind in CERTIFICATES)]
    if even:
        header += ["perturbation", "perturbed_error"]

    first_spec = RuleSpec(theta=grid[0], n=args.n, a=args.a, b=args.b)
    reference = reference_integral(integrand, first_spec.a, first_spec.b)
    norms = fn.norm_data(args.n, first_spec.a, first_spec.b)
    band = fn.band(args.n, first_spec.a, first_spec.b)

    rows = []
    for theta in grid:
        spec = RuleSpec(theta=theta, n=args.n, a=args.a, b=args.b)
        result = apply_rule(integrand, spec)
        row: list[object] = [theta, result.f_n_value, abs(reference - result.f_n_value)]
        row += [certify(spec, kind, norms, band).bound for kind in CERTIFICATES]
        if even:
            perturbation = result.perturbation_term or 0.0
            row.append(perturbation)
            row.append(abs(reference - result.f_n_value - perturbation))
        rows.append(row)
    sys.stdout.write(_csv_text(header, rows))


def _cmd_sharpness(args: argparse.Namespace) -> None:
    from .integrate import sharpness_check

    spec = _rule_spec(args)
    report = sharpness_check(spec, end_to_end=args.end_to_end)
    results = {"lhs": report.lhs, "rhs": report.rhs, "ratio": report.ratio}
    if report.end_to_end_error is not None:
        results["end_to_end_error"] = report.end_to_end_error
    inputs = {**_spec_inputs(spec), "end_to_end": bool(args.end_to_end)}
    _print_json(_record("sharpness", inputs, results))


_DISPATCH = {
    "integrate": _cmd_integrate,
    "bound": _cmd_bound,
    "kernel": _cmd_kernel,
    "sweep": _cmd_sweep,
    "sharpness": _cmd_sharpness,
}


def run_cli(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        _DISPATCH[args.command](args)
    except ConvergenceError as exc:
        sys.stderr.write(f"thetaquad: convergence error: {exc}\n")
        return 3
    except (ThetaQuadError, ValueError) as exc:
        sys.stderr.write(f"thetaquad: {exc}\n")
        return 2
    except OverflowError as exc:
        sys.stderr.write(f"thetaquad: floating-point overflow: {exc}\n")
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
