"""The three workloads: how one op runs and how its result is checked.

An op's ``run`` is what the closed loop times.  ``check`` runs after the
timed window and compares the op's result with an exact reference.  It
returns a failure reason (None when the op did not fail) and a list of
findings, (kind, detail) pairs for results that are wrong but do not fail
the op.

An op fails when it raised, exited with the wrong code, printed other bytes
than the in-process CLI, or missed its certificate budget by more than the
roundoff allowance of ``exact.roundoff_allowance``.  Findings are:

* cert_violations: |I_exact - value| > total_bound, with no allowance;
* true_error_mismatches, oracle_mismatches: the package oracle is further
  than ORACLE_CHECK from the exact reference;
* kernel_mismatches: kernel_stats_closed and kernel_stats_brute disagree by
  more than KERNEL_CHECK;
* sharpness_mismatches: the sharpness identity misses by more than
  SHARPNESS_CHECK.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

from thetaquad import functions, integrate, kernel, rules
from thetaquad.cli import run_cli

import corpus
import exact

#: Agreement demanded of the package oracle against the exact reference,
#: relative to 1 + |I|.  The oracle stops when two halvings differ by less
#: than 1e-12 (1 + |I|); Gauss-Legendre converges so fast that its final
#: error sits well below that difference, and 100x leaves room for it.
ORACLE_CHECK = 1e-10

#: Agreement demanded of kernel_stats_closed against kernel_stats_brute for
#: n <= 12, relative to each statistic's natural scale: s (b-a), s (b-a), s,
#: s^2 (b-a) and s for the integral, abs integral, sup, integral of K^2 and
#: centred sup, where s = (b-a)^n / (n! 2^n).  The brute
#: path loses digits to binomial cancellation as n grows (about 1e-11 at
#: n = 8); 1e-7 bounds it through n = 12 with margin.
KERNEL_CHECK = 1e-7

#: Agreement demanded of the sharpness identity: ratio lhs/rhs must be 1 to
#: this relative accuracy, and the end-to-end error must match rhs to it
#: plus ORACLE_CHECK, since it is measured with the oracle.
SHARPNESS_CHECK = 1e-7

CLI_SNIPPET = "from thetaquad.cli import main; main()"
CHILD_TIMEOUT_S = 60


def make_function(f: tuple):
    kind = f[0]
    if kind == "exp":
        return functions.Exponential()
    if kind == "sin":
        return functions.Sine(f[1])
    if kind == "runge":
        return functions.Runge()
    return functions.PolynomialFunction(f[1])


def _identity(integrand):
    return integrand


def _certificate_check(f, n, a, b, panels, value, bound, reference) -> tuple[str | None, list]:
    error = abs(reference - Fraction(value))
    if error <= Fraction(bound):
        return None, []
    finding = [("cert_violations", f"|I - value| = {float(error):.3e} > bound {bound!r}")]
    allowance = exact.roundoff_allowance(f, n, a, b, panels)
    if error > Fraction(bound) + allowance:
        return (f"|I - value| = {float(error):.3e} exceeds bound {bound!r} plus roundoff "
                f"allowance {float(allowance):.3e}"), finding
    return None, finding


class Workload:
    """A seeded corpus plus the op that runs on each of its entries."""

    name = "?"
    #: Ops over which a traced run reports exact counts.
    count_prefix = 1
    #: Whether an op's work happens in a child process.
    runs_children = False

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.ops: list[dict] = []
        self._exact: dict = {}

    def key(self, i: int) -> int:
        """The corpus entry that op i runs."""
        return i % len(self.ops)

    def op(self, i: int) -> dict:
        return self.ops[self.key(i)]

    def exact_integral(self, f: tuple, a: float, b: float) -> Fraction:
        key = (f, a, b)
        if key not in self._exact:
            self._exact[key] = exact.integral(f, a, b)
        return self._exact[key]

    def warm_up(self) -> None:
        self.run(0)

    def run(self, i: int, wrap=_identity):
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[str | None, list]:
        raise NotImplementedError


class Composite(Workload):
    """Certified composite integration at 500-8000 panels."""

    name = "composite"
    count_prefix = 16

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.ops = corpus.composite_corpus(seed)

    def warm_up(self) -> None:
        op = dict(self.ops[0], panels=50)
        self._run(op, _identity)

    def run(self, i: int, wrap=_identity):
        return self._run(self.op(i), wrap)

    @staticmethod
    def _run(op: dict, wrap):
        fn = make_function(op["f"])
        a, b, n = op["a"], op["b"], op["n"]
        spec = kernel.RuleSpec(theta=op["theta"], n=n, a=a, b=b)
        norms = fn.norm_data(n, a, b)
        band = fn.band(n, a, b) if op["cert"] == "band" else None
        result = integrate.composite_integrate(
            wrap(fn.integrand(a, b)), spec, op["panels"], op["cert"], norms=norms, band=band
        )
        return result.value, result.total_bound, result.panels, len(result.per_panel_bound)

    def check(self, i: int, result) -> tuple[str | None, list]:
        op = self.op(i)
        value, bound, panels, budgets = result
        if panels != op["panels"] or budgets != op["panels"]:
            return f"expected {op['panels']} panels, got {panels} with {budgets} budgets", []
        reference = self.exact_integral(op["f"], op["a"], op["b"])
        return _certificate_check(
            op["f"], op["n"], op["a"], op["b"], panels, value, bound, reference
        )


class Verify(Workload):
    """The verification harness at small panel counts."""

    name = "verify"
    count_prefix = 64

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.ops = corpus.verify_corpus(seed)

    def warm_up(self) -> None:
        self.run(len(corpus.WITNESSES))

    def run(self, i: int, wrap=_identity):
        op = self.op(i)
        fn = make_function(op["f"])
        a, b, n = op["a"], op["b"], op["n"]
        spec = kernel.RuleSpec(theta=op["theta"], n=n, a=a, b=b)
        norms = fn.norm_data(n, a, b)
        band = fn.band(n, a, b)
        f = wrap(fn.integrand(a, b))
        composites = tuple(
            (r.value, r.total_bound)
            for r in (
                integrate.composite_integrate(f, spec, op["panels"], cert, norms=norms, band=band)
                for cert in op["certs"]
            )
        )
        hard_f, hard_a, hard_b = op["hard"]
        hard = wrap(make_function(hard_f).integrand(hard_a, hard_b))
        hard_value = integrate.reference_integral(hard, hard_a, hard_b)
        hard_spec = kernel.RuleSpec(theta=op["theta"], n=n, a=hard_a, b=hard_b)
        hard_error = integrate.true_error(hard, hard_spec)

        kn, ktheta = op["kernel"]
        kspec = kernel.RuleSpec(theta=ktheta, n=kn, a=a, b=b)
        closed = astuple(kernel.kernel_stats_closed(kspec))
        brute = astuple(kernel.kernel_stats_brute(kspec))

        sn, stheta = op["sharpness"]
        report = integrate.sharpness_check(
            kernel.RuleSpec(theta=stheta, n=sn, a=a, b=b), end_to_end=True
        )
        sharp = (report.lhs, report.rhs, report.ratio, report.end_to_end_error)
        return composites, hard_value, hard_error, closed, brute, sharp

    def check(self, i: int, result) -> tuple[str | None, list]:
        op = self.op(i)
        composites, hard_value, hard_error, closed, brute, sharp = result
        f, a, b, n = op["f"], op["a"], op["b"], op["n"]
        reference = self.exact_integral(f, a, b)
        findings = []
        for cert, (value, bound) in zip(op["certs"], composites):
            reason, found = _certificate_check(f, n, a, b, op["panels"], value, bound, reference)
            findings += [(kind, f"{cert}: {detail}") for kind, detail in found]
            if reason:
                return f"{cert}: {reason}", findings

        hard_f, hard_a, hard_b = op["hard"]
        hard_ref = self.exact_integral(hard_f, hard_a, hard_b)
        tolerance = ORACLE_CHECK * (1 + abs(hard_ref))
        if abs(Fraction(hard_value) - hard_ref) > tolerance:
            findings.append(("oracle_mismatches",
                             f"{hard_f}: oracle {hard_value!r} vs exact {float(hard_ref)!r}"))
        hard_spec = kernel.RuleSpec(theta=op["theta"], n=n, a=hard_a, b=hard_b)
        rule_value = rules.apply_rule(make_function(hard_f).integrand(hard_a, hard_b), hard_spec)
        expected = abs(hard_ref - Fraction(rule_value.f_n_value))
        # true_error rounds |reference - F_n| once more, which matters when F_n is huge.
        if abs(Fraction(hard_error) - expected) > tolerance + 2 * exact.UNIT_ROUNDOFF * expected:
            findings.append(("true_error_mismatches",
                             f"{hard_f} n={n}: true_error {hard_error!r} vs exact "
                             f"{float(expected)!r}"))

        kn, ktheta = op["kernel"]
        s = (b - a) ** kn / (math.factorial(kn) * 2.0**kn)
        scales = (s * (b - a), s * (b - a), s, s * s * (b - a), s)
        for field, x, y, scale in zip(("integral", "abs_integral", "max_abs", "l2_sq", "centered"),
                                      closed, brute, scales):
            if (x is None) != (y is None) or (x is not None and abs(x - y) > KERNEL_CHECK * scale):
                findings.append(("kernel_mismatches",
                                 f"n={kn} theta={ktheta!r} [{a!r}, {b!r}] {field}: "
                                 f"closed {x!r} vs brute {y!r}"))
                break

        lhs, rhs, ratio, e2e = sharp
        if abs(ratio - 1.0) > SHARPNESS_CHECK or e2e is None or (
            abs(e2e - rhs) > SHARPNESS_CHECK * rhs + ORACLE_CHECK
        ):
            findings.append(("sharpness_mismatches",
                             f"{op['sharpness']}: ratio {ratio!r}, end-to-end {e2e!r} vs {rhs!r}"))
        return None, findings


def capture_cli(argv: list[str]) -> tuple[int, str]:
    """In-process run_cli: exit code and everything it printed to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue()


def child_env(root: Path) -> dict:
    """The environment of a child interpreter that imports thetaquad from src/."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv: list[str], root: Path, env: dict) -> subprocess.CompletedProcess:
    """One fresh interpreter calling thetaquad.cli.main with ``argv``."""
    return subprocess.run(
        [sys.executable, "-c", CLI_SNIPPET, *argv], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )


class Cli(Workload):
    """One-shot command-line runs, one fresh interpreter per op."""

    name = "cli"
    count_prefix = 20
    runs_children = True

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.ops = corpus.cli_corpus(seed)
        self.env = child_env(root)
        self.expected: dict[int, tuple[int, str]] = {}

    def warm_up(self) -> None:
        capture_cli(self.ops[0]["argv"])

    def run(self, i: int, wrap=_identity):
        proc = run_cli_child(self.op(i)["argv"], self.root, self.env)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()[-400:]

    def in_process(self, i: int) -> tuple[int, str]:
        """run_cli's exit code and stdout for op i, computed once per corpus entry."""
        key = self.key(i)
        if key not in self.expected:
            try:
                self.expected[key] = capture_cli(self.ops[key]["argv"])
            except Exception as exc:  # a crash is the result being compared
                self.expected[key] = (1, f"raised {type(exc).__name__}: {exc}")
        return self.expected[key]

    def check(self, i: int, result) -> tuple[str | None, list]:
        op = self.op(i)
        code, stdout, stderr = result
        if code != op["exit"]:
            return f"exit {code}, expected {op['exit']}: {stderr.strip()[-200:]}", []
        expected_code, expected_out = self.in_process(i)
        if (code, stdout) != (expected_code, expected_out):
            return "child output differs from in-process run_cli", []
        if code != 0:
            return None, []
        try:
            parsed = _parse_cli(op["sub"], stdout)
        except ValueError as exc:
            return f"unparseable output: {exc}", []
        certified = op.get("certified")
        if certified:
            results = parsed["results"]
            reference = self.exact_integral(certified["f"], certified["a"], certified["b"])
            reason, _ = _certificate_check(
                certified["f"], certified["n"], certified["a"], certified["b"],
                certified["panels"], results["value"], results["bound"], reference,
            )
            return reason, []
        return None, []


def _parse_cli(sub: str, stdout: str):
    if sub == "sweep":
        rows = [line.split(",") for line in stdout.splitlines()]
        if len(rows) != 22 or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError(f"sweep printed {len(rows)} rows")
        for row in rows[1:]:
            [float(x) for x in row]
        return rows
    return json.loads(stdout)


def probe_defects(root: Path) -> list[dict]:
    """Run the known-crash invocations once each; report how they exit."""
    env = child_env(root)
    probes = []
    for argv in corpus.DEFECT_PROBES:
        proc = run_cli_child(argv, root, env)
        last = proc.stderr.decode().strip().splitlines()[-1:] or [""]
        probes.append({"argv": argv, "exit": proc.returncode, "expected_exit": 2,
                       "failed": proc.returncode != 2, "stderr_tail": last[0][:200]})
    return probes


WORKLOADS = {w.name: w for w in (Composite, Verify, Cli)}
