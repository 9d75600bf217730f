"""Opt-in tracing for the benchmark's traced run.

Spans are recorded only by wrappers defined here.  ``Tracer.install`` swaps
them in for the public names one thetaquad module calls in another (and for
the layer entry points the benchmark itself calls through module
attributes), and ``uninstall`` puts the originals back.  Nothing is patched
in an untraced run.

Each span has a name, start, end, parent span and op id.  Aggregates (calls,
inclusive time, self time = duration minus the time covered by child spans)
are kept for every span; the span records themselves are kept in memory for
the first SPAN_LIMIT spans and written out when the run ends.

Derivative evaluations are counted by wrapping the ``derivative_fn`` of
integrands, and attributed to the oracle when a reference_integral span is
open, to the composite engine when a composite_integrate span is open, and
to "other" otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from time import perf_counter

from thetaquad import bounds, cli, functions, integrate, kernel, poly, rules

SPAN_LIMIT = 50_000

#: Nodes of the oracle's fixed Gauss-Legendre panel; with uniform halving a
#: call that stops after L levels costs GL_NODES * (2**L - 1) evaluations.
GL_NODES = 15

_BOUND_NAMES = tuple(name for name in bounds.__all__ if name.startswith("bound_"))
_KERNEL_NAMES_IN_BOUNDS = ("closed_max_abs", "kernel_centered_max_closed", "l2_bracket", "sup_bracket")


class _CountingFunction:
    """A builtin integrand whose ``integrand()`` counts evaluations."""

    def __init__(self, fn, tracer: Tracer) -> None:
        self._fn = fn
        self._tracer = tracer

    def integrand(self, a: float, b: float):
        return self._tracer.count_evals(self._fn.integrand(a, b))

    def __getattr__(self, name: str):
        return getattr(self._fn, name)


class Tracer:
    """Spans, per-layer totals and evaluation counts of one traced window."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.evals = {"composite": Counter(), "oracle": Counter(), "other": Counter()}
        self.panels = 0
        self.oracle_levels = 0.0
        self.op_id: int | None = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._composite_depth = 0
        self._oracle_depth = 0
        self._patches: list[tuple] = []
        self.missing_targets: list[str] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict, kind: str | None = None):
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        if kind == "composite":
            self._composite_depth += 1
        elif kind == "oracle":
            self._oracle_depth += 1
            evals_before = sum(self.evals["oracle"].values())
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            if stack:
                stack[-1][1] += duration
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            if kind == "composite":
                self._composite_depth -= 1
                self.panels += args[2] if len(args) > 2 else kwargs["panels"]
            elif kind == "oracle":
                self._oracle_depth -= 1
                evals = sum(self.evals["oracle"].values()) - evals_before
                self.oracle_levels += math.log2(evals / GL_NODES + 1.0)
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((span_id, name, t0, t1, parent, self.op_id))
            else:
                self.dropped_spans += 1

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span carrying its id."""
        self.op_id = op_id
        try:
            return self.call("op", fn, args, {})
        finally:
            self.op_id = None

    def count_evals(self, integrand):
        """The same integrand, with every derivative evaluation counted."""
        inner = integrand.derivative_fn

        def derivative_fn(order: int, x: float) -> float:
            if self._oracle_depth:
                self.evals["oracle"][order] += 1
            elif self._composite_depth:
                self.evals["composite"][order] += 1
            else:
                self.evals["other"][order] += 1
            return inner(order, x)

        return rules.Integrand(
            derivative_fn=derivative_fn, domain=integrand.domain, max_order=integrand.max_order
        )

    def counts(self) -> dict:
        """Exact counts so far; they depend only on the ops run, never on time."""
        comp = self.evals["composite"]
        calls = {name: total[0] for name, total in sorted(self.totals.items())}
        oracle_calls = calls.get("integrate.oracle", 0)
        oracle_evals = sum(self.evals["oracle"].values())
        order0, higher = comp[0], sum(v for k, v in comp.items() if k > 0)
        return {
            "calls": calls,
            "evals_by_order": {
                bucket: {str(k): v for k, v in sorted(c.items())} for bucket, c in self.evals.items()
            },
            "panels": self.panels,
            "rules.evals.order0": order0,
            "rules.evals.higher": higher,
            "rules.evals.per_panel": (order0 + higher) / self.panels if self.panels else 0.0,
            "integrate.oracle.evals_per_call": oracle_evals / oracle_calls if oracle_calls else 0.0,
            "integrate.oracle.levels": self.oracle_levels / oracle_calls if oracle_calls else 0.0,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, name, t0, t1, parent, op_id in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                      "parent": parent, "op": op_id}) + "\n")

    # -- patching ------------------------------------------------------------

    def _targets(self) -> list[tuple]:
        """(owner, attribute, span name, kind, result hook) for every wrapper."""
        counted = self.count_evals
        targets = []
        for mod in (integrate, cli):
            targets += [
                (mod, "composite_integrate", "integrate.composite", "composite", None),
                (mod, "reference_integral", "integrate.oracle", "oracle", None),
                (mod, "sharpness_check", "integrate.sharpness", None, None),
                (mod, "apply_rule", "rules.apply_rule", None, None),
                (mod, "kernel_stats_closed", "kernel.closed", None, None),
                (mod, "kernel_stats_brute", "kernel.brute", None, None),
            ]
        targets += [
            (integrate, "true_error", "integrate.true_error", None, None),
            (integrate, "extremal_integrand", "integrate.extremal_integrand", None, counted),
            (kernel, "kernel_stats_closed", "kernel.closed", None, None),
            (kernel, "kernel_stats_brute", "kernel.brute", None, None),
            (rules, "perturbation_term", "rules.perturbation_term", None, None),
            (poly.PiecewisePolynomial, "norm_stats", "poly.norm_stats", None, None),
            (cli, "parse_function", "functions.parse_function", None,
             lambda fn: _CountingFunction(fn, self)),
        ]
        targets += [(bounds, name, "bounds.cert", None, None) for name in _BOUND_NAMES]
        targets += [(bounds, name, "kernel.closed", None, None) for name in _KERNEL_NAMES_IN_BOUNDS]
        for cls in (functions.AnalyticFunction, functions.PolynomialFunction):
            targets += [
                (cls, "norm_data", "functions.norm_data", None, None),
                (cls, "band", "functions.band", None, None),
            ]
        return targets

    def _wrapper(self, name: str, fn, kind: str | None, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, kind)
            return hook(result) if hook is not None else result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, kind, hook in self._targets():
            original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
            if original is None:
                self.missing_targets.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, kind, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
