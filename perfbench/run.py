"""Layered benchmark for thetaquad: certified integration, its verification
harness, and one-shot CLI runs.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload composite|verify|cli --seed N \
        --seconds S --trace 0|1

Load: one caller in a closed loop, in this process, with no extra threads;
the next op starts only after the previous one returns.  The ``cli``
workload starts one child interpreter per op, one at a time.

``--trace 0`` runs ops for S seconds (and at least MIN_OPS ops, within
MAX_STRETCH times S) and reports the end-to-end metrics.  ``--trace 1`` runs
the same ops untraced for S/2 seconds and then traced (see ``tracing.py``)
for S/2 seconds, and reports per-layer metrics plus the tracing overhead.
After the timed window every result is checked against an exact reference
(see ``ops.py``, ``exact.py``).

Op times, ops_per_s and setup_s are CPU seconds (user + system) of the
process doing the work: this one, or for a cli op its child.  Wall time on a
shared virtual machine also counts time the hypervisor hands to other guests
(steal), which swung 4-second wall timings of identical work by up to 60%
on a 2-vCPU guest while their CPU time moved by about 15%.  The report line
carries the wall-clock figures as well.

Output: a one-line JSON report with every measured figure, sample counts,
counts of evaluations and the environment, then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The report
(and, for traced runs, the spans) also land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Fewest ops a run measures, so that at least ten samples lie beyond
#: op_ms_p90, unless reaching them would stretch the window past
#: MAX_STRETCH times --seconds (on a heavily loaded machine).
MIN_OPS = 100
MAX_STRETCH = 2.0
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_RUNS = 5
#: Repeats of each separate CLI layer timing in a traced run.
LAYER_REPEATS = 5

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "peak_rss_mb": "MB", "trace.overhead_pct": "%"}

# Per-layer metrics reported on the result line of a traced run.  Left to the
# report line are figures that read the same on every run of some workload:
# timings of layers it never enters (the oracle, sharpness and brute-force
# kernel on composite; numpy's import once numpy is gone) and call counts
# fixed by the corpus design (composite and oracle calls, brute-force calls).
PER_LAYER = (
    "integrate.composite.self_us_per_panel",
    "rules.apply_rule.calls", "rules.apply_rule.us_per_call", "rules.perturbation_term.calls",
    "rules.evals.order0", "rules.evals.higher", "rules.evals.per_panel",
    "bounds.cert.calls", "bounds.cert.us_per_call",
    "kernel.closed.calls", "kernel.closed.us_per_call",
    "poly.norm_stats.calls", "poly.norm_stats.ms_per_call",
    "functions.norm_data.us_per_call", "functions.band.us_per_call",
    "cli.interpreter_ms", "cli.import_ms",
    "cli.run_cli_ms.kernel", "cli.run_cli_ms.bound", "cli.run_cli_ms.integrate",
    "cli.run_cli_ms.sweep", "cli.run_cli_ms.sharpness",
    "trace.overhead_pct",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("composite", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if "us_per" in name:
        return "us"
    if "ms_per" in name or "_ms" in name:
        return "ms"
    return "count"


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "seed": seed}


# -- the closed loop -----------------------------------------------------------


def children_cpu_s() -> float:
    """CPU seconds (user + system) of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class Raised:
    """The result of an op that raised instead of returning."""

    error: str


class Window:
    """Ops run back to back for a fixed wall time.

    Per op it keeps the CPU time and the wall time.  Results are kept once
    per corpus entry, with how often the entry ran; a repeat whose result
    differs from the first run of its entry is recorded as a failure.
    """

    def __init__(self) -> None:
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.results: dict[int, object] = {}
        self.executions: Counter = Counter()
        self.unrepeatable: list[int] = []
        self.elapsed = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.cpu) / math.fsum(self.cpu)


def run_window(workload, seconds: float, tracer=None, min_ops: int = 1, on_op=None,
               stretch: float = math.inf) -> Window:
    """Run ops for ``seconds`` and at least ``min_ops`` ops, but stop adding ops
    after ``stretch`` times ``seconds``."""
    window = Window()
    wrap = tracer.count_evals if tracer else (lambda integrand: integrand)
    cpu_clock = children_cpu_s if workload.runs_children else time.process_time
    start = perf_counter()
    deadline, last_call = start + seconds, start + stretch * seconds
    i = 0
    while (i < min_ops and perf_counter() < last_call) or perf_counter() < deadline:
        w0, c0 = perf_counter(), cpu_clock()
        try:
            if tracer:
                result = tracer.op(i, workload.run, i, wrap)
            else:
                result = workload.run(i, wrap)
        except Exception as exc:  # the op failed; the loop keeps going
            result = Raised(f"{type(exc).__name__}: {exc}")
        window.cpu.append(cpu_clock() - c0)
        window.wall.append(perf_counter() - w0)
        key = workload.key(i)
        if key not in window.results:
            window.results[key] = result
        elif result != window.results[key]:
            window.unrepeatable.append(i)
        window.executions[key] += 1
        i += 1
        if on_op:
            on_op(i)
    window.elapsed = perf_counter() - start
    return window


def check_results(workload, window: Window) -> dict:
    """Failures and findings over every op of a window (see ``ops``)."""
    failed, reasons = len(window.unrepeatable), []
    findings: Counter = Counter()
    examples: dict[str, list] = {}
    if window.unrepeatable:
        reasons.append({"op": window.unrepeatable[0], "reason": "repeat gave another result"})
    for key, result in window.results.items():
        if isinstance(result, Raised):
            reason, found = f"raised {result.error}", []
        else:
            reason, found = workload.check(key, result)
        runs = window.executions[key]
        for kind, detail in found:
            findings[kind] += runs
            kept = examples.setdefault(kind, [])
            if len(kept) < 3:
                kept.append({"op": key, "detail": detail})
        if reason:
            failed += runs
            if len(reasons) < 10:
                reasons.append({"op": key, "reason": reason})
    attempted = len(window.cpu)
    return {"attempted": attempted, "failed": failed, "failed_op_rate": failed / attempted,
            "cert_violations": findings["cert_violations"], "findings": dict(findings),
            "examples": examples, "failures": reasons}


def latency(window: Window) -> dict:
    cpu = sorted(t * 1e3 for t in window.cpu)
    wall = sorted(t * 1e3 for t in window.wall)
    p90 = percentile(cpu, 0.90)
    return {"ops": len(cpu), "ops_per_s": window.ops_per_s, "op_ms_p50": percentile(cpu, 0.50),
            "op_ms_p90": p90, "samples_beyond_p90": sum(1 for x in cpu if x > p90),
            "op_ms_mean": statistics.fmean(cpu), "window_s": window.elapsed,
            "wall_ops_per_s": len(wall) / window.elapsed,
            "wall_op_ms_p50": percentile(wall, 0.50), "wall_op_ms_p90": percentile(wall, 0.90)}


# -- separate timings ----------------------------------------------------------


def _child_cpu_s(cmd: list[str], env: dict | None = None) -> tuple[float, str]:
    """CPU seconds one child process spent, and what it wrote to stderr."""
    before = children_cpu_s()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)
    return children_cpu_s() - before, proc.stderr.decode()


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU seconds fresh benchmark processes use before their first op.

    Each child sets up exactly as a run does (interpreter start, imports,
    corpus, warm-up), then reports the CPU time it has used and exits.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    cpu = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-300:]}")
        cpu.append(float(words[1]))
    return cpu


def _numpy_import_ms(stderr: str) -> float:
    """Cumulative import time of the top-level numpy package, from -X importtime."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e3
    return 0.0


def cli_layers(seed: int) -> dict:
    """Interpreter, import and in-process run_cli costs behind one CLI op (CPU ms)."""
    import corpus
    import ops

    env = ops.child_env(ROOT)
    exe = sys.executable
    bare = [_child_cpu_s([exe, "-c", "pass"])[0] for _ in range(LAYER_REPEATS)]
    imported = [_child_cpu_s([exe, "-c", "import thetaquad"], env)[0]
                for _ in range(LAYER_REPEATS)]
    numpy_ms = [_numpy_import_ms(_child_cpu_s([exe, "-X", "importtime", "-c", "import thetaquad"],
                                              env)[1])
                for _ in range(LAYER_REPEATS)]
    out = {"cli.interpreter_ms": statistics.median(bare) * 1e3,
           "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1e3,
           "cli.import_numpy_ms": statistics.median(numpy_ms)}
    cli_ops = corpus.cli_corpus(seed)
    for sub in corpus.CLI_SUBCOMMANDS:
        argv = next(op["argv"] for op in cli_ops if op["sub"] == sub and op["exit"] == 0)
        samples = []
        for _ in range(LAYER_REPEATS):
            c0 = time.process_time()
            ops.capture_cli(argv)
            samples.append(time.process_time() - c0)
        out[f"cli.run_cli_ms.{sub}"] = statistics.median(samples) * 1e3
    return out


def layer_metrics(tracer, counts: dict, traced_ops: int) -> dict:
    """Per-layer figures: exact counts over the count prefix, times over the traced window."""
    totals = tracer.totals

    def per_call(name: str, scale: float) -> float:
        calls, inclusive, _ = totals.get(name, (0, 0.0, 0.0))
        return inclusive / calls * scale if calls else 0.0

    calls = counts["calls"]
    composite_self = totals.get("integrate.composite", (0, 0.0, 0.0))[2]
    out = {
        "integrate.composite.calls": calls.get("integrate.composite", 0),
        "integrate.composite.self_us_per_panel":
            composite_self / tracer.panels * 1e6 if tracer.panels else 0.0,
        "integrate.oracle.calls": calls.get("integrate.oracle", 0),
        "integrate.oracle.ms_per_call": per_call("integrate.oracle", 1e3),
        "integrate.oracle.evals_per_call": counts["integrate.oracle.evals_per_call"],
        "integrate.oracle.levels": counts["integrate.oracle.levels"],
        "integrate.sharpness.ms_per_call": per_call("integrate.sharpness", 1e3),
        "rules.apply_rule.calls": calls.get("rules.apply_rule", 0),
        "rules.apply_rule.us_per_call": per_call("rules.apply_rule", 1e6),
        "rules.perturbation_term.calls": calls.get("rules.perturbation_term", 0),
        "rules.evals.order0": counts["rules.evals.order0"],
        "rules.evals.higher": counts["rules.evals.higher"],
        "rules.evals.per_panel": counts["rules.evals.per_panel"],
        "bounds.cert.calls": calls.get("bounds.cert", 0),
        "bounds.cert.us_per_call": per_call("bounds.cert", 1e6),
        "kernel.closed.calls": calls.get("kernel.closed", 0),
        "kernel.closed.us_per_call": per_call("kernel.closed", 1e6),
        "kernel.brute.calls": calls.get("kernel.brute", 0),
        "kernel.brute.ms_per_call": per_call("kernel.brute", 1e3),
        "poly.norm_stats.calls": calls.get("poly.norm_stats", 0),
        "poly.norm_stats.ms_per_call": per_call("poly.norm_stats", 1e3),
        "functions.norm_data.us_per_call": per_call("functions.norm_data", 1e6),
        "functions.band.us_per_call": per_call("functions.band", 1e6),
    }
    out["self_us_per_call"] = {name: t[2] / t[0] * 1e6 for name, t in sorted(totals.items())}
    out["traced_ops"] = traced_ops
    return out


# -- one run -------------------------------------------------------------------


def setup(workload_name: str, seed: int):
    import ops

    workload = ops.WORKLOADS[workload_name](seed, ROOT)
    workload.warm_up()
    return workload


def _merge_checks(first: dict, second: dict, extra_failures: int) -> dict:
    merged = {key: first[key] + second[key] for key in ("attempted", "failed", "cert_violations")}
    merged["failed"] += extra_failures
    merged["failed_op_rate"] = merged["failed"] / merged["attempted"]
    merged["findings"] = dict(Counter(first["findings"]) + Counter(second["findings"]))
    merged["examples"] = {kind: (first["examples"].get(kind, []) + second["examples"].get(kind, []))[:3]
                          for kind in merged["findings"]}
    merged["failures"] = (first["failures"] + second["failures"])[:10]
    return merged


def run_untraced(workload, args: argparse.Namespace, report: dict) -> dict:
    window = run_window(workload, args.seconds, min_ops=MIN_OPS, stretch=MAX_STRETCH)
    peak_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
    ).ru_maxrss
    report["latency"] = latency(window)
    report["setup_cpu_s"] = measure_setup(args.workload, args.seed)
    report["check"] = check_results(workload, window)
    return {"setup_s": statistics.median(report["setup_cpu_s"]),
            "ops_per_s": window.ops_per_s,
            "op_ms_p50": report["latency"]["op_ms_p50"],
            "op_ms_p90": report["latency"]["op_ms_p90"],
            "peak_rss_mb": peak_kb / 1024.0}


def run_traced(workload, args: argparse.Namespace, report: dict) -> dict:
    from tracing import Tracer

    untraced = run_window(workload, args.seconds / 2)
    tracer = Tracer()
    counts: dict = {}

    def snapshot(done: int) -> None:
        if done == workload.count_prefix:
            counts.update(tracer.counts())

    tracer.install()
    try:
        traced = run_window(workload, args.seconds / 2, tracer,
                            min_ops=workload.count_prefix, on_op=snapshot)
        if workload.runs_children:
            # Child processes cannot be traced: the layers are traced through
            # the in-process runs that the children's outputs are checked against.
            counts.clear()
            for done, key in enumerate(sorted(traced.results), start=1):
                tracer.op(key, workload.in_process, key)
                snapshot(done)
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    # Both windows walk the corpus from its start, so their common entries must agree.
    mismatched = [key for key, result in traced.results.items()
                  if key in untraced.results and result != untraced.results[key]]
    report["untraced"] = latency(untraced)
    report["traced"] = latency(traced)
    report["counts"] = dict(counts, prefix_ops=workload.count_prefix)
    report["spans"] = {"recorded": len(tracer.spans), "dropped": tracer.dropped_spans,
                       "missing_targets": tracer.missing_targets}
    report["trace_mismatches"] = mismatched[:10]
    layers = layer_metrics(tracer, counts, len(traced.cpu))
    layers.update(cli_layers(args.seed))
    layers["trace.overhead_pct"] = (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0
    report["layers"] = layers
    report["check"] = _merge_checks(check_results(workload, untraced),
                                    check_results(workload, traced), len(mismatched))
    return {name: layers[name] for name in PER_LAYER}


def run(args: argparse.Namespace) -> dict:
    import ops

    workload = setup(args.workload, args.seed)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(args.seed),
                    "corpus_ops": len(workload.ops),
                    "load": "closed loop, 1 caller, no extra threads"}
    if args.trace:
        report["metrics"] = run_traced(workload, args, report)
    else:
        report["metrics"] = run_untraced(workload, args, report)
    if args.workload == "cli":
        report["defect_probes"] = ops.probe_defects(ROOT)
    return report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "thetaquad" / "__init__.py").is_file():
        print(f"perfbench: no thetaquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", own_cpu_s(), flush=True)
        return 0

    report = run(args)
    checked = report["check"]
    OUT_DIR.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": report}))
    result = {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
