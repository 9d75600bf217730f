"""Every seed-1 output of the benchmark corpora, pinned field by field.

The inputs are the seed-1 corpora of ``perfbench/corpus.py``; the outputs are
computed here through the package API, as the benchmark's workloads compute
them:

* ``composite`` (80 ops): the ``repr`` of the value, total, coverage and panel
  count, and a SHA-256 of the per-panel budgets' bytes;
* ``verify`` (402 ops): each certificate's value and total, the oracle value
  and ``true_error`` of the hard case (one integrand, read by both), all six
  ``KernelStats`` fields of the closed form and of brute force, and every
  ``SharpnessReport`` field;
* ``cli`` (120 ops, in process through ``run_cli``): the exit code and a
  SHA-256 of stdout.

An op that raises records the error's type and message instead.  On a
mismatch the test lists each op and field that moved.  The bytes include
libm results (exp, sin and atan2 in the builtins), so a mismatch on another
platform is a finding to record, not to average away.

After a change that moves bits on purpose, regenerate the file from the
repository root and name each class of move in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import struct
from dataclasses import astuple, fields
from pathlib import Path

import pytest

from thetaquad import (
    Exponential,
    KernelStats,
    PolynomialFunction,
    RuleSpec,
    Runge,
    SharpnessReport,
    Sine,
    composite_integrate,
    kernel_stats_brute,
    kernel_stats_closed,
    reference_integral,
    sharpness_check,
    true_error,
)
from thetaquad.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "corpus_seed1.json"
SEED = 1
SHOWN = 40  # moved fields listed in a failure message


def _load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus()


def _function(f: tuple):
    kind = f[0]
    if kind == "exp":
        return Exponential()
    if kind == "sin":
        return Sine(f[1])
    if kind == "runge":
        return Runge()
    return PolynomialFunction(f[1])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reprs(prefix: str, names, values) -> dict:
    return {prefix + name: repr(value) for name, value in zip(names, values)}


def composite_op(op: dict) -> dict:
    fn = _function(op["f"])
    a, b, n = op["a"], op["b"], op["n"]
    band = fn.band(n, a, b) if op["cert"] == "band" else None
    result = composite_integrate(fn.integrand(a, b), RuleSpec(op["theta"], n, a, b),
                                 op["panels"], op["cert"], norms=fn.norm_data(n, a, b),
                                 band=band)
    budgets = result.per_panel_bound
    return {
        "value": repr(result.value),
        "total": repr(result.total_bound),
        "covers": repr(result.covers_perturbed_rule),
        "panels": repr(result.panels),
        "per_panel_bound": _sha(struct.pack(f"<{len(budgets)}d", *budgets)),
    }


_STATS = [field.name for field in fields(KernelStats)]
_REPORT = [field.name for field in fields(SharpnessReport)]


def verify_op(op: dict) -> dict:
    fn = _function(op["f"])
    a, b, n = op["a"], op["b"], op["n"]
    spec = RuleSpec(op["theta"], n, a, b)
    norms, band, f = fn.norm_data(n, a, b), fn.band(n, a, b), fn.integrand(a, b)
    out = {}
    for cert in op["certs"]:
        result = composite_integrate(f, spec, op["panels"], cert, norms=norms, band=band)
        out[cert + ".value"], out[cert + ".total"] = repr(result.value), repr(result.total_bound)
    hard_f, hard_a, hard_b = op["hard"]
    hard = _function(hard_f).integrand(hard_a, hard_b)
    out["oracle"] = repr(reference_integral(hard, hard_a, hard_b))
    out["true_error"] = repr(true_error(hard, RuleSpec(op["theta"], n, hard_a, hard_b)))
    kn, ktheta = op["kernel"]
    kspec = RuleSpec(ktheta, kn, a, b)
    out.update(_reprs("closed.", _STATS, astuple(kernel_stats_closed(kspec))))
    out.update(_reprs("brute.", _STATS, astuple(kernel_stats_brute(kspec))))
    sn, stheta = op["sharpness"]
    report = sharpness_check(RuleSpec(stheta, sn, a, b), end_to_end=True)
    out.update(_reprs("sharpness.", _REPORT, astuple(report)))
    return out


def cli_op(op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(op["argv"]))
    return {"exit": repr(code), "stdout": _sha(out.getvalue().encode("utf-8"))}


WORKLOADS = {
    "composite": (corpus.composite_corpus, composite_op),
    "verify": (corpus.verify_corpus, verify_op),
    "cli": (corpus.cli_corpus, cli_op),
}


def _outputs(op_fn, op: dict) -> dict:
    try:
        return op_fn(op)
    except Exception as error:  # an error is an output like any other
        return {"error": f"{type(error).__name__}: {error}"}


def compute(name: str) -> dict:
    """The inputs' digest and every op's fields, for one workload at SEED."""
    make, op_fn = WORKLOADS[name]
    ops = make(SEED)
    return {"inputs": _sha(repr(ops).encode("utf-8")), "ops": [_outputs(op_fn, op) for op in ops]}


def moved(name: str, pinned: dict, now: dict) -> list[str]:
    """One line per field of ``now`` that differs from ``pinned``."""
    if pinned["inputs"] != now["inputs"]:
        return [f"{name}: the seed-{SEED} corpus itself changed; regenerate the file"]
    lines = []
    if len(pinned["ops"]) != len(now["ops"]):
        lines.append(f"{name}: {len(pinned['ops'])} ops pinned, {len(now['ops'])} now")
    for i, (old, new) in enumerate(zip(pinned["ops"], now["ops"])):
        for field in sorted(old.keys() | new.keys()):
            if old.get(field) != new.get(field):
                lines.append(f"{name}[{i}].{field}: {old.get(field)} -> {new.get(field)}")
    return lines


def _dump(outputs: dict) -> str:
    """JSON with one op a line, so a diff shows which ops moved."""
    blocks = []
    for name, pinned in outputs.items():
        ops = ",\n".join("   " + json.dumps(op, separators=(", ", ": ")) for op in pinned["ops"])
        blocks.append(f' "{name}": {{\n  "inputs": "{pinned["inputs"]}",\n  "ops": [\n'
                      f"{ops}\n  ]\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_seed1_corpus_output_is_pinned(golden, name):
    lines = moved(name, golden[name], compute(name))
    shown = lines[:SHOWN] + ([f"... and {len(lines) - SHOWN} more"] if len(lines) > SHOWN else [])
    assert not lines, f"{len(lines)} fields moved:\n" + "\n".join(shown)


def test_a_moved_field_is_named_with_its_op():
    pinned = {"inputs": "x", "ops": [{"value": "1.0"}, {"value": "2.0", "total": "3.0"}]}
    now = {"inputs": "x", "ops": [{"value": "1.0"}, {"value": "2.5", "total": "3.0"}]}
    assert moved("verify", pinned, now) == ["verify[1].value: 2.0 -> 2.5"]
    assert moved("cli", pinned, dict(now, inputs="y")) == [
        "cli: the seed-1 corpus itself changed; regenerate the file"]


if __name__ == "__main__":
    GOLDEN.write_text(_dump({name: compute(name) for name in WORKLOADS}))
    print(f"wrote {GOLDEN}")
