"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import exact  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from thetaquad import integrate  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = HERE.parent


def small_composite(seed: int = 3) -> ops.Composite:
    """A composite workload whose first ops are cut to few panels, for speed."""
    workload = ops.Composite(seed, ROOT)
    for op in workload.ops[:4]:
        op["panels"] = 20
    return workload


def test_same_seed_gives_identical_corpus():
    for make in (corpus.composite_corpus, corpus.verify_corpus, corpus.cli_corpus):
        assert repr(make(7)) == repr(make(7))
        assert repr(make(7)) != repr(make(8))


def test_corpus_holds_the_certificate_witnesses():
    ops_ = corpus.verify_corpus(0)
    witnesses = [op for op in ops_[: len(corpus.WITNESSES)]]
    assert [w["witness"] for w in witnesses] == [0, 1, 2]
    assert witnesses[0]["f"] == ("poly", (0.1, 0.3, 0.7, 0.3)) and witnesses[0]["panels"] == 7
    assert (witnesses[2]["f"], witnesses[2]["n"], witnesses[2]["theta"], witnesses[2]["panels"],
            witnesses[2]["certs"]) == (("sin", 1.0), 40, 0.5, 2, ("l1",))


def test_exact_references():
    e_minus_1 = Fraction("1.71828182845904523536028747135266249775724709369995")
    assert abs(exact.integral(("exp",), 0.0, 1.0) - e_minus_1) < Fraction(1, 10**40)
    assert str(exact.PI).startswith("3.14159265358979323846264338327950288419716939937")
    assert abs(float(exact.integral(("runge",), -5.0, 5.0)) - 2 * math.atan(5.0)) < 1e-15
    assert abs(float(exact.integral(("sin", 100.0), 0.0, 10.0)) - (1 - math.cos(1000.0)) / 100) < 1e-15
    assert exact.integral(("poly", (1.0, 2.0, 3.0)), 0.0, 1.0) == Fraction(3)


def window_of(results: list) -> run.Window:
    """A window in which op i ran once and returned results[i]."""
    window = run.Window()
    for i, result in enumerate(results):
        window.cpu.append(0.0)
        window.results[i] = result
        window.executions[i] += 1
    return window


def test_planted_wrong_value_is_a_failed_op():
    workload = small_composite()
    good = [workload.run(i) for i in range(2)]
    assert run.check_results(workload, window_of(good))["failed"] == 0
    value, bound, panels, budgets = good[1]
    planted = (value + 10 * bound + 1e-6, bound, panels, budgets)
    checked = run.check_results(workload, window_of([good[0], planted]))
    assert checked["failed"] == 1 and checked["attempted"] == 2
    assert checked["failures"][0]["op"] == 1


def test_raised_and_unrepeatable_ops_are_failed_ops():
    workload = small_composite()
    checked = run.check_results(workload, window_of([run.Raised("ZeroDivisionError: boom")]))
    assert checked["failed"] == 1
    window = window_of([workload.run(0)])
    window.unrepeatable.append(len(workload.ops))
    window.cpu.append(0.0)
    assert run.check_results(workload, window)["failed"] == 1


def test_witnesses_show_certificate_violations():
    workload = ops.Verify(0, ROOT)
    for i in range(len(corpus.WITNESSES)):
        reason, findings = workload.check(i, workload.run(i))
        assert reason is None
        assert any(kind == "cert_violations" for kind, _ in findings)


def test_cli_output_must_match_in_process_bytes():
    workload = ops.Cli(5, ROOT)
    i = next(k for k, op in enumerate(workload.ops) if op["sub"] == "kernel")
    code, stdout = workload.in_process(i)
    assert workload.check(i, (code, stdout, "")) == (None, [])
    tampered = stdout.replace("0", "1", 1)
    assert workload.check(i, (code, tampered, ""))[0] is not None
    assert workload.check(i, (1, stdout, "Traceback"))[0] is not None
    invalid = next(k for k, op in enumerate(workload.ops) if op["exit"] == 2)
    assert workload.in_process(invalid)[0] == 2


def test_traced_and_untraced_results_are_bit_identical():
    for workload in (small_composite(), ops.Verify(4, ROOT)):
        untraced = [repr(workload.run(i)) for i in range(4)]
        tracer = Tracer()
        original = integrate.composite_integrate
        tracer.install()
        try:
            traced = [repr(tracer.op(i, workload.run, i, tracer.count_evals)) for i in range(4)]
        finally:
            tracer.uninstall()
        assert integrate.composite_integrate is original
        assert traced == untraced
        counts = tracer.counts()
        assert counts["calls"]["integrate.composite"] >= 4
        assert counts["rules.evals.order0"] > 0


def test_exact_counts_repeat():
    def counts():
        workload = small_composite()
        tracer = Tracer()
        tracer.install()
        try:
            for i in range(3):
                tracer.op(i, workload.run, i, tracer.count_evals)
        finally:
            tracer.uninstall()
        return tracer.counts()

    first = counts()
    assert first == counts()
    # apply_rule evaluates f at both ends and the middle of every panel.
    assert first["rules.evals.order0"] == 3 * first["panels"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "composite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
