import csv
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from thetaquad import (
    CERTIFICATES, ConvergenceError, Exponential, RuleSpec, Runge, composite_integrate,
)
from thetaquad.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- golden


@pytest.mark.parametrize(
    "name,argv",
    [
        (
            "kernel_n2_theta_third.json",
            ["kernel", "--n", "2", "--theta", "0.333333333333", "--a", "0", "--b", "1"],
        ),
        (
            "integrate_exp_midpoint.json",
            ["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0",
             "--b", "1", "--panels", "1", "--bound", "linf",
             "--linf", "2.718281828459045"],
        ),
        (
            "sharpness_n1_averaged.json",
            ["sharpness", "--n", "1", "--theta", "0.5", "--a", "0", "--b", "1"],
        ),
    ],
)
def test_golden_outputs_byte_for_byte(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_golden_values_still_mean_what_they_say():
    """Guard the stored files themselves against accidental regeneration."""
    kernel = json.loads((GOLDEN / "kernel_n2_theta_third.json").read_text())
    res = kernel["results"]
    assert abs(res["integral"]) < 1e-12
    assert res["abs_integral"] == pytest.approx(1.0 / 81.0, rel=1e-9)
    assert res["max_abs"] == pytest.approx(1.0 / 24.0, rel=1e-9)
    assert res["l2_sq"] == pytest.approx(1.0 / 4320.0, rel=1e-9)
    assert res["centered_max"] == pytest.approx(1.0 / 24.0, rel=1e-9)

    integ = json.loads((GOLDEN / "integrate_exp_midpoint.json").read_text())
    res = integ["results"]
    assert res["value"] == pytest.approx(math.sqrt(math.e), rel=1e-12)
    assert res["bound"] == pytest.approx(math.e / 24.0, rel=1e-12)
    # The oracle returns the correctly rounded e - 1, and true_error is one
    # subtraction away from it, so it sits within a few ulps of the exact
    # e - 1 - value.
    with localcontext() as ctx:
        ctx.prec = 40
        e_minus_1 = Decimal(1).exp() - 1
        exact_error = e_minus_1 - Decimal(res["value"])
    assert res["true_error"] + res["value"] == float(e_minus_1)
    assert abs(Decimal(res["true_error"]) - exact_error) <= 8 * Decimal(
        math.ulp(res["true_error"])
    )

    # Both sides are int K^2 = 1/48, rounded once: lhs from the exact kernel,
    # rhs from the closed form.
    sharp = json.loads((GOLDEN / "sharpness_n1_averaged.json").read_text())
    res = sharp["results"]
    assert res["lhs"] == res["rhs"] == float(Fraction(1, 48))
    assert res["ratio"] == 1.0


def test_identical_args_produce_identical_bytes(capsys):
    argv = ["sweep", "--f", "runge", "--n", "3", "--a", "-1", "--b", "2",
            "--theta-grid", "0:0.1:1"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------- structure


def test_json_record_structure(capsys):
    record = run_json(
        capsys, "kernel", "--n", "3", "--theta", "0.5", "--a", "0", "--b", "2"
    )
    assert record["schema_version"] == "1"
    assert record["command"] == "kernel"
    assert record["inputs"]["n"] == 3
    assert "centered_max" not in record["results"]  # odd order


def test_numbers_round_trip_through_json(capsys):
    record = run_json(
        capsys, "integrate", "--f", "exp", "--n", "1", "--theta", "0.5",
        "--a", "0", "--b", "1",
    )
    value = record["results"]["value"]
    assert value == float(repr(value))  # full precision survived


def test_kernel_brute_force_cross_check(capsys):
    record = run_json(
        capsys, "kernel", "--n", "2", "--theta", "0.25", "--a", "0", "--b", "1",
        "--brute-force",
    )
    res = record["results"]
    assert "brute" in res
    for key in ("integral", "abs_integral", "max_abs", "l2_sq", "centered_max"):
        assert res["brute"][key] == pytest.approx(res[key], rel=1e-9, abs=1e-15)


def test_rule_presets_match_explicit_theta(capsys):
    by_rule = run_json(
        capsys, "integrate", "--f", "runge", "--n", "2", "--rule", "simpson",
        "--a", "0", "--b", "1",
    )
    by_theta = run_json(
        capsys, "integrate", "--f", "runge", "--n", "2",
        "--theta", repr(1.0 / 3.0), "--a", "0", "--b", "1",
    )
    assert by_rule["results"] == by_theta["results"]


# ---------------------------------------------------------------- integrate


def test_integrate_perturbed_value(capsys):
    record = run_json(
        capsys, "integrate", "--f", "exp", "--n", "2", "--theta", "0",
        "--a", "0", "--b", "1", "--perturbed",
    )
    expected = math.sqrt(math.e) + (math.e - 1.0) / 24.0
    assert record["results"]["value"] == pytest.approx(expected, rel=1e-13)
    assert record["inputs"]["perturbed"] is True


def test_integrate_csv_format(capsys):
    code, out, err = run(
        capsys, "integrate", "--f", "exp", "--n", "2", "--theta", "0",
        "--a", "0", "--b", "1", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    header, data = rows
    assert "value" in header and "true_error" in header
    value = float(data[header.index("value")])
    assert value == pytest.approx(math.sqrt(math.e), rel=1e-12)


def test_integrate_with_band_certificate(capsys):
    record = run_json(
        capsys, "integrate", "--f", "exp", "--n", "3", "--theta", "1",
        "--a", "0", "--b", "1", "--panels", "4", "--bound", "band",
    )
    res = record["results"]
    assert res["true_error"] <= res["bound"]
    assert res["certificate"] == "band"


def test_bound_flags_override_builtin_metadata(capsys):
    loose = run_json(
        capsys, "integrate", "--f", "exp", "--n", "2", "--theta", "0",
        "--a", "0", "--b", "1", "--bound", "linf", "--linf", "10.0",
    )
    exact = run_json(
        capsys, "integrate", "--f", "exp", "--n", "2", "--theta", "0",
        "--a", "0", "--b", "1", "--bound", "linf",
    )
    # explicit norm 10 > exact sup norm e, so the bound must scale up
    ratio = loose["results"]["bound"] / exact["results"]["bound"]
    assert ratio == pytest.approx(10.0 / math.e, rel=1e-12)


# ---------------------------------------------------------------- bound


def test_bound_command_emits_certificate_only(capsys):
    record = run_json(
        capsys, "bound", "--bound", "l1", "--n", "3", "--theta", repr(1.0 / 3.0),
        "--a", "0", "--b", "1", "--l1", "1.0",
    )
    res = record["results"]
    assert res["bound"] == pytest.approx(1.0 / 324.0, rel=1e-12)
    assert res["theorem"] == "L1"
    assert res["rigor"] == "rigorous"
    assert "value" not in res


def test_bound_band_even_uses_perturbed_certificate(capsys):
    record = run_json(
        capsys, "bound", "--bound", "band", "--n", "2", "--theta", "0.5",
        "--a", "0", "--b", "1", "--gamma", "-1", "--Gamma", "2", "--rate", "0.5",
    )
    res = record["results"]
    assert res["theorem"].startswith("PerturbedEven")
    assert res["covers_perturbed_rule"] is True
    assert res["bound"] == pytest.approx(0.03125, rel=1e-12)
    assert math.isfinite(res["band_edge"])


def test_bound_band_odd(capsys):
    record = run_json(
        capsys, "bound", "--bound", "band", "--n", "3", "--theta", "0.5",
        "--a", "0", "--b", "1", "--gamma", "-1", "--Gamma", "2",
    )
    res = record["results"]
    assert res["theorem"] == "BandOdd"
    assert res["bound"] == pytest.approx(1.0 / 128.0, rel=1e-12)
    assert res["gamma"] == -1.0 and res["Gamma"] == 2.0


def test_bound_band_odd_one_sided(capsys):
    # the classical trapezoid constant (n - 1) / (n! 2^n) = 1/24 at n = 3
    record = run_json(
        capsys, "bound", "--bound", "band", "--n", "3", "--theta", "1",
        "--a", "0", "--b", "1", "--gamma", "0", "--Gamma", "inf", "--rate", "1",
    )
    res = record["results"]
    assert res["theorem"] == "OneSidedOddLower"
    assert res["covers_perturbed_rule"] is False
    assert res["bound"] == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert (res["side"], res["band_edge"], res["endpoint_diff_rate"]) == ("lower", 0.0, 1.0)


def test_odd_half_infinite_band_reads_the_rate_of_f(capsys):
    band = ["--bound", "band", "--gamma", "1", "--Gamma", "inf"]
    interval = ["--n", "3", "--theta", "0.5", "--a", "0", "--b", "1"]
    bound = run_json(capsys, "bound", "--f", "exp", *band, *interval)["results"]
    assert bound["theorem"] == "OneSidedOddLower"
    assert bound["endpoint_diff_rate"] == Exponential().endpoint_diff_rate(3, 0.0, 1.0)
    res = run_json(capsys, "integrate", "--f", "exp", *band, *interval, "--panels", "4")
    assert res["results"]["true_error"] <= res["results"]["bound"]


@pytest.mark.parametrize("n, Gamma", [(2, "2"), (3, "inf")])
def test_missing_band_rate_names_its_flags(capsys, n, Gamma):
    code, out, err = run(
        capsys, "bound", "--bound", "band", "--n", str(n), "--theta", "0.5",
        "--a", "0", "--b", "1", "--gamma", "-1", "--Gamma", Gamma,
    )
    assert (code, out) == (2, "")
    assert err == f"thetaquad: certificate 'band' at n={n} needs --rate or --f\n"


def test_bound_sharp_from_builtin_sigma(capsys):
    record = run_json(
        capsys, "bound", "--bound", "sharp", "--f", "exp", "--n", "1",
        "--theta", "0.5", "--a", "0", "--b", "1",
    )
    assert record["results"]["bound"] > 0.0


def test_bound_l1_of_a_cubic_with_a_far_root(capsys):
    # f' has a root near 160 on [0, 1000]: a grid-and-tolerance root finder
    # once bisected this bracket forever
    record = run_json(
        capsys, "bound", "--f",
        "poly:0.0,-348.40702727723703,1.1936488591464942,-0.0002707602754838434",
        "--n", "1", "--theta", "0.5", "--a", "0", "--b", "1000", "--bound", "l1",
    )
    assert record["results"]["l1"] == 627151.5444602959


@pytest.mark.parametrize("kind", CERTIFICATES)
@pytest.mark.parametrize("n", range(1, 7))
def test_every_entry_point_prints_the_same_budget(capsys, n, kind):
    """composite_integrate at one panel, bound --f and the sweep column agree."""
    fn, a, b, theta = Runge(), -1.0, 2.0, 0.25
    composite = composite_integrate(
        fn.integrand(a, b), RuleSpec(theta=theta, n=n, a=a, b=b), panels=1,
        certificate=kind, norms=fn.norm_data(n, a, b), band=fn.band(n, a, b),
    )
    interval = ["--n", str(n), "--a", repr(a), "--b", repr(b)]
    bound = run_json(
        capsys, "bound", "--f", "runge", "--bound", kind, "--theta", repr(theta), *interval
    )
    _, out, _ = run(
        capsys, "sweep", "--f", "runge", "--theta-grid", f"{theta}:1:{theta}", *interval
    )
    header, row = list(csv.reader(io.StringIO(out)))
    assert bound["results"]["bound"] == composite.total_bound
    assert float(row[header.index(f"bound_{kind}")]) == composite.total_bound


# ---------------------------------------------------------------- sweep


def test_sweep_csv_row_count_matches_grid(capsys):
    code, out, err = run(
        capsys, "sweep", "--f", "sin", "--n", "2", "--a", "0", "--b", "1",
        "--theta-grid", "0:0.1:1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 12  # header + 11 grid points
    header = rows[0]
    assert header[0] == "theta"
    for col in ("f_n", "true_error", "bound_l1", "bound_l2", "bound_linf",
                "bound_band", "bound_sharp"):
        assert col in header
    thetas = [float(r[0]) for r in rows[1:]]
    assert thetas[0] == 0.0 and thetas[-1] == 1.0


def test_sweep_even_order_reports_perturbation_columns(capsys):
    _, out, _ = run(
        capsys, "sweep", "--f", "exp", "--n", "2", "--a", "0", "--b", "1",
        "--theta-grid", "0:0.5:1",
    )
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert "perturbation" in header and "perturbed_error" in header
    # at theta = 1/3 the perturbation changes sign; at the grid ends it is
    # positive (theta=0) and negative (theta=1) for increasing slopes
    pert = [float(r[header.index("perturbation")]) for r in rows[1:]]
    assert pert[0] > 0.0 > pert[-1]


def test_sweep_odd_order_omits_perturbation_columns(capsys):
    _, out, _ = run(
        capsys, "sweep", "--f", "exp", "--n", "3", "--a", "0", "--b", "1",
        "--theta-grid", "0:0.5:1",
    )
    header = list(csv.reader(io.StringIO(out)))[0]
    assert "perturbation" not in header


def test_sweep_bounds_dominate_true_error(capsys):
    _, out, _ = run(
        capsys, "sweep", "--f", "runge", "--n", "4", "--a", "-1", "--b", "2",
        "--theta-grid", "0:0.25:1",
    )
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    for row in rows[1:]:
        err = float(row[header.index("true_error")])
        for col in ("bound_l1", "bound_l2", "bound_linf"):
            assert err <= float(row[header.index(col)]) + 1e-12
        # band and sharp cover the corrected rule for even orders
        perr = float(row[header.index("perturbed_error")])
        for col in ("bound_band", "bound_sharp"):
            assert perr <= float(row[header.index(col)]) + 1e-12


# ---------------------------------------------------------------- sharpness


def test_sharpness_end_to_end_flag(capsys):
    record = run_json(
        capsys, "sharpness", "--n", "2", "--theta", "0.25", "--a", "0", "--b", "1",
        "--end-to-end",
    )
    res = record["results"]
    assert res["ratio"] == pytest.approx(1.0, abs=1e-10)
    assert res["end_to_end_error"] == res["lhs"]


@pytest.mark.parametrize("n", range(1, 31))
def test_sharpness_end_to_end_equals_lhs_at_every_order(capsys, n):
    record = run_json(
        capsys, "sharpness", "--n", str(n), "--theta", "0.3", "--a", "-0.5", "--b", "1.25",
        "--end-to-end",
    )
    assert record["results"]["end_to_end_error"] == record["results"]["lhs"]


# ---------------------------------------------------------------- negative values


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bound", "--bound", "band", "--n", "3", "--theta", "0.5", "--a", "0", "--b", "1",
          "--gamma", "-inf", "--Gamma", "2", "--rate", "1"], "--gamma"),
        (["kernel", "--n", "2", "--theta", "0.5", "--a", "-1e-3", "--b", "1"], "--a"),
        (["kernel", "--n", "2", "--theta", "0.5", "--a", "-1E5", "--b", "1"], "--a"),
        (["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "-1e-3",
          "--b", "1"], "--a"),
        (["bound", "--f", "exp", "--bound", "l1", "--n", "3", "--theta", "0.5", "--b", "1",
          "--a", "-1E-1"], "--a"),
        (["sweep", "--f", "sin", "--n", "2", "--a", "-1e-3", "--b", "1",
          "--theta-grid", "0:0.5:1"], "--a"),
        (["sharpness", "--n", "2", "--theta", "0.5", "--a", "-1e-3", "--b", "1"], "--a"),
    ],
)
def test_negative_values_in_every_form_parse_as_values(capsys, argv, flag):
    """argparse alone reads only -12 and -1.5 as numbers; -inf, -1e-3 and
    -1E5 are values too, with the bytes of the --flag=value form."""
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *joined) == (0, out, "")


# ---------------------------------------------------------------- failures


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],  # unknown subcommand
        ["integrate", "--f", "exp", "--n", "2", "--a", "0", "--b", "1"],  # no theta
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--rule",
         "simpson", "--a", "0", "--b", "1"],  # both selectors
        ["integrate", "--f", "exp", "--n", "2", "--theta", "1.5", "--a", "0",
         "--b", "1"],  # theta outside [0, 1]
        ["integrate", "--f", "nope", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1"],  # unknown builtin
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "1",
         "--b", "0"],  # reversed interval
        ["sweep", "--f", "exp", "--n", "2", "--a", "0", "--b", "1",
         "--theta-grid", "0:0.1:2"],  # grid leaves [0, 1]
        ["sweep", "--f", "exp", "--n", "2", "--a", "0", "--b", "1",
         "--theta-grid", "0;0.1;1"],  # malformed grid syntax
        ["sweep", "--f", "exp", "--n", "2", "--a", "0", "--b", "1",
         "--theta-grid", "0:1e-300:1"],  # 1e300 points, refused before listing
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0",
         "--b", "1", "--perturbed", "--bound", "linf"],  # bound does not cover it
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1", "--panels", "0"],  # no panels
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1", "--panels", "-3"],  # negative panel count
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1", "--bound", "band", "--rate", "0.5"],  # --rate belongs to bound
        ["kernel", "--n", "150", "--theta", "0.5", "--a", "0",
         "--b", "1"],  # 2**n * n! overflows
        ["kernel", "--n", "171", "--theta", "0.5", "--a", "0",
         "--b", "1"],  # n! overflows a float
        ["sharpness", "--n", "150", "--theta", "0.5", "--a", "0",
         "--b", "1"],  # kernel scale overflows
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0",
         "--b", "800"],  # exp(800) overflows
        ["bound", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1e300", "--bound", "linf"],  # exp(1e300) overflows
        ["integrate", "--f", "poly:1e308,1e308", "--n", "2", "--theta", "0.5",
         "--a", "0", "--b", "1"],  # f(1) is inf
        ["bound", "--bound", "linf", "--linf", "1", "--l1", "7", "--gamma", "3",
         "--rate", "5", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1"],  # linf reads none of --l1, --gamma, --rate
        ["bound", "--bound", "band", "--n", "3", "--gamma", "-1", "--Gamma", "2",
         "--rate", "5", "--theta", "0.5", "--a", "0",
         "--b", "1"],  # a two-sided odd-n band reads no --rate
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1", "--bound", "l1", "--linf", "3"],  # l1 reads no --linf
        ["integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1", "--linf", "3"],  # no certificate reads no norm flag
        ["sharpness", "--n", "2", "--theta", "0.5", "--a", "0",
         "--b", "1e-100"],  # the sharp bound underflows to 0.0
        ["sharpness", "--n", "1", "--theta", "0.5", "--a", "0", "--b", "1e-200"],
        ["sharpness", "--n", "3", "--theta", "0.5", "--a", "0", "--b", "1e-320"],
        ["kernel", "--n", "2", "--theta", "0.5", "--a", "0", "--b", "1",
         "--bogus", "-inf"],  # an unknown flag, even before a negative value
        ["kernel", "--n", "2", "--theta", "0.5", "--a", "0", "--b", "1",
         "-1e-3"],  # a stray negative value
        ["bound", "--f", "sin", "--n", "2", "--theta", "0.5", "--a", "1e307",
         "--b", "1.5e307", "--bound", "linf"],  # sin's grid of multiples of pi is too long
        ["integrate", "--f", "sin", "--n", "3", "--theta", "0.5", "--a", "0",
         "--b", "3.3e6", "--bound", "band"],  # just past the limit of 2**20
    ],
)
def test_validation_failures_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err  # a reason lands on stderr


def test_too_many_panels_name_the_panel_count(capsys):
    code, out, err = run(
        capsys, "integrate", "--f", "exp", "--n", "2", "--theta", "0.5", "--a", "1",
        "--b", "1.000000000001", "--panels", "100000", "--bound", "linf",
    )
    assert (code, out) == (2, "")
    assert "panels=100000 on [1.0, 1.000000000001]" in err
    assert "neighbouring panel edges round to the same float" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--bound", "l1", "--n", "99", "--theta", "0.5", "--a", "0", "--b", "1",
         "--l1", "1"],
        ["integrate", "--f", "exp", "--n", "100", "--theta", "0.5", "--a", "0", "--b", "1",
         "--bound", "linf"],
        ["integrate", "--f", "exp", "--n", "100", "--theta", "0.5", "--a", "0", "--b", "1",
         "--perturbed"],
        ["kernel", "--n", "99", "--theta", "0.5", "--a", "0", "--b", "1"],
    ],
)
def test_orders_past_the_kernel_range_exit_2(capsys, argv):
    """Every kernel statistic overflows together from n = 99 (README); the
    message names the order, the interval width and the supported range."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("thetaquad: floating-point overflow") and "Traceback" not in err
    n = argv[argv.index("--n") + 1]
    assert f"n={n} on an interval of width 1.0" in err
    assert "supported for n <= 98 with (b - a)^(2n+1) < 1.8e308" in err


@pytest.mark.parametrize("argv, where", [
    (["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0", "--b", "800"],
     "of order 0 overflows a float on [0.0, 800.0]"),
    (["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0", "--b", "800",
      "--bound", "l2"], "of order 2 overflows a float on [0.0, 800.0]"),
    (["bound", "--bound", "linf", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0",
      "--b", "800"], "of order 2 overflows a float on [0.0, 800.0]"),
    (["bound", "--bound", "band", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0",
      "--b", "800"], "of order 2 overflows a float on [0.0, 800.0]"),
])
def test_an_overflowing_builtin_is_named(capsys, argv, where):
    """exp(800) overflows a float; the message says which function, which
    derivative order and where, not only "math range error"."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"thetaquad: floating-point overflow: exp: derivative {where}\n"


def test_a_panel_sum_that_overflows_names_the_interval(capsys):
    """Finite values of f whose panel sum overflows: fsum's own error is
    renamed, and names the interval, as an overflowed total does."""
    code, out, err = run(
        capsys, "integrate", "--f", "poly:0,-0,1e300", "--n", "7", "--a", "100",
        "--b", "900.0", "--theta", "0.37", "--panels", "3",
    )
    assert (code, out) == (2, "")
    assert err == ("thetaquad: floating-point overflow: a sum on [100.0, 900.0] overflows: "
                   "intermediate overflow in fsum\n")


def test_n_98_certifies_and_the_plain_rule_value_keeps_its_range(capsys):
    for n in ("98", "99", "100"):
        record = run_json(capsys, "integrate", "--f", "exp", "--n", n, "--theta", "0.5",
                          "--a", "0", "--b", "1")
        assert record["results"]["value"] == pytest.approx(math.e - 1.0, rel=1e-15)
    for kind in CERTIFICATES:
        record = run_json(capsys, "bound", "--bound", kind, "--f", "exp", "--n", "98",
                          "--theta", "0.5", "--a", "0", "--b", "1")
        assert record["results"]["bound"] >= 0.0


@pytest.mark.parametrize("value", ["1e-6", "not-a-number"])
def test_the_environment_does_not_change_the_bytes(capsys, monkeypatch, value):
    """Identical invocations give identical bytes: the oracle's tolerance is
    fixed, and no environment variable reaches it."""
    argv = ["integrate", "--f", "runge", "--n", "2", "--theta", "0", "--a", "-5", "--b", "5",
            "--bound", "sharp"]
    monkeypatch.delenv("THETAQUAD_ORACLE_TOL", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("THETAQUAD_ORACLE_TOL", value)
    assert run(capsys, *argv) == unset and unset[0] == 0


@pytest.mark.parametrize("kind, flag", [("l2", "--l2"), ("sharp", "--sigma")])
def test_a_datum_floats_cannot_form_refuses_only_the_certificates_that_read_it(
        capsys, kind, flag):
    """The l2 of f' = 2e300 x overflows in floats, so norm_data leaves l2 and
    sigma None: linf and l1 still certify, and l2 and sharp name the field
    and the flag that supplies it."""
    argv = ["bound", "--f", "poly:0,-0,1e300", "--n", "1", "--theta", "0.5", "--a", "0",
            "--b", "1"]
    for other in ("linf", "l1"):
        record = run_json(capsys, *argv, "--bound", other)
        assert math.isfinite(record["results"]["bound"]) and record["results"]["bound"] > 0.0
    code, out, err = run(capsys, *argv, "--bound", kind)
    field = flag[2:]
    assert (code, out) == (2, "")
    assert err == (f"thetaquad: certificate {kind!r} at n=1: the {field} of poly:0,-0,1e300 on "
                   f"[0.0, 1.0] is not finite in floats; supply it with {flag}\n")
    assert run_json(capsys, *argv, "--bound", kind, flag, "1.0")["results"]["bound"] > 0.0


def test_a_sweep_leaves_empty_only_the_cells_of_a_datum_floats_cannot_form(capsys):
    """sweep has no flag to supply the l2 or sigma that floats cannot form, so
    their cells are empty; every other bound is the one bound prints."""
    interval = ["--f", "poly:0,-0,1e300", "--n", "1", "--a", "0", "--b", "1"]
    code, out, err = run(capsys, "sweep", *interval, "--theta-grid", "0:0.5:1")
    assert (code, err) == (0, "")
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["bound_l2"] == cells["bound_sharp"] == ""
        for kind in ("l1", "linf", "band"):
            record = run_json(capsys, "bound", *interval, "--theta", cells["theta"],
                              "--bound", kind)
            assert float(cells[f"bound_{kind}"]) == record["results"]["bound"]


def test_convergence_failure_exits_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("reference integral did not stabilize")

    # the CLI reads the oracle from its module when the subcommand runs
    monkeypatch.setattr("thetaquad.integrate.reference_integral", explode)
    code, _, err = run(
        capsys, "integrate", "--f", "exp", "--n", "2", "--theta", "0",
        "--a", "0", "--b", "1",
    )
    assert code == 3
    assert "convergence" in err.lower()


def test_long_polynomial_bound_exits_0(capsys):
    # 1,200 coefficients: root isolation walks 1,200 derivatives
    poly = "poly:" + ",".join(["0.001"] * 1200)
    record = run_json(
        capsys, "bound", "--f", poly, "--n", "1", "--theta", "0.5", "--a", "0", "--b", "1",
        "--bound", "l1",
    )
    assert record["results"]["l1"] == pytest.approx(1.199, rel=1e-12)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["kernel", "--n", "2", "--theta", "0.5", "--a", "0", "--b", "1"]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def child(args):
        return subprocess.run(
            [sys.executable, "-m", "thetaquad.cli", *args],
            capture_output=True, env=env, timeout=60,
        )

    proc = child(argv)
    assert run_cli(argv) == 0
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
    assert child(["kernel", "--n", "0", "--theta", "0.5", "--a", "0", "--b", "1"]).returncode == 2
