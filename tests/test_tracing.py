"""The benchmark's tracer names package attributes by string, so a refactor
that renames or removes one drops a span without an error.  This test pins
the names it cannot find: a change to the list is a change to what the
traced benchmark counts, and has to be made here on purpose."""

import sys
from pathlib import Path

from thetaquad import integrate, kernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402

#: Each tracer target that no longer exists, and why its work is still seen
#: (or not) elsewhere.
MISSING_TARGETS = {
    "thetaquad.integrate.apply_rule": "the panel loop calls rules._rule_terms",
    # sharpness_check and certify read spec.stats, which calls the wrapped
    # kernel.kernel_stats_closed: kernel.closed counts once per RuleSpec
    "thetaquad.integrate.kernel_stats_closed": "read through RuleSpec.stats",
    # each CLI subcommand imports what it runs when it runs, so the CLI
    # reads five of these wrapped, from the integrate and kernel modules
    "thetaquad.cli.composite_integrate": "read as integrate.composite_integrate",
    "thetaquad.cli.reference_integral": "read as integrate.reference_integral",
    "thetaquad.cli.sharpness_check": "read as integrate.sharpness_check",
    "thetaquad.cli.apply_rule": "not traced in a cli run: rules.apply_rule is no target",
    "thetaquad.cli.kernel_stats_closed": "read as kernel.kernel_stats_closed",
    "thetaquad.cli.kernel_stats_brute": "read as kernel.kernel_stats_brute",
    "thetaquad.rules.perturbation_term": "apply_rule returns the perturbation",
    "PiecewisePolynomial.norm_stats": "norms come from AnalyticFunction.norm_data",
    "thetaquad.cli.parse_function": "not counted in a cli run: read as functions.parse_function",
    "thetaquad.bounds.closed_max_abs": "read through RuleSpec.stats",
    "thetaquad.bounds.kernel_centered_max_closed": "read through RuleSpec.stats",
    "thetaquad.bounds.l2_bracket": "folded into kernel_stats_closed",
    "thetaquad.bounds.sup_bracket": "folded into kernel_stats_closed",
    "PolynomialFunction.norm_data": "inherited from AnalyticFunction",
    "PolynomialFunction.band": "inherited from AnalyticFunction",
}


def test_tracer_misses_only_the_documented_targets():
    originals = (integrate.reference_integral, integrate.composite_integrate,
                 kernel.kernel_stats_closed)
    tracer = Tracer()
    tracer.install()
    try:
        assert kernel.kernel_stats_closed is not originals[2]
        assert tracer.missing_targets == list(MISSING_TARGETS)
    finally:
        tracer.uninstall()
    restored = (integrate.reference_integral, integrate.composite_integrate,
                kernel.kernel_stats_closed)
    assert restored == originals
