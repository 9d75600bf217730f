"""The shared input checks: every public int argument and interval goes
through errors.check_int / errors.check_interval, so all reject the same
inputs the same way."""

import math

import pytest

from thetaquad import (
    DerivativeBand,
    Exponential,
    Integrand,
    NormData,
    PolynomialFunction,
    RuleSpec,
    ValidationError,
    composite_integrate,
    reference_integral,
    sigma_functional,
)

EXP = Exponential()
F = EXP.integrand(0.0, 1.0)
POLY = PolynomialFunction((1.0, 2.0, 3.0))

# (argument, call with the value under test, minimum accepted value)
INT_ARGUMENTS = [
    ("RuleSpec.n", lambda v: RuleSpec(theta=0.5, n=v, a=0.0, b=1.0), 1),
    ("Integrand.eval_derivative.order", lambda v: F.eval_derivative(v, 0.5), 0),
    ("Integrand.max_order", lambda v: Integrand(F.derivative_fn, (0.0, 1.0), max_order=v), 0),
    ("DerivativeBand.order", lambda v: DerivativeBand(0.0, 1.0, order=v), 1),
    ("AnalyticFunction.band.order", lambda v: EXP.band(v, 0.0, 1.0), 1),
    ("AnalyticFunction.norm_data.order", lambda v: EXP.norm_data(v, 0.0, 1.0), 1),
    ("AnalyticFunction.endpoint_diff_rate.order",
     lambda v: EXP.endpoint_diff_rate(v, 0.0, 1.0), 1),
    ("PolynomialFunction.band.order", lambda v: POLY.band(v, 0.0, 1.0), 1),
    ("PolynomialFunction.norm_data.order", lambda v: POLY.norm_data(v, 0.0, 1.0), 1),
    ("sigma_functional.order", lambda v: sigma_functional(F, v, 0.0, 1.0), 0),
    ("composite_integrate.panels",
     lambda v: composite_integrate(F, RuleSpec(0.5, 2, 0.0, 1.0), v, "linf",
                                   norms=NormData(linf=math.e)), 1),
]


@pytest.mark.parametrize("bad", ["true", "float", "below"])
@pytest.mark.parametrize("name,call,minimum", INT_ARGUMENTS, ids=[a[0] for a in INT_ARGUMENTS])
def test_int_arguments_reject_bool_float_and_below_minimum(name, call, minimum, bad):
    call(minimum)  # the minimum itself is accepted
    value = {"true": True, "float": float(minimum), "below": minimum - 1}[bad]
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize(
    "a,b", [(1.0, 0.0), (0.5, 0.5), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)]
)
def test_intervals_share_one_check(a, b):
    makers = [
        lambda: RuleSpec(theta=0.5, n=2, a=a, b=b),
        lambda: Integrand(F.derivative_fn, (a, b)),
        lambda: EXP.integrand(a, b),
        lambda: EXP.norm_data(2, a, b),
        lambda: POLY.band(2, a, b),
        lambda: sigma_functional(F, 2, a, b),
    ]
    if a == b:  # the oracle's one exception: an empty interval integrates to 0.0
        assert reference_integral(F, a, b) == 0.0
    else:
        makers.append(lambda: reference_integral(F, a, b))
    for make in makers:
        with pytest.raises(ValidationError, match="need finite a < b"):
            make()
