"""Each reader of f against each kind of fault: the exception it raises.

Every reader reads f through ``Integrand._read`` in one pass, each column
checked as it is read, so the type raised depends only on the fault and on
what the reader reads: the oracle reads f alone, so no order is too high for
it.  Finite values of 9e307 overflow every reader's sums: the rule value, or
the oracle's ``math.fsum`` over a panel.
"""

import math

import pytest

from thetaquad import (
    CapabilityError,
    DomainError,
    Integrand,
    NormData,
    RuleSpec,
    ValidationError,
    apply_rule,
    composite_integrate,
    reference_integral,
    sigma_functional,
    true_error,
)

READERS = {
    "composite": lambda f, a, b: composite_integrate(
        f, RuleSpec(0.5, 4, a, b), 600, "linf", norms=NormData(linf=1.0)).value,
    "oracle": lambda f, a, b: reference_integral(f, a, b),
    "apply_rule": lambda f, a, b: apply_rule(f, RuleSpec(0.5, 4, a, b)).f_n_value,
    "true_error": lambda f, a, b: true_error(f, RuleSpec(0.5, 4, a, b)),
    "sigma_functional": lambda f, a, b: sigma_functional(f, 3, a, b),
}


def faulty(value):
    """exp, except ``value`` (or what it raises) at every order for x > 0.7."""
    def derivative_fn(_k, x):
        return value(x) if x > 0.7 else math.exp(x)
    return Integrand(derivative_fn, (0.0, 1.0))


def raising(x):
    raise ZeroDivisionError(x)


# fault -> (integrand, [a, b], the type each reader raises, None where it returns)
FAULTS = {
    "nan": (faulty(lambda x: math.nan), (0.0, 1.0), dict.fromkeys(READERS, ValidationError)),
    "+inf": (faulty(lambda x: math.inf), (0.0, 1.0), dict.fromkeys(READERS, ValidationError)),
    "-inf": (faulty(lambda x: -math.inf), (0.0, 1.0), dict.fromkeys(READERS, ValidationError)),
    "raising": (faulty(raising), (0.0, 1.0), dict.fromkeys(READERS, ZeroDivisionError)),
    "order above max_order": (
        Integrand(lambda k, x: math.exp(x), (0.0, 1.0), max_order=1), (0.0, 1.0),
        {**dict.fromkeys(READERS, CapabilityError), "oracle": None}),
    "end outside the domain": (
        Integrand(lambda k, x: math.exp(x), (0.0, 1.0)), (0.0, 1.5),
        dict.fromkeys(READERS, DomainError)),
    "finite values that overflow": (
        Integrand(lambda k, x: 9e307, (0.0, 1.0)), (0.0, 1.0),
        dict.fromkeys(READERS, OverflowError)),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("fault", FAULTS)
def test_each_reader_raises_the_type_of_each_fault(fault, reader):
    f, (a, b), raises = FAULTS[fault]
    if raises[reader] is None:
        assert math.isfinite(READERS[reader](f, a, b))
    else:
        with pytest.raises(raises[reader]):
            READERS[reader](f, a, b)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("a, b", [(1.0 - 2.0**-40, 1.0), (0.0, 2.0**-1060),
                                  (-1e-13, 1.0), (0.0, 1.0 + 1e-13)])
def test_narrow_intervals_and_ends_in_the_slack_are_read_inside_the_domain(reader, a, b):
    """A narrow interval at the end of the domain, whose nodes may round past
    it, and an end in the domain's slack: each reader returns, and every
    point it reads is clamped into the domain."""
    reads = []

    def derivative_fn(_k, x):
        reads.append(x)
        return math.exp(x)

    assert math.isfinite(READERS[reader](Integrand(derivative_fn, (0.0, 1.0)), a, b))
    assert 0.0 <= min(reads) and max(reads) <= 1.0
