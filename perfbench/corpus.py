"""Seeded op corpora for the three workloads.

Everything here is plain data: integrand descriptors (see ``exact``),
floats, ints and argv lists.  The same seed gives the same corpus, and the
package under test receives nothing but these generated inputs.

Each corpus is stratified so that its cost mix hardly depends on the seed:
the composite corpus walks every (integrand, order, certificate) combination
once per cycle and spreads the panel counts of each round of ops over equal
log-width strata, the verify corpus is a full factorial of its cases, and
the cli corpus cycles through fixed templates.  A run cycles through its
corpus when it needs more ops than the corpus has.
"""

from __future__ import annotations

import random

FUNCTIONS = ("exp", "sin", "runge", "poly")
CERTIFICATES = ("l1", "l2", "linf", "band", "sharp")
PRESET_THETAS = (0.0, 1.0 / 3.0, 0.5, 1.0)  # midpoint, Simpson, averaged, trapezoid

COMPOSITE_ORDERS = (2, 3, 4, 6)
COMPOSITE_PANELS = (500, 8000)
COMPOSITE_ROUND = 8

VERIFY_MAX_PANELS = 16
VERIFY_MAX_ORDER = 6
KERNEL_MAX_ORDER = 12
SHARPNESS_MAX_ORDER = 4
HARD_MAX_OMEGA = 100.0
HARD_STRATA = 16
WITNESS_STRIDE = 64

CLI_SIZE = 120
CLI_SUBCOMMANDS = ("kernel", "bound", "integrate", "sweep", "sharpness")

# Known-wrong certificates (zero or near-zero budgets next to a nonzero
# rounding error).  They open the verify corpus and recur before every
# WITNESS_STRIDE cases, so every run shows the defect in cert_violations
# until it is fixed.
WITNESSES = (
    {"f": ("poly", (0.1, 0.3, 0.7, 0.3)), "n": 4, "a": 0.1, "b": 0.7, "panels": 7,
     "certs": CERTIFICATES},
    {"f": ("poly", (0.1, 0.3, 0.7, 0.3)), "n": 5, "a": 0.1, "b": 0.7, "panels": 7,
     "certs": CERTIFICATES},
    {"f": ("sin", 1.0), "n": 40, "theta": 0.5, "a": 0.0, "b": 1.0, "panels": 2,
     "certs": ("l1",)},
)


def theta(rng: random.Random) -> float:
    return rng.choice(PRESET_THETAS) if rng.random() < 0.4 else rng.random()


def case(rng: random.Random, kind: str) -> tuple[tuple, float, float]:
    """An integrand descriptor and an interval on which it is well scaled."""
    if kind == "exp":
        a = rng.uniform(-1.0, 1.0)
        return ("exp",), a, a + rng.uniform(0.5, 2.0)
    if kind == "sin":
        a = rng.uniform(-3.0, 3.0)
        return ("sin", 1.0), a, a + rng.uniform(1.0, 6.0)
    if kind == "runge":
        a = rng.uniform(-5.0, 1.0)
        return ("runge",), a, a + rng.uniform(1.0, 4.0)
    degree = rng.randint(0, 5)
    coeffs = tuple(rng.uniform(-1.0, 1.0) for _ in range(degree + 1))
    a = rng.uniform(-1.5, 0.5)
    return ("poly", coeffs), a, a + rng.uniform(0.5, 2.0)


def composite_corpus(seed: int) -> list[dict]:
    """One op per (integrand, order, certificate) combination, in rounds of eight.

    Panel counts come from 80 equal log-width strata of COMPOSITE_PANELS,
    one per combination: combination k takes coarse stratum k % 8 (which
    spreads the coarse strata evenly over every integrand, order and
    certificate) and fine stratum k // 8 within it.  So every seed's corpus
    has the same cost profile, and each round, holding one op of every
    coarse stratum, has it in small.  The seed draws theta, the interval,
    the polynomial, the panel count within its stratum and the order.
    """
    rng = random.Random(f"composite:{seed}")
    combos = [(f, n, c) for f in FUNCTIONS for n in COMPOSITE_ORDERS for c in CERTIFICATES]
    lo, hi = COMPOSITE_PANELS
    fine = len(combos) // COMPOSITE_ROUND
    by_stratum: list[list[dict]] = [[] for _ in range(COMPOSITE_ROUND)]
    for k, (kind, n, cert) in enumerate(combos):
        coarse = k % COMPOSITE_ROUND
        f, a, b = case(rng, kind)
        share = (coarse * fine + k // COMPOSITE_ROUND + rng.random()) / len(combos)
        by_stratum[coarse].append({
            "f": f, "n": n, "theta": theta(rng), "a": a, "b": b,
            "panels": round(lo * (hi / lo) ** share), "cert": cert,
        })
    for group in by_stratum:
        rng.shuffle(group)
    ops: list[dict] = []
    for round_ops in zip(*by_stratum):
        round_ops = list(round_ops)
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def verify_corpus(seed: int) -> list[dict]:
    """Every (integrand, order, panel count) case once, witnesses between.

    The cases form a full factorial, and the oracle, kernel and sharpness
    parameters cycle with the op position, so every seed's corpus does the
    same mix of work; the seed draws theta, intervals, polynomials, the
    frequency within its stratum and the order of the cases.
    """
    rng = random.Random(f"verify:{seed}")
    cases = []
    for kind in FUNCTIONS:
        for n in range(1, VERIFY_MAX_ORDER + 1):
            for panels in range(1, VERIFY_MAX_PANELS + 1):
                f, a, b = case(rng, kind)
                cases.append({"f": f, "n": n, "theta": theta(rng), "a": a, "b": b,
                              "panels": panels, "certs": CERTIFICATES, "witness": None})
    rng.shuffle(cases)
    ops: list[dict] = []
    for start in range(0, len(cases), WITNESS_STRIDE):
        ops += [dict(w, theta=w.get("theta", theta(rng)), witness=slot)
                for slot, w in enumerate(WITNESSES)]
        ops += cases[start:start + WITNESS_STRIDE]
    for j, op in enumerate(ops):
        if j % 2 == 0:
            share = ((j // 2) % HARD_STRATA + rng.random()) / HARD_STRATA
            op["hard"] = (("sin", HARD_MAX_OMEGA**share), 0.0, 10.0)
        else:
            op["hard"] = (("runge",), -5.0, 5.0)
        op["kernel"] = (1 + j % KERNEL_MAX_ORDER, theta(rng))
        op["sharpness"] = (1 + j % SHARPNESS_MAX_ORDER, theta(rng))
    return ops


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli_function(rng: random.Random) -> tuple[str, tuple, float, float]:
    f, a, b = case(rng, rng.choice(FUNCTIONS))
    if f[0] == "poly":
        text = "poly:" + ",".join(_fmt(c) for c in f[1])
    else:
        text = f[0]
    return text, f, a, b


def _interval(a: float, b: float) -> list[str]:
    return ["--a", _fmt(a), "--b", _fmt(b)]


# Invocations the CLI must refuse with exit code 2.
_INVALID = (
    ["kernel", "--n", "2", "--theta", "1.5", "--a", "0", "--b", "1"],
    ["integrate", "--f", "cosh", "--n", "2", "--theta", "0", "--a", "0", "--b", "1"],
    ["bound", "--bound", "linf", "--theta", "0.5", "--a", "0", "--b", "1"],
    ["sweep", "--f", "exp", "--n", "2", "--a", "0", "--b", "1", "--theta-grid", "0:0:1"],
    ["kernel", "--n", "0", "--theta", "0.5", "--a", "0", "--b", "1"],
)


def cli_corpus(seed: int) -> list[dict]:
    """Rounds of ten invocations: every subcommand, one invalid call each."""
    rng = random.Random(f"cli:{seed}")
    return [_cli_op(rng, i % 10, i // 10) for i in range(CLI_SIZE)]


def _cli_op(rng: random.Random, template: int, round_index: int) -> dict:
    th = _fmt(theta(rng))
    if template in (0, 1):
        text, f, a, b = _cli_function(rng)
        argv = ["kernel", "--n", str(rng.randint(1, 8)), "--theta", th, *_interval(a, b)]
        if template == 1:
            argv.append("--brute-force")
        return {"sub": "kernel", "argv": argv, "exit": 0}
    if template in (2, 3):
        text, f, a, b = _cli_function(rng)
        cert = "band" if template == 3 else rng.choice(("l1", "l2", "linf", "sharp"))
        argv = ["bound", "--bound", cert, "--f", text, "--n", str(rng.randint(1, 6)),
                "--theta", th, *_interval(a, b)]
        return {"sub": "bound", "argv": argv, "exit": 0}
    if template in (4, 5, 6):
        text, f, a, b = _cli_function(rng)
        n, panels = rng.randint(1, 6), rng.randint(1, 16)
        argv = ["integrate", "--f", text, "--n", str(n), "--theta", th, *_interval(a, b),
                "--panels", str(panels)]
        op = {"sub": "integrate", "argv": argv, "exit": 0}
        if template != 6:
            argv += ["--bound", rng.choice(CERTIFICATES)]
            op["certified"] = {"f": f, "n": n, "a": a, "b": b, "panels": panels}
        return op
    if template == 7:
        text, f, a, b = _cli_function(rng)
        argv = ["sweep", "--f", text, "--n", str(rng.randint(1, 6)), *_interval(a, b),
                "--theta-grid", "0:0.05:1"]
        return {"sub": "sweep", "argv": argv, "exit": 0}
    if template == 8:
        _, _, a, b = _cli_function(rng)
        argv = ["sharpness", "--n", str(rng.randint(1, SHARPNESS_MAX_ORDER)), "--theta", th,
                *_interval(a, b), "--end-to-end"]
        return {"sub": "sharpness", "argv": argv, "exit": 0}
    argv = list(_INVALID[round_index % len(_INVALID)])
    return {"sub": argv[0], "argv": argv, "exit": 2}


# Invocations that crash with a traceback (exit 1) instead of exiting 2.
# They are run once per cli run, after the timed window, and reported apart
# from the timed ops so that the timed workload has no failing operation.
DEFECT_PROBES = (
    ["kernel", "--n", "150", "--theta", "0.5", "--a", "0", "--b", "1"],
    ["integrate", "--f", "exp", "--n", "2", "--theta", "0", "--a", "0", "--b", "800"],
)
