"""A fuzz over every public integer argument: a value of each integer-like kind
either gives the plain int's result or a ValueError that names the argument.

Each case of ``CASES`` calls one public function with the drawn argument and
every other argument fixed at a small valid value.  The int is drawn from a
few values around the argument's lower bound, so no case is cap-sized, and
then given as one of ``KINDS``: the int itself, a bool, a numpy int64, an
integral float, a fractional float or a numeric string.  A fractional float
has no plain int, so it must be refused by name.
"""

import dataclasses
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberkit import (
    CompositeGauss,
    FaberSeries,
    FunctionHandle,
    LevelVector,
    StratifiedMC,
    SupGrid,
    analyze,
    comb_check,
    convergence_study,
    cubature_study,
    decay_profile,
    default_kink_anchor,
    default_spec,
    extremal,
    hat_family,
    kink,
    levels_up_to,
    node_count,
    node_set,
    noncompact_demo,
    reference_envelope,
    sampling_width_table,
    smooth,
    spike,
)


class Case(NamedTuple):
    name: str  # how a refusal names the argument
    low: int  # the draws are the ints low..high
    high: int
    call: Callable


def _sum(X):
    return X.sum(axis=1)


def _x2():
    return smooth("x2", 1)


CASES = {
    "node_count-n": Case("budget", -1, 3, lambda v: node_count(v, 2)),
    "node_count-d": Case("dimension", -1, 3, lambda v: node_count(2, v)),
    "node_set-n": Case("budget", -1, 3, lambda v: node_set(v, 2)),
    "node_set-d": Case("dimension", -1, 3, lambda v: node_set(2, v)),
    "levels_up_to-n": Case("budget", -1, 3, lambda v: levels_up_to(v, 2)),
    "levels_up_to-d": Case("dimension", -1, 3, lambda v: levels_up_to(2, v)),
    "analyze-n": Case("budget", -1, 3, lambda v: analyze(smooth("exp", 2), v)),
    "analyze-d": Case("dimension", -1, 3, lambda v: analyze(FunctionHandle(_sum, v), 2)),
    "FaberSeries-budget": Case("budget", -1, 3, lambda v: FaberSeries(v, 1, np.arange(5.0))),
    "FaberSeries-dim": Case("dimension", -1, 3, lambda v: FaberSeries(1, v, np.arange(8.0))),
    "zeros-budget": Case("budget", -1, 3, lambda v: FaberSeries.zeros(v, 2)),
    "zeros-dim": Case("dimension", -1, 3, lambda v: FaberSeries.zeros(2, v)),
    "get-translation": Case(
        "translation", -1, 4, lambda v: FaberSeries(2, 1, np.arange(9.0)).get((2,), (v,))
    ),
    "LevelVector": Case("level entry", -3, 2, lambda v: LevelVector((v, 0))),
    "FunctionHandle-dim": Case("dimension", -1, 3, lambda v: FunctionHandle(_sum, v)),
    "CompositeGauss-level": Case("mesh level", -1, 3, lambda v: CompositeGauss(level=v)),
    "CompositeGauss-order": Case("Gauss order", 0, 4, lambda v: CompositeGauss(level=2, order=v)),
    "StratifiedMC-samples": Case(
        "Monte Carlo samples", 998, 1001, lambda v: StratifiedMC(samples=v)
    ),
    "StratifiedMC-seed": Case("Monte Carlo seed", -2, 2, lambda v: StratifiedMC(seed=v)),
    "SupGrid-level": Case("grid level", -1, 3, lambda v: SupGrid(level=v)),
    "default_spec-n": Case("budget", -3, 3, lambda v: default_spec(2.0, v, 1)),
    "default_spec-d": Case("dimension", -1, 4, lambda v: default_spec(2.0, 2, v)),
    "default_spec-sup-d": Case("dimension", -1, 3, lambda v: default_spec(np.inf, 2, v)),
    "default_spec-seed": Case("Monte Carlo seed", -2, 2, lambda v: default_spec(2.0, 2, 4, v)),
    "extremal-depth": Case("depth", -1, 4, lambda v: extremal(2.0, v, 0, 1)),
    "extremal-seed": Case("seed", -2, 2, lambda v: extremal(2.0, 2, v, 1)),
    "extremal-d": Case("dimension", -1, 3, lambda v: extremal(2.0, 2, 0, v)),
    "spike-depth": Case("depth", -1, 4, lambda v: spike(v, 0, 1)),
    "spike-seed": Case("seed", -2, 2, lambda v: spike(2, v, 1)),
    "spike-d": Case("dimension", -1, 3, lambda v: spike(2, 0, v)),
    "hat_family-j": Case("hat level", -2, 3, lambda v: hat_family(v)),
    "hat_family-d": Case("dimension", -1, 3, lambda v: hat_family(1, v)),
    "kink-d": Case("dimension", -1, 3, lambda v: kink(None, v)),
    "default_kink_anchor-d": Case("dimension", -1, 3, default_kink_anchor),
    "smooth-d": Case("dimension", -1, 3, lambda v: smooth("poly-mix", v)),
    "convergence_study-n": Case(
        "budget", -1, 3, lambda v: convergence_study(_x2(), 2.0, 2.0, [v])
    ),
    "sampling_width_table-n": Case(
        "budget", -1, 3, lambda v: sampling_width_table(_x2(), 2.0, 2.0, [0, v])
    ),
    "cubature_study-n": Case("budget", -1, 3, lambda v: cubature_study(_x2(), [v, 4])),
    "comb_check-n": Case("budget", -1, 3, lambda v: comb_check(1.0, 2, [v])),
    "comb_check-d": Case("dimension", -1, 3, lambda v: comb_check(1.0, v, [3])),
    "noncompact_demo": Case("max_level", 0, 4, noncompact_demo),
    "decay_profile-n": Case("budget", 0, 4, lambda v: decay_profile(_x2(), 2.0, v)),
    "reference_envelope-n": Case("budget", -2, 3, lambda v: reference_envelope(v, 2.0, 2.0, 2)),
    "reference_envelope-d": Case("dimension", -1, 3, lambda v: reference_envelope(3, 2.0, 2.0, v)),
}

#: kind -> (the value of the int k, its plain int or None)
KINDS = {
    "int": lambda k: (k, k),
    "bool": lambda k: (bool(k % 2), k % 2),
    "int64": lambda k: (np.int64(k), k),
    "integral-float": lambda k: (float(k), k),
    "fractional-float": lambda k: (k + 0.5, None),
    "string": lambda k: (str(k), k),
}


def fingerprint(x):
    """x as nested tuples and reprs that compare equal when x's values do;
    a handle by its attributes and its values at a few points."""
    if isinstance(x, FaberSeries):
        return ("series", x.budget, x.dim, x.coeffs.tobytes())
    if isinstance(x, FunctionHandle):
        X = np.linspace(0.05, 0.95, 3 * x.dim).reshape(3, x.dim)
        values = x.eval_batch(X).tobytes()
        return ("handle", x.label, x.dim, repr(x.exact_integral), repr(x.exact_l2), values)
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        return (type(x).__name__, *(fingerprint(getattr(x, f.name)) for f in fields))
    if isinstance(x, (list, tuple)):
        return tuple(map(fingerprint, x))
    return repr(x)


def outcome(call, value):
    """("result", its fingerprint) or ("refused", the ValueError's message)."""
    try:
        return "result", fingerprint(call(value))
    except ValueError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_integer_argument_is_the_plain_int_or_refused_by_name(case, data):
    k = data.draw(st.integers(case.low, case.high), label="k")
    value, plain = KINDS[data.draw(st.sampled_from(sorted(KINDS)), label="kind")](k)
    got = outcome(case.call, value)
    if plain is not None and got == outcome(case.call, plain):
        return
    assert got[0] == "refused" and got[1].startswith(case.name), got
