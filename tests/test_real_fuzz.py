"""A fuzz over every public float argument: a value of each real-like kind
either gives the plain float's result or a ValueError that names the argument.

Each case of ``CASES`` calls one public function with the drawn argument and
every other argument fixed at a small valid value.  The float is drawn from a
few ordinary values of the argument or from ``EDGES`` (NaN, +-inf, +-0.0,
1e-320 and 1e308), and then given as one of ``KINDS``: the float itself, a
numpy float64, a bool, a numeric string, a complex or a 0-d array.  Only the
first two are real numbers; the others have no plain float, so they must be
refused by name.  ``fingerprint`` and ``outcome`` are the integer fuzz's.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_int_fuzz import outcome

from faberkit import (
    CompositeGauss,
    FaberSeries,
    FunctionHandle,
    MeasureSpec,
    NormParams,
    RateRecord,
    SupGrid,
    block_lq_exact,
    comb_check,
    convergence_study,
    decay_profile,
    default_spec,
    extremal,
    fit_rate,
    kink,
    level_lp,
    reference_envelope,
    sampling_width_table,
    series_profile,
    smooth,
)


class Case(NamedTuple):
    name: str  # how a refusal names the argument
    values: tuple  # the ordinary values drawn, besides EDGES
    call: Callable


EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 1e308)

EXPONENTS = (1.0, 1.5, 2.0, 3.0, 0.5)


def _sum(X):
    return X.sum(axis=1)


def _x2():
    return smooth("x2", 1)


SERIES = FaberSeries(1, 1, [0.5, -1.0, 0.25, 2.0, -0.75])

#: four rows above the noise floor, errors 2**-n
RECORDS = tuple(
    RateRecord(n, 2**n + 1, 2.0**-n, 0.0, 2.0**-n, 2.0, 2.0, 1) for n in range(2, 6)
)

CASES = {
    "NormParams-r": Case("r", (-1.0, 0.5, 2.0), lambda v: NormParams(v, 2.0, 2.0)),
    "NormParams-p": Case("p", EXPONENTS, lambda v: NormParams(0.5, v, 2.0)),
    "NormParams-q": Case("q", EXPONENTS + (-1.0,), lambda v: NormParams(0.5, 2.0, v)),
    "level_lp-p": Case("p", EXPONENTS, lambda v: level_lp(SERIES, (1,), v)),
    "series_profile-p": Case("p", EXPONENTS, lambda v: series_profile(SERIES, v)),
    "decay_profile-p": Case("p", EXPONENTS, lambda v: decay_profile(_x2(), v, 2)),
    "MeasureSpec-q": Case("q", EXPONENTS, lambda v: MeasureSpec(v, CompositeGauss(level=2))),
    "MeasureSpec-sup-q": Case("q", EXPONENTS, lambda v: MeasureSpec(v, SupGrid(level=2))),
    "default_spec-q": Case("q", EXPONENTS, lambda v: default_spec(v, 2, 1)),
    "block_lq_exact-q": Case("q", EXPONENTS, lambda v: block_lq_exact((1,), [1.0, -2.0], v)),
    "convergence_study-p": Case(
        "p", EXPONENTS, lambda v: convergence_study(_x2(), v, 2.0, [2])
    ),
    "convergence_study-q": Case(
        "q", EXPONENTS, lambda v: convergence_study(_x2(), 2.0, v, [2])
    ),
    "sampling_width_table-p": Case(
        "p", EXPONENTS, lambda v: sampling_width_table(_x2(), v, 2.0, [2])
    ),
    "sampling_width_table-q": Case(
        "q", EXPONENTS, lambda v: sampling_width_table(_x2(), 2.0, v, [2])
    ),
    "reference_envelope-p": Case("p", EXPONENTS, lambda v: reference_envelope(3, v, 2.0, 2)),
    "reference_envelope-q": Case("q", EXPONENTS, lambda v: reference_envelope(3, 2.0, v, 2)),
    "comb_check-alpha": Case("alpha", (-1.0, 0.5, 1.0, 2.0), lambda v: comb_check(v, 2, [3])),
    "fit_rate-fixed_log_exponent": Case(
        "fixed_log_exponent", (-1.0, 0.0, 0.5, 2.0), lambda v: fit_rate(RECORDS, v)
    ),
    "extremal-p": Case("p", EXPONENTS, lambda v: extremal(v, 2, 0, 1)),
    "kink-anchor": Case("anchor coordinate", (0.3, 0.5, 1.0, 0.7), lambda v: kink((v,), 1)),
    "kink-anchor-2": Case("anchor coordinate", (0.3, 0.5), lambda v: kink((0.3, v), 2)),
    "kink-bare-anchor": Case("anchor", (0.3,), lambda v: kink(v, 1)),
    "FunctionHandle-exact_integral": Case(
        "exact integral", (-1.0, 0.5), lambda v: FunctionHandle(_sum, 1, exact_integral=v)
    ),
    "FunctionHandle-exact_l2": Case(
        "exact L2 norm", (0.0, 0.5), lambda v: FunctionHandle(_sum, 1, exact_l2=v)
    ),
}

#: kind -> (the value of the float x, its plain float or None)
KINDS = {
    "float": lambda x: (x, x),
    "float64": lambda x: (np.float64(x), x),
    "bool": lambda x: (bool(x), None),
    "string": lambda x: (repr(x), None),
    "complex": lambda x: (complex(x, 0.0), None),
    "0-d array": lambda x: (np.array(x), None),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_real_argument_is_the_plain_float_or_refused_by_name(case, data):
    x = data.draw(st.sampled_from(case.values + EDGES), label="x")
    value, plain = KINDS[data.draw(st.sampled_from(sorted(KINDS)), label="kind")](x)
    got = outcome(case.call, value)
    if plain is not None and got == outcome(case.call, plain):
        return
    assert got[0] == "refused" and got[1].startswith(case.name), got
