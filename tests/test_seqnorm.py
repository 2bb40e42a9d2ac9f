"""Sequence norms: level l_p sums, weighted aggregates, decay profiles."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberkit import dyadic, measure, seqnorm
from faberkit.dyadic import LevelVector, levels_up_to
from faberkit.faber import FaberSeries, FunctionHandle, analyze, integrate, synthesize
from faberkit.seqnorm import NormParams, decay_profile, level_lp, seq_norm, series_profile
from faberkit.testbed import kink
from oracles import (
    per_level_integrate,
    per_level_profile,
    per_level_seq_norm,
    random_series,
    single_level_series,
)

RNG = np.random.default_rng(77)


def series_with_unit_levels(budget, dim=1):
    """One coefficient of size 1 per level, so every level_lp equals 1."""
    blocks = [np.eye(j.translation_count())[0] for j in levels_up_to(budget, dim)]
    return FaberSeries(budget, dim, np.concatenate(blocks))


class TestNormParams:
    def test_accepts_q_inf(self):
        NormParams(r=0.5, p=2.0, q=math.inf)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            NormParams(r=0.5, p=0.5, q=1.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            NormParams(r=0.5, p=1.0, q=0.0)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_r(self, r):
        with pytest.raises(ValueError, match="r must be finite"):
            NormParams(r=r, p=2.0, q=2.0)


class TestLevelLp:
    def test_single_unit_coefficient(self):
        s = single_level_series((2,), [0.0, 1.0, 0.0, 0.0])
        for p in (1.0, 2.0, 7.0):
            assert level_lp(s, (2,), p) == 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_balanced_level_normalizes_to_one(self, p):
        j = LevelVector((3,))
        s = single_level_series(j, np.full(8, 2.0 ** (-3 / p)))
        assert level_lp(s, j, p) == pytest.approx(1.0, rel=1e-14)

    def test_parabola_level_value(self):
        f = FunctionHandle(lambda X: X[:, 0] ** 2, 1)
        s = analyze(f, 6)
        # 32 equal surpluses of magnitude 2^-12 on level 5
        assert level_lp(s, (5,), 1.0) == pytest.approx(2.0**-7, rel=1e-12)

    def test_missing_level_rejected(self):
        s = random_series(2, 1, RNG)
        with pytest.raises(ValueError):
            level_lp(s, (3,), 2.0)


class TestSeqNorm:
    def test_weight_one_regime_is_sup(self):
        s = random_series(4, 1, RNG)
        p = 2.0
        params = NormParams(r=1 / p, p=p, q=math.inf)
        direct = max(level_lp(s, j, p) for j in s.levels())
        assert seq_norm(s, params) == direct

    def test_sum_of_ones_counts_levels(self):
        n = 5
        s = series_with_unit_levels(n)
        assert seq_norm(s, NormParams(r=1.0, p=1.0, q=1.0)) == pytest.approx(n + 2)

    def test_zero_series(self):
        s = FaberSeries.zeros(3, 2)
        assert seq_norm(s, NormParams(r=0.7, p=2.0, q=2.0)) == 0.0

    def test_homogeneity(self):
        s = random_series(3, 2, RNG)
        params = NormParams(r=0.4, p=2.0, q=1.5)
        base = seq_norm(s, params)
        scaled = FaberSeries(3, 2, -2.5 * s.coeffs)
        assert seq_norm(scaled, params) == pytest.approx(2.5 * base, rel=1e-12)

    def test_monotone_in_budget(self):
        f = FunctionHandle(lambda X: np.sin(4 * X[:, 0]), 1)
        params = NormParams(r=1.0, p=1.0, q=2.0)
        norms = [seq_norm(analyze(f, n), params) for n in range(1, 6)]
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_triangle_inequality(self):
        params = NormParams(r=0.6, p=1.5, q=2.0)
        for _ in range(10):
            a = random_series(3, 2, RNG)
            b = random_series(3, 2, RNG)
            lhs = seq_norm(FaberSeries(3, 2, a.coeffs + b.coeffs), params)
            rhs = seq_norm(a, params) + seq_norm(b, params)
            assert lhs <= rhs * (1 + 1e-12)

    def test_weight_scales_with_level_order(self):
        # one unit coefficient at order 4: norm is the level weight
        s = single_level_series((4,), np.eye(16)[3])
        r, p = 1.25, 2.0
        expected = 2.0 ** (4 * (r - 1 / p))
        assert seq_norm(s, NormParams(r, p, 3.0)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("q", [2.0, math.inf])
    @pytest.mark.parametrize(
        "r,series",
        [
            (1e308, random_series(2, 2, RNG)),  # the weight 2^(order (r - 1/p)) overflows
            (1000.0, single_level_series((1,), [1e10, 1e10])),  # the weight is finite, the term is not
        ],
        ids=["weight", "term"],
    )
    def test_term_out_of_binary64_is_a_value_error_naming_r(self, r, series, q):
        with pytest.raises(ValueError, match=f"r={re.escape(repr(r))} takes a weighted level norm out of binary64"):
            seq_norm(series, NormParams(r, 2.0, q))

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_zero_levels_add_zero_at_any_weight(self, q):
        # only the order-0 level is nonzero; every other level's weight overflows
        s = single_level_series((0,), [3.0], budget=3)
        assert seq_norm(s, NormParams(1e308, 2.0, q)) == 3.0
        assert seq_norm(FaberSeries.zeros(3, 2), NormParams(1e308, 2.0, q)) == 0.0


class TestProfiles:
    def test_single_tent_profile(self):
        prof = series_profile(single_level_series((0,), [1.0], budget=3), p=2.0)
        assert prof[0] == (0, 1.0)
        assert all(v <= 1e-12 for _, v in prof[1:])

    def test_measured_profile_matches_series_profile(self):
        s = random_series(3, 1, RNG)
        measured = decay_profile(synthesize(s), p=1.5, n=3)
        exact = series_profile(s, 1.5)
        assert [o for o, _ in measured] == [o for o, _ in exact]
        for (_, a), (_, b) in zip(measured, exact):
            assert a == pytest.approx(b, abs=1e-12)

    def test_profile_covers_all_orders(self):
        f = FunctionHandle(lambda X: np.cos(X[:, 0]), 1)
        prof = decay_profile(f, 1.0, 5)
        assert [o for o, _ in prof] == list(range(6))

    def test_sup_norm_equals_profile_max(self):
        s = random_series(4, 2, RNG)
        p = 2.0
        prof = series_profile(s, p)
        assert seq_norm(s, NormParams(1 / p, p, math.inf)) == max(v for _, v in prof)

    def test_kink_profile_decays_geometrically(self):
        f = kink((1 / math.sqrt(2),), 1)
        prof = decay_profile(f, 1.0, 8)
        for order, value in prof[1:]:
            assert value <= 2.0 ** (-order + 1)

    def test_requires_budget_two(self):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        with pytest.raises(ValueError):
            decay_profile(f, 1.0, 1)

    @pytest.mark.parametrize(
        "n,message",
        [(1, "budget must be >= 2"), (2.5, "budget must be an integer, got 2.5"),
         (2.0, "budget must be an integer, got 2.0"), ("3", "budget must be an integer, got '3'")],
        ids=["one", "fraction", "integral-float", "string"],
    )
    def test_budget_refused_before_analyze(self, monkeypatch, n, message):
        def analyze_spy(f, budget):
            raise AssertionError(f"analyze called at n={budget!r}")

        monkeypatch.setattr(seqnorm, "analyze", analyze_spy)
        with pytest.raises(ValueError) as info:
            decay_profile(FunctionHandle(lambda X: X[:, 0], 1), 2.0, n)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "p,message",
    [(0.5, "p must be >= 1"), (0.0, "p must be >= 1"), (-1.0, "p must be >= 1"),
     (math.inf, "p must be finite"), (math.nan, "p must be >= 1")],
)
def test_invalid_p_rejected_by_every_level_norm(p, message):
    s = random_series(2, 2, RNG)
    for norm in (series_profile, lambda s, p: level_lp(s, (0, 0), p)):
        with pytest.raises(ValueError) as info:
            norm(s, p)
        assert str(info.value) == message


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(1, 5),
    n=st.integers(0, 5),
    dead=st.floats(0.0, 1.0),
    gather=st.sampled_from([1, 5, dyadic._ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_level_reductions_are_bit_identical_to_per_level_loops(
    d, n, dead, gather, seed
):
    # levels zeroed at random, magnitudes spread over 16 decades so that
    # every summation order shows; small gather blocks split the size groups
    rng = np.random.default_rng(seed)
    blocks = [
        rng.standard_normal(j.translation_count())
        * 10.0 ** rng.integers(-8, 9, j.translation_count())
        * (rng.random() >= dead)
        for j in levels_up_to(n, d)
    ]
    s = FaberSeries(n, d, np.concatenate(blocks))
    saved, dyadic._ROWS = dyadic._ROWS, gather
    dyadic._PLANS.clear()
    try:
        assert np.float64(integrate(s)).tobytes() == np.float64(per_level_integrate(s)).tobytes()
        for p in (1.0, 2.0, 3.5):
            assert np.array(series_profile(s, p)).tobytes() == (
                np.array(per_level_profile(s, p)).tobytes()
            )
            for r, q in ((0.0, 1.0), (1.5, 2.0), (0.5, math.inf)):
                params = NormParams(r, p, q)
                assert np.float64(seq_norm(s, params)).tobytes() == (
                    np.float64(per_level_seq_norm(s, params)).tobytes()
                )
    finally:
        dyadic._ROWS = saved
        dyadic._PLANS.clear()


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_series_profile_holds_one_temporary_of_the_largest_level(p):
    # |c| of the largest level, 2**(n-1) of the 2**(n+1) + 1 coefficients, is
    # the one full-size temporary: (|c| / top)**p is taken in place
    for n in (15, 17):
        s = FaberSeries(n, 1, np.random.default_rng(n).standard_normal(2 ** (n + 1) + 1))
        series_profile(s, p)  # warm: the plan memo
        tracemalloc.start()
        try:
            series_profile(s, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.2 * s.size  # two temporaries are 8 B per coefficient


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 7.25])
def test_in_place_power_is_byte_equal_to_a_new_array(p):
    # numpy takes fast paths for some exponents; _level_lps relies on
    # scaled **= p giving the bytes of scaled**p for every p
    rng = np.random.default_rng(5)
    scaled = rng.random((4, 25_000)) * 10.0 ** rng.uniform(-300, 0, (4, 25_000))
    want = (scaled**p).tobytes()
    scaled **= p
    assert scaled.tobytes() == want
    # measure._power_sums takes the power, the weight product and the square in
    # place in its batch array of |g|, filled piece by piece, and never writes
    # g's own values: here one batch of 50,000 points in pieces of _ROWS rows,
    # each point its row index
    values = rng.standard_normal(50_000) * 10.0 ** rng.uniform(-20, 20, 50_000)
    kept = values.copy()
    w = rng.random(50_000)
    g = FunctionHandle(lambda X: values[int(X[0, 0]) : int(X[-1, 0]) + 1], 1)

    def rows(weights=None):
        def piece(start, stop):
            X = np.arange(start, stop, dtype=np.float64)[:, None]
            return X, None if weights is None else weights[start:stop]
        return measure._batches(50_000, piece)

    assert [size for size, _ in rows()] == [50_000]
    powers = np.abs(kept) ** p
    weighted = measure._power_sums(g, rows(w), p)
    assert np.array(weighted).tobytes() == np.array([np.sum(w * powers)]).tobytes()
    moments = measure._power_sums(g, rows(), p, moments=True)
    spelled = [np.sum(powers), np.sum(powers * powers)]
    assert np.array(moments).tobytes() == np.array(spelled).tobytes()
    assert values.tobytes() == kept.tobytes()
    with pytest.raises(ValueError, match="unweighted"):
        measure._power_sums(g, rows(w), p, moments=True)
