"""Sequence norms: level l_p sums, weighted aggregates, decay profiles."""

import math

import numpy as np
import pytest

from faberkit.dyadic import LevelVector, levels_up_to
from faberkit.faber import FaberSeries, FunctionHandle, analyze, synthesize
from faberkit.seqnorm import NormParams, decay_profile, level_lp, seq_norm, series_profile
from faberkit.testbed import kink

RNG = np.random.default_rng(77)


def random_series(budget, dim, rng):
    coeffs = [rng.uniform(-1, 1, j.translation_count()) for j in levels_up_to(budget, dim)]
    return FaberSeries(budget, dim, np.concatenate(coeffs))


def single_level_series(budget, j, coeffs, dim=1):
    """Series of the given budget whose only non-zero level is j."""
    blocks = [
        np.asarray(coeffs, dtype=float) if lv.entries == j else np.zeros(lv.translation_count())
        for lv in levels_up_to(budget, dim)
    ]
    return FaberSeries(budget, dim, np.concatenate(blocks))


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


class TestLevelLp:
    def test_single_unit_coefficient(self):
        s = single_level_series(2, (2,), [0.0, 1.0, 0.0, 0.0])
        for p in (1.0, 2.0, 7.0):
            assert level_lp(s, (2,), p) == 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_balanced_level_normalizes_to_one(self, p):
        j = LevelVector((3,))
        s = single_level_series(3, j.entries, np.full(8, 2.0 ** (-3 / p)))
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
        assert seq_norm(s.scaled(-2.5), params) == pytest.approx(2.5 * base, rel=1e-12)

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
            lhs = seq_norm(a.plus(b), params)
            rhs = seq_norm(a, params) + seq_norm(b, params)
            assert lhs <= rhs * (1 + 1e-12)

    def test_weight_scales_with_level_order(self):
        # one unit coefficient at order 4: norm is the level weight
        s = single_level_series(4, (4,), np.eye(16)[3])
        r, p = 1.25, 2.0
        expected = 2.0 ** (4 * (r - 1 / p))
        assert seq_norm(s, NormParams(r, p, 3.0)) == pytest.approx(expected, rel=1e-13)


class TestProfiles:
    def test_single_tent_profile(self):
        prof = series_profile(single_level_series(3, (0,), [1.0]), p=2.0)
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
