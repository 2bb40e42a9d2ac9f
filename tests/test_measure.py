"""Norm measurement: composite Gauss, stratified MC, sup grid, exact blocks."""

import math

import numpy as np
import pytest

from faberkit import measure
from faberkit.dyadic import LevelVector, levels_up_to
from faberkit.faber import FaberSeries, FunctionHandle, analyze, synthesize
from faberkit.measure import (
    CompositeGauss,
    MeasureSpec,
    StratifiedMC,
    SupGrid,
    block_lq_exact,
    default_spec,
    lq_error,
    lq_norm,
)

RNG = np.random.default_rng(1234)


def random_series(budget, dim, rng):
    coeffs = [rng.uniform(-1, 1, j.translation_count()) for j in levels_up_to(budget, dim)]
    return FaberSeries(budget, dim, np.concatenate(coeffs))


def single_level_series(j, coeffs):
    j = LevelVector(j)
    blocks = [
        np.asarray(coeffs, dtype=float) if lv == j else np.zeros(lv.translation_count())
        for lv in levels_up_to(j.order, j.dim)
    ]
    return FaberSeries(j.order, j.dim, np.concatenate(blocks))


def unit_tent_handle():
    return synthesize(single_level_series((0,), [1.0]))


class TestSpecValidation:
    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(0.5, CompositeGauss(level=2))

    def test_q_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            MeasureSpec(math.nan, CompositeGauss(level=2))

    def test_q_inf_needs_sup_grid(self):
        with pytest.raises(ValueError):
            MeasureSpec(math.inf, CompositeGauss(level=2))
        with pytest.raises(ValueError):
            MeasureSpec(2.0, SupGrid(level=2))

    def test_mc_needs_thousand_samples(self):
        with pytest.raises(ValueError):
            StratifiedMC(samples=999)

    def test_gauss_order_minimum(self):
        with pytest.raises(ValueError):
            CompositeGauss(level=2, order=1)


class TestCompositeGauss:
    def test_constant_every_q(self):
        c = FunctionHandle(lambda X: np.full(len(X), -0.75), 2, label="const")
        for q in (1.0, 2.0, 4.0):
            value, est = lq_norm(c, MeasureSpec(q, CompositeGauss(level=2)))
            assert value == pytest.approx(0.75, rel=1e-13)
            assert est <= 1e-13

    def test_tent_l2(self):
        value, _ = lq_norm(unit_tent_handle(), MeasureSpec(2.0, CompositeGauss(level=3)))
        assert value == pytest.approx(math.sqrt(1 / 3), abs=1e-12)

    def test_tent_l1(self):
        value, _ = lq_norm(unit_tent_handle(), MeasureSpec(1.0, CompositeGauss(level=3)))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_tent_general_q_identity(self):
        # int_0^1 tent^q = 1/(q+1)
        for q in (1.0, 2.0, 3.0, 4.0):
            value, _ = lq_norm(
                unit_tent_handle(), MeasureSpec(q, CompositeGauss(level=4))
            )
            assert value == pytest.approx((1 / (q + 1)) ** (1 / q), abs=1e-11)

    def test_d4_rejected(self):
        g = FunctionHandle(lambda X: X[:, 0], 4)
        with pytest.raises(ValueError):
            lq_norm(g, MeasureSpec(2.0, CompositeGauss(level=1)))

    def test_cell_overflow_directs_to_mc(self):
        g = FunctionHandle(lambda X: X[:, 0], 3)
        with pytest.raises(ValueError, match="stratified_mc"):
            lq_norm(g, MeasureSpec(2.0, CompositeGauss(level=9)))

    def test_monotone_in_q(self):
        g = synthesize(random_series(2, 2, RNG))
        values = [
            lq_norm(g, MeasureSpec(q, CompositeGauss(level=5)))[0] for q in (1.0, 2.0, 4.0)
        ]
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12


class TestStratifiedMC:
    def test_constant(self):
        c = FunctionHandle(lambda X: np.full(len(X), 2.0), 1, label="two")
        value, est = lq_norm(c, MeasureSpec(2.0, StratifiedMC(samples=2000, seed=1)))
        assert value == pytest.approx(2.0, rel=1e-14)
        assert est <= 1e-12

    def test_seeded_runs_bit_identical(self):
        g = synthesize(random_series(3, 2, RNG))
        spec = MeasureSpec(2.0, StratifiedMC(samples=20_000, seed=9))
        assert lq_norm(g, spec) == lq_norm(g, spec)

    def test_different_seeds_differ(self):
        g = synthesize(random_series(2, 1, RNG))
        a = lq_norm(g, MeasureSpec(1.0, StratifiedMC(samples=5000, seed=0)))[0]
        b = lq_norm(g, MeasureSpec(1.0, StratifiedMC(samples=5000, seed=1)))[0]
        assert a != b

    def test_agrees_with_composite(self):
        for dim in (1, 2):
            g = synthesize(random_series(2, dim, RNG))
            vc, ec = lq_norm(g, MeasureSpec(2.0, CompositeGauss(level=4)))
            vm, em = lq_norm(g, MeasureSpec(2.0, StratifiedMC(samples=200_000, seed=4)))
            assert abs(vc - vm) <= 3 * (ec + em)

    def test_d3_composite_agrees_with_mc(self):
        g = synthesize(random_series(1, 3, RNG))
        vc, ec = lq_norm(g, MeasureSpec(2.0, CompositeGauss(level=2, order=4)))
        vm, em = lq_norm(g, MeasureSpec(2.0, StratifiedMC(samples=250_000, seed=8)))
        assert abs(vc - vm) <= 3 * (ec + em + 1e-12)

    def test_zero_function(self):
        z = FunctionHandle(lambda X: np.zeros(len(X)), 1)
        value, est = lq_norm(z, MeasureSpec(2.0, StratifiedMC(samples=1500, seed=2)))
        assert value == 0.0 and est == 0.0


class TestSupGrid:
    def test_tent_sup(self):
        value, est = lq_norm(unit_tent_handle(), MeasureSpec(math.inf, SupGrid(level=3)))
        assert value == 1.0 and est == 0.0

    def test_lower_bound_of_true_sup(self):
        # fine tent peaks between coarse grid points
        g = synthesize(single_level_series((4,), np.eye(16)[5]))
        coarse, _ = lq_norm(g, MeasureSpec(math.inf, SupGrid(level=2)))
        fine, _ = lq_norm(g, MeasureSpec(math.inf, SupGrid(level=6)))
        assert coarse <= fine == 1.0


def test_chunk_size_changes_rounding_only(monkeypatch):
    # each spec spans several chunks at both sizes
    g = synthesize(random_series(3, 2, RNG))
    specs = [
        MeasureSpec(math.inf, SupGrid(level=8)),
        MeasureSpec(2.0, CompositeGauss(level=5)),
        MeasureSpec(1.5, StratifiedMC(samples=200_000, seed=3)),
    ]
    default = [lq_norm(g, spec) for spec in specs]
    monkeypatch.setattr(measure, "_CHUNK", 1000)
    small = [lq_norm(g, spec) for spec in specs]
    assert small[0] == default[0]
    for (a, ea), (b, eb) in zip(default[1:], small[1:]):
        assert abs(b - a) <= 1e-12 * a
        assert abs(eb - ea) <= 1e-12 * a


class TestLqError:
    def test_multilinear_exact_recovery(self):
        f = FunctionHandle(lambda X: 1 + X[:, 0] * X[:, 1], 2)
        s = analyze(f, 1)
        err, _ = lq_error(f, s, MeasureSpec(2.0, CompositeGauss(level=4)))
        assert err <= 1e-10

    def test_single_level_tail_matches_block_norm(self):
        coeffs = RNG.uniform(-1, 1, 8)
        tail = single_level_series((3,), coeffs)
        # f carries the level-3 piece; recovery at budget 2 misses exactly it
        f = synthesize(tail)
        s = analyze(f, 2)
        err, _ = lq_error(f, s, MeasureSpec(2.0, CompositeGauss(level=5)))
        assert err**2 == pytest.approx(block_lq_exact((3,), coeffs, 2.0) ** 2, abs=1e-12)

    def test_parabola_error_halves_at_second_order(self):
        f = FunctionHandle(lambda X: X[:, 0] ** 2, 1)
        errs = []
        for n in (4, 5, 6):
            s = analyze(f, n)
            errs.append(lq_error(f, s, MeasureSpec(2.0, CompositeGauss(level=n + 4)))[0])
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(4.0, abs=0.05)

    def test_dimension_mismatch(self):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        s = FaberSeries.zeros(1, 2)
        with pytest.raises(ValueError):
            lq_error(f, s, MeasureSpec(2.0, CompositeGauss(level=2)))


class TestBlockLqExact:
    def test_single_tent_area(self):
        assert block_lq_exact((0,), [1.0], 1.0) == pytest.approx(0.5)

    def test_two_disjoint_tents_l2(self):
        assert block_lq_exact((1,), [1.0, 1.0], 2.0) == pytest.approx(math.sqrt(1 / 3))

    def test_zero_coefficients(self):
        assert block_lq_exact((2,), np.zeros(4), 3.0) == 0.0

    def test_boundary_level_rejected(self):
        with pytest.raises(ValueError):
            block_lq_exact((-1, 2), np.zeros(8), 2.0)

    def test_q_inf_is_peak_height(self):
        assert block_lq_exact((2,), [0.0, -0.7, 0.2, 0.0], math.inf) == 0.7

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_matches_composite_on_synthesized_level(self, q):
        for j in [(2,), (1, 1), (0, 2)]:
            lv = LevelVector(j)
            coeffs = RNG.uniform(-1, 1, lv.translation_count())
            g = synthesize(single_level_series(j, coeffs))
            level = max(e for e in lv.entries) + 1
            value, _ = lq_norm(g, MeasureSpec(q, CompositeGauss(level=max(level, 2))))
            assert value == pytest.approx(block_lq_exact(j, coeffs, q), abs=1e-10)

    def test_fractional_q_against_quadrature(self):
        # |c| * tent^1.5 has no closed Gauss rule; the block formula still
        # matches the Richardson-converged composite value
        coeffs = RNG.uniform(-1, 1, 4)
        g = synthesize(single_level_series((2,), coeffs))
        value, est = lq_norm(g, MeasureSpec(1.5, CompositeGauss(level=8)))
        assert value == pytest.approx(block_lq_exact((2,), coeffs, 1.5), abs=1e-6)
        assert est <= 1e-6


class TestDefaultSpec:
    def test_small_dims_use_composite(self):
        spec = default_spec(2.0, 4, 1)
        assert isinstance(spec.method, CompositeGauss)
        assert spec.method.level == 6

    def test_large_grid_falls_back_to_mc(self):
        spec = default_spec(2.0, 10, 3)
        assert isinstance(spec.method, StratifiedMC)

    def test_q_inf_uses_sup(self):
        assert isinstance(default_spec(math.inf, 3, 2).method, SupGrid)
