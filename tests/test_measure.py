"""Norm measurement: composite Gauss, stratified MC, sup grid, exact blocks."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from faberkit import faber, measure
from faberkit.dyadic import MAX_LEVEL, MAX_POINTS, LevelVector
from faberkit.faber import (
    EvaluationError,
    FaberSeries,
    FunctionHandle,
    analyze,
    evaluate_batch,
    synthesize,
)
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
from oracles import random_series, single_level_series

RNG = np.random.default_rng(1234)


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

    def test_mc_samples_over_point_cap_rejected(self):
        assert StratifiedMC(samples=MAX_POINTS).samples == MAX_POINTS
        with pytest.raises(ValueError, match=f"cap {MAX_POINTS}"):
            StratifiedMC(samples=MAX_POINTS + 1)

    def test_gauss_order_minimum(self):
        with pytest.raises(ValueError):
            CompositeGauss(level=2, order=1)

    def test_gauss_order_above_maximum_rejected_before_leggauss(self, monkeypatch):
        def refuse(order):
            raise AssertionError(f"leggauss({order}) called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        assert CompositeGauss(level=2, order=measure.MAX_GAUSS_ORDER).order == 100
        with pytest.raises(ValueError, match="outside 2..100"):
            CompositeGauss(level=2, order=101)

    @pytest.mark.parametrize("method", [CompositeGauss, SupGrid])
    def test_level_above_max_level_rejected_before_shifting(self, method):
        method(level=MAX_LEVEL)
        with pytest.raises(ValueError, match="MAX_LEVEL"):
            method(level=MAX_LEVEL + 1)
        with pytest.raises(ValueError, match="MAX_LEVEL"):
            method(level=10**8)

    @pytest.mark.parametrize("method", [CompositeGauss, SupGrid])
    def test_non_integer_level_rejected_naming_the_field(self, method):
        assert method(level=np.int64(3)).level == method(level=3).level == 3
        for level in (3.0, np.float64(3.0), "3", None, True):
            with pytest.raises(ValueError, match=f"level must be an integer, got {re.escape(repr(level))}"):
                method(level=level)

    def test_non_integer_gauss_order_rejected_naming_the_field(self):
        assert CompositeGauss(level=2, order=np.int32(4)).order == 4
        for order in (4.0, 4.5, "4", True):
            with pytest.raises(ValueError, match=f"Gauss order must be an integer, got {re.escape(repr(order))}"):
                CompositeGauss(level=2, order=order)

    def test_mc_integers_rejected_naming_the_field(self):
        mc = StratifiedMC(samples=np.int64(2000), seed=np.int32(3))
        assert (mc.samples, mc.seed) == (2000, 3)
        for kwargs, field in (
            ({"samples": 2000.0}, "samples"),
            ({"samples": "2000"}, "samples"),
            ({"seed": 1.5}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"samples": False}, "samples"),
            ({"seed": True}, "seed"),
        ):
            (value,) = kwargs.values()
            with pytest.raises(ValueError, match=f"Monte Carlo {field} must be an integer, got {re.escape(repr(value))}"):
                StratifiedMC(**kwargs)

    @pytest.mark.parametrize(
        "method,message",
        [(CompositeGauss, "mesh level must be >= 1"), (SupGrid, "grid level must be >= 1")],
    )
    def test_level_below_one_rejected(self, method, message):
        for level in (0, -1):
            with pytest.raises(ValueError, match=message):
                method(level=level)

    def test_mc_negative_seed_rejected(self):
        assert StratifiedMC(seed=0).seed == 0
        for seed in (-1, np.int64(-7)):
            with pytest.raises(ValueError, match=f"Monte Carlo seed {seed} must be >= 0"):
                StratifiedMC(seed=seed)

    @pytest.mark.parametrize("method", ["composite", None, 3, CompositeGauss])
    def test_unknown_method_rejected_when_the_spec_is_built(self, method):
        with pytest.raises(ValueError, match=f"unknown measure method {re.escape(repr(method))}"):
            MeasureSpec(2.0, method)


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

    @pytest.mark.parametrize(
        "method,d,message",
        [
            (CompositeGauss(level=1), 4, "composite Gauss supports d <= 3; use stratified_mc"),
            (CompositeGauss(level=5), 3,
             "composite mesh level 5 in d=3 exceeds the cell budget; use stratified_mc instead"),
            (CompositeGauss(level=21, order=7), 1,
             "composite mesh level 21 in d=1 exceeds the cell budget; use stratified_mc instead"),
            (SupGrid(level=25), 1, "sup grid level 25 in d=1 exceeds the cell budget"),
            (SupGrid(level=13), 2, "sup grid level 13 in d=2 exceeds the cell budget"),
        ],
    )
    def test_over_cap_method_refused_before_evaluation(self, method, d, message):
        g = FunctionHandle(lambda X: X[:, 0], d)
        q = math.inf if isinstance(method, SupGrid) else 2.0
        with pytest.raises(ValueError) as info:
            lq_norm(g, MeasureSpec(q, method))
        assert str(info.value) == message and g.eval_count == 0

    @pytest.mark.parametrize(
        "method,d",
        [(CompositeGauss(level=4), 3), (CompositeGauss(level=20, order=7), 1), (SupGrid(level=24), 1),
         (SupGrid(level=12), 2), (StratifiedMC(samples=MAX_POINTS), 9)],
    )
    def test_methods_at_their_caps_fit(self, method, d):
        assert measure._cap_error(method, d) == ""

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

    def test_remainder_over_two_batches_keeps_its_value(self, monkeypatch):
        # 2**17 strata, then 70,001 remainder draws: batches of 65,536 and
        # 4,465 points, the last piece partial; the value is the one the
        # remainder's index grids gave
        batches, pieces = [], []
        real = measure._power_sums

        def spy(g, draws, q, moments=False):
            def seen():
                for size, batch in draws:
                    batches.append(size)
                    yield size, batch
            return real(g, seen(), q, moments)

        monkeypatch.setattr(measure, "_power_sums", spy)
        g = FunctionHandle(lambda X: pieces.append(len(X)) or X[:, 0] ** 2 - 0.3, 1)
        value = lq_norm(g, MeasureSpec(2.0, StratifiedMC(samples=(1 << 17) + 70_001, seed=9)))
        assert value == (0.29994817208822916, 0.00040183231554168477)
        assert batches == [measure._CHUNK] * 3 + [4465]
        assert pieces == [faber._ROWS] * 24 + [4465]
        assert g.eval_count == (1 << 17) + 70_001

    def test_zero_function(self):
        z = FunctionHandle(lambda X: np.zeros(len(X)), 1)
        value, est = lq_norm(z, MeasureSpec(2.0, StratifiedMC(samples=1500, seed=2)))
        assert value == 0.0 and est == 0.0

    def test_estimate_underflow_rejected(self):
        # 0.01**120 is normal, but the estimate's 0.01**240 underflows to 0
        g = FunctionHandle(lambda X: np.full(len(X), 0.01), 1)
        with pytest.raises(ValueError, match="q=120.0 .* underflows"):
            lq_norm(g, MeasureSpec(120.0, StratifiedMC(samples=5000, seed=3)))


@pytest.mark.parametrize(
    "method", [CompositeGauss(level=3), StratifiedMC(samples=5000, seed=3)], ids=["gauss", "mc"]
)
class TestOutsideBinary64:
    """A sum of |g|^q that leaves binary64 raises instead of reading 0 or inf."""

    def test_underflow_rejected(self, method):
        g = FunctionHandle(lambda X: np.full(len(X), 0.01), 1)
        assert lq_norm(g, MeasureSpec(60.0, method))[0] == pytest.approx(0.01, rel=1e-12)
        with pytest.raises(ValueError, match="q=200.0 .* underflows"):
            lq_norm(g, MeasureSpec(200.0, method))

    def test_overflow_rejected(self, method):
        g = FunctionHandle(lambda X: np.full(len(X), 1e10), 2)
        with pytest.raises(ValueError, match="q=40.0 .* overflows"):
            lq_norm(g, MeasureSpec(40.0, method))

    def test_zero_function_is_zero_at_any_q(self, method):
        z = FunctionHandle(lambda X: np.zeros(len(X)), 1)
        assert lq_norm(z, MeasureSpec(1000.0, method))[0] == 0.0


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


def test_measured_bytes_are_pinned():
    # Monte Carlo with 131,072 strata in two batches, then a remainder (d = 1),
    # with no remainder (d = 2), and with a remainder of 167,232 rows in three
    # batches (d = 3); then composite Gauss and the sup grid, each over two
    # batches.  q = 2 squares |g| without numpy's power kernel, and g takes
    # only exact products, so the digest holds on every host.
    def kinked(d):
        def evaluator(X):
            v = np.abs(X[:, 0] - 0.3) - 0.2
            for i in range(1, d):
                v = v * (X[:, i] + 0.5)
            return v
        return FunctionHandle(evaluator, d)

    cases = [
        (1, MeasureSpec(2.0, StratifiedMC(samples=200_000, seed=3))),
        (2, MeasureSpec(2.0, StratifiedMC(samples=4096, seed=4))),
        (3, MeasureSpec(2.0, StratifiedMC(samples=200_000, seed=5))),
        (2, MeasureSpec(2.0, CompositeGauss(level=6))),
        (2, MeasureSpec(math.inf, SupGrid(level=8))),
    ]
    values = np.array([lq_norm(kinked(d), spec) for d, spec in cases])
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "5b1e5c40fcdaf38407d1d6e8d46f459a274925f2ee2cc16a5590c430db20a75a"


@pytest.mark.parametrize("chunk", [4, measure._CHUNK])
@pytest.mark.parametrize("shape", [(3, 5, 7), (9,), (1, 4), (2, 1, 3)])
def test_tensor_batches_cover_the_grid_once_in_c_order(monkeypatch, chunk, shape):
    # with chunk 4, pieces of at most 3 rows: a batch of 4 is cut into 3 + 1
    monkeypatch.setattr(measure, "_CHUNK", chunk)
    monkeypatch.setattr(measure, "_ROWS", min(measure._ROWS, chunk - 1))
    rng = np.random.default_rng(len(shape) * 10 + chunk)
    axes = [np.sort(rng.random(s)) for s in shape]
    weights = [rng.random(s) + 0.5 for s in shape]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
    products = np.ones(len(grid))
    for w in np.meshgrid(*weights, indexing="ij"):
        products *= w.reshape(-1)
    batches = [(size, list(pieces)) for size, pieces in measure._tensor_batches(axes, weights)]
    assert [size for size, _ in batches[:-1]] == [chunk] * (len(batches) - 1)
    assert 0 < batches[-1][0] <= chunk
    # each batch is its own pieces, none crossing into the next, none over _ROWS rows
    assert all(sum(len(X) for X, _ in pieces) == size for size, pieces in batches)
    assert all(0 < len(X) <= measure._ROWS for _, pieces in batches for X, _ in pieces)
    assert [len(X) for X, _ in batches[0][1]] == ([3, 1] if chunk == 4 else [len(grid)])
    X = np.concatenate([X for _, pieces in batches for X, _ in pieces])
    assert X.tobytes() == grid.tobytes()
    w = np.concatenate([w for _, pieces in batches for _, w in pieces])
    assert w.tobytes() == products.tobytes()
    bare = [X for _, pieces in measure._tensor_batches(axes) for X in pieces]
    assert all(w is None for _, w in bare)
    assert np.concatenate([X for X, _ in bare]).tobytes() == grid.tobytes()
    # _batches hands its piece each row range once, in order: here the C-order
    # indices of the range's rows, as the Monte Carlo strata take their corners
    def corners(start, stop):
        return np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)

    indices = [X for _, pieces in measure._batches(len(grid), corners) for X in pieces]
    assert [len(X) for X in indices] == [len(X) for _, pieces in batches for X, _ in pieces]
    spelled = [np.arange(s) for s in shape]
    want = np.stack(np.meshgrid(*spelled, indexing="ij"), axis=-1).reshape(-1, len(shape))
    assert np.concatenate(indices).tobytes() == want.tobytes()


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

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError, match="coefficient count does not match the level"):
            block_lq_exact((1,), [1.0, 1.0, 1.0], 2.0)

    def test_two_disjoint_tents_l2(self):
        assert block_lq_exact((1,), [1.0, 1.0], 2.0) == pytest.approx(math.sqrt(1 / 3))

    def test_zero_coefficients(self):
        assert block_lq_exact((2,), np.zeros(4), 3.0) == 0.0

    def test_boundary_level_rejected(self):
        with pytest.raises(ValueError):
            block_lq_exact((-1, 2), np.zeros(8), 2.0)

    @pytest.mark.parametrize("q", [0.5, -math.inf, math.nan])
    def test_q_below_one_rejected(self, q):
        with pytest.raises(ValueError, match="q < 1 not supported"):
            block_lq_exact((1,), [1.0, 2.0], q)

    def test_large_coefficients_scaled_not_overflowed(self):
        # |c|^4 overflows binary64 but the norm, (2 c^4 / 2 / 5)^(1/4) = c / 5^(1/4),
        # does not; a finite sum keeps the bytes of the unscaled formula
        value = block_lq_exact((1,), [1e300, 1e300], 4.0)
        assert value == pytest.approx(1e300 / 5**0.25, rel=1e-15)
        assert block_lq_exact((1,), [-1e300, 0.0], 4.0) == pytest.approx(1e300 / 10**0.25, rel=1e-15)
        coeffs = RNG.uniform(-1, 1, 4)
        expected = (float(np.sum(np.abs(coeffs) ** 2.5)) * 2.0**-2 / 3.5) ** (1 / 2.5)
        assert block_lq_exact((2,), coeffs, 2.5) == expected
        assert block_lq_exact((1,), [math.inf, 1.0], 4.0) == math.inf

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

    def test_composite_where_its_mesh_pair_fits(self):
        # the choice written out: d <= 3 and ((2^L G)^d)(1 + 2^d) <= MAX_POINTS, L = n + 2
        for d in range(1, 6):
            for n in range(0, 70):
                fits = d <= 3 and ((1 << (n + 2)) * 5) ** d * (1 + 2**d) <= MAX_POINTS
                method = default_spec(2.0, n, d, seed=3).method
                assert method == (CompositeGauss(level=n + 2) if fits else StratifiedMC(seed=3))

    def test_q_inf_uses_sup(self):
        assert isinstance(default_spec(math.inf, 3, 2).method, SupGrid)


def black_box(handle):
    """``handle`` re-wrapped as a plain black box (as a tracing wrapper does)."""
    return FunctionHandle(
        lambda X: handle.eval_batch(X),
        handle.dim,
        label=handle.label,
        exact_integral=handle.exact_integral,
    )


class TestJointDefect:
    """lq_error of a synthesized f evaluates f's series and the approximant together."""

    @pytest.fixture
    def passes(self, monkeypatch):
        # the number of series of every _evaluate_many call's plan
        sizes = []
        real = faber._evaluate_many

        def spy(plan, points):
            sizes.append(len(plan.series))
            return real(plan, points)

        monkeypatch.setattr(faber, "_evaluate_many", spy)
        return sizes

    @pytest.mark.parametrize(
        "d,n,spec",
        [
            (1, 4, MeasureSpec(2.0, CompositeGauss(level=6))),
            (2, 3, MeasureSpec(1.5, CompositeGauss(level=4))),
            (3, 3, MeasureSpec(2.0, StratifiedMC(samples=70_000, seed=5))),
        ],
    )
    def test_same_bytes_and_count_as_two_calls(self, passes, d, n, spec):
        rng = np.random.default_rng(100 + d)
        f_series = random_series(n + 1, d, rng)
        s = random_series(n, d, rng)
        f = synthesize(f_series)
        joint = lq_error(f, s, spec)
        assert passes and set(passes) == {2}
        passes.clear()
        g = synthesize(f_series)
        boxed = black_box(g)
        two_calls = lq_error(boxed, s, spec)
        assert passes and set(passes) == {1}
        spelled = lq_norm(
            FunctionHandle(lambda X: g.eval_batch(X) - evaluate_batch(s, X), d), spec
        )
        assert np.array(joint).tobytes() == np.array(two_calls).tobytes()
        assert np.array(joint).tobytes() == np.array(spelled).tobytes()
        assert f.eval_count == boxed.eval_count > 0
        assert g.eval_count == 2 * f.eval_count

    def test_defect_plans_its_walk_once(self, passes, monkeypatch):
        # one plan per defect handle, not one per piece: 200,000 samples at
        # d = 3 are 2**15 strata and 167,232 remainder draws, 25 pieces
        plans = []
        real = faber._walk_plan

        def spy(many):
            plans.append(len(many))
            return real(many)

        monkeypatch.setattr(faber, "_walk_plan", spy)
        rng = np.random.default_rng(41)
        s = random_series(3, 3, rng)
        spec = MeasureSpec(2.0, StratifiedMC(samples=200_000, seed=6))
        boxed = FunctionHandle(lambda X: np.cos(X).prod(axis=1), 3)
        for f, count in ((synthesize(random_series(4, 3, rng)), 2), (boxed, 1)):
            lq_error(f, s, spec)
            assert plans == [count] and passes == [count] * 25
            plans.clear()
            passes.clear()

    @pytest.mark.parametrize("synthesized", [True, False])
    def test_refuses_bad_points_with_the_handle_messages_and_counts(self, synthesized):
        # one evaluator for both kinds of f: a wrong shape is refused uncounted,
        # a point outside the cube or a NaN coordinate after f counts it, as
        # f.eval_batch counts, and a black-box f never runs on such points
        rng = np.random.default_rng(7)
        s = random_series(3, 2, rng)
        calls = []

        def ones(X):
            calls.append(len(X))
            return np.ones(len(X))

        f = synthesize(random_series(4, 2, rng)) if synthesized else FunctionHandle(ones, 2)
        g = faber._defect(f, s)
        cases = [
            (np.zeros((3, 3)), r"expected \(N, 2\) points, got shape \(3, 3\)", 0),
            ([0.5, 0.5], r"expected \(N, 2\) points, got shape \(2,\)", 0),
            ([[0.5, 0.5], [0.25, 1.5]], r"point \(0\.25, 1\.5\) outside \[0,1\]\^d", 2),
            ([[-0.0, 1.0], [-1e-300, 0.0]], r"point \(-1e-300, 0\.0\) outside \[0,1\]\^d", 2),
            ([[0.5, np.nan]], r"point \(0\.5, nan\) outside \[0,1\]\^d", 1),
        ]
        for points, message, count in cases:
            before = f.eval_count, g.eval_count
            with pytest.raises(ValueError, match=message):
                g.eval_batch(points)
            assert (f.eval_count - before[0], g.eval_count - before[1]) == (count, count)
        assert calls == []
        X = rng.random((5, 2))
        expected = f.eval_batch(X) - evaluate_batch(s, X)
        assert g.eval_batch(X).tobytes() == expected.tobytes() and calls == ([] if synthesized else [5, 5])

    @staticmethod
    def streamed_peak(f, s, spec):
        lq_error(f, s, spec)  # warm: the level layouts and numpy.random
        tracemalloc.start()
        try:
            lq_error(f, s, spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def streamed_bound(d, n, batch):
        # lq_error's bound: 8 B per point of the largest batch, plus one piece's
        # points, weights and two series' values, plus _evaluate_many's floats
        # per row (as its docstring states) for one piece of _ROWS rows
        floats = max(2 * d - 3, 0) * n + 6 * d + 2 ** (d + 1)
        return 8 * batch + 8 * (d + 3 + floats) * faber._ROWS

    def test_monte_carlo_peak_is_bounded_per_batch_point(self):
        # at d = 3, 70,000 samples draw batches of 32,768 and 37,232 points,
        # 140,000 samples batches of up to 65,536
        d, n = 3, 5
        rng = np.random.default_rng(17)
        f, s = synthesize(random_series(n, d, rng)), random_series(n - 2, d, rng)
        for samples in (70_000, 140_000):
            peak = self.streamed_peak(f, s, MeasureSpec(2.0, StratifiedMC(samples=samples, seed=5)))
            level = int(math.log2(samples)) // d
            strata = 1 << (level * d)
            batch = max(min(strata, measure._CHUNK), min(samples - strata, measure._CHUNK))
            assert peak <= self.streamed_bound(d, n, batch), (samples, peak)

    def test_monte_carlo_peak_at_d1_does_not_grow_with_the_strata(self):
        # 2**16 and 2**19 strata: the corners come from each piece's indices,
        # so the bound is the same at both
        d, n = 1, 10
        rng = np.random.default_rng(23)
        f, s = synthesize(random_series(n, d, rng)), random_series(n - 2, d, rng)
        for samples in (70_000, 1_000_000):
            peak = self.streamed_peak(f, s, MeasureSpec(2.0, StratifiedMC(samples=samples, seed=5)))
            assert peak <= self.streamed_bound(d, n, measure._CHUNK), (samples, peak)

    @pytest.mark.parametrize("n,level", [(5, 5), (6, 6)])
    def test_composite_peak_is_bounded_per_batch_point(self, n, level):
        # the refined mesh has (2**(level + 1) * 5)**2 >= 102,400 points, so
        # the largest batch is a full _CHUNK
        d = 2
        rng = np.random.default_rng(19)
        f, s = synthesize(random_series(n, d, rng)), random_series(n - 2, d, rng)
        peak = self.streamed_peak(f, s, MeasureSpec(2.0, CompositeGauss(level=level)))
        assert peak <= self.streamed_bound(d, n, measure._CHUNK), peak

    def test_overflow_raises_the_same_evaluation_error(self):
        # (1 - x) c + v(x) c overflows for x > 0.06 with c near the top of binary64
        huge = FaberSeries(1, 1, [1.7e308, 0.0, 1.7e308, 0.0, 0.0])
        s = random_series(1, 1, np.random.default_rng(3))
        spec = MeasureSpec(2.0, CompositeGauss(level=3))
        errors = []
        for f in (synthesize(huge, label="huge"), black_box(synthesize(huge, label="huge"))):
            with pytest.raises(EvaluationError) as info:
                lq_error(f, s, spec)
            errors.append(info.value)
        joint, two_calls = errors
        assert str(joint) == str(two_calls) and "'huge'" in str(joint)
        assert joint.point == two_calls.point
        assert joint.value == two_calls.value == math.inf

    def test_defect_checks_points_as_before(self, monkeypatch):
        # lq_error hands its defect handle to lq_norm; take it from there
        monkeypatch.setattr(measure, "lq_norm", lambda g, spec: g)
        f_series = random_series(2, 2, np.random.default_rng(4))
        s = random_series(1, 2, np.random.default_rng(5))
        spec = MeasureSpec(2.0, CompositeGauss(level=2))
        handles = [synthesize(f_series), black_box(synthesize(f_series))]
        defects = [lq_error(f, s, spec) for f in handles]
        X = np.array([[0.5, 0.5], [0.25, 0.75]])
        values = [g.eval_batch(X).tobytes() for g in defects]
        assert values[0] == values[1]
        for bad in ([[0.5, 0.5], [0.25, 1.5]], [[0.5, np.nan]], np.zeros((2, 3))):
            messages = []
            for g in defects:
                with pytest.raises(ValueError) as info:
                    g.eval_batch(bad)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
        assert handles[0].eval_count == handles[1].eval_count == 5
