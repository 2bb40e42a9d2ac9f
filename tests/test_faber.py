"""Basis evaluation, analysis/synthesis round trips, integration, serialization."""

import copy
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberkit.dyadic import (
    MAX_POINTS,
    LevelVector,
    _grid_plan,
    levels_up_to,
    node_count,
    node_set,
)
from faberkit import dyadic, faber, seqnorm
from faberkit.faber import (
    EvaluationError,
    FaberSeries,
    FunctionHandle,
    analyze,
    evaluate_batch,
    integrate,
    series_from_json,
    series_from_text,
    series_to_json,
    series_to_text,
    synthesize,
)
from faberkit.seqnorm import series_profile
from oracles import (
    brute_force_levels,
    coeff,
    from_scalar,
    hat_eval,
    lattice_nodes,
    naive_eval,
    per_level_eval,
    random_series,
    tensor_eval,
    to_floats,
    translations,
)

RNG = np.random.default_rng(20240811)


def gauss_integral(func, level, order=6):
    """Oracle: univariate composite Gauss-Legendre on a fixed dyadic mesh."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = 2.0**-level
    total = 0.0
    for c in range(2**level):
        xs = c * h + (nodes + 1.0) * h / 2.0
        total += np.sum(weights * func(xs)) * h / 2.0
    return total


def unit_tent():
    # series order at budget 0 in d=1: (-1, 0), (-1, 1), (0, 0)
    return FaberSeries(0, 1, [0.0, 0.0, 1.0])


class TestHatEval:
    def test_peak(self):
        assert hat_eval(0, 0, 0.5) == 1.0

    def test_boundary_functions(self):
        assert hat_eval(-1, 0, 0.25) == 0.75
        assert hat_eval(-1, 1, 0.25) == 0.25

    def test_dilated_translate(self):
        assert hat_eval(2, 1, 5 / 16) == 0.5

    def test_vanishes_outside_support(self):
        assert hat_eval(2, 1, 0.1) == 0.0
        assert hat_eval(2, 1, 0.55) == 0.0

    def test_piecewise_linear_shape(self):
        for t in np.linspace(0.0, 1.0, 33):
            expected = 2 * t if t <= 0.5 else 2 - 2 * t
            assert hat_eval(0, 0, float(t)) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hat_eval(2, 4, 0.5)
        with pytest.raises(ValueError):
            hat_eval(-1, 2, 0.5)
        with pytest.raises(ValueError):
            hat_eval(0, 0, 1.5)


class TestTensorEval:
    def test_product_of_peaks(self):
        assert tensor_eval((0, 0), (0, 0), (0.5, 0.5)) == 1.0

    def test_support_box(self):
        # first axis outside [0, 1/2] kills the product
        assert tensor_eval((1, 0), (0, 0), (0.6, 0.5)) == 0.0

    def test_mixed_boundary(self):
        assert tensor_eval((1, -1), (0, 1), (0.25, 0.5)) == 0.5

    def test_range(self):
        for _ in range(50):
            x = tuple(RNG.uniform(0, 1, 2))
            v = tensor_eval((1, 2), (1, 2), x)
            assert 0.0 <= v <= 1.0


class TestCoeff:
    def test_parabola_surplus_is_minus_h_squared(self):
        f = FunctionHandle(lambda X: X[:, 0] ** 2, 1, label="x^2")
        for j, k in [(0, 0), (2, 1), (3, 0), (5, 17)]:
            assert coeff(f, (j,), (k,)) == pytest.approx(-(4.0 ** -(j + 1)), rel=1e-12)

    def test_own_surplus_is_one_and_neighbors_zero(self):
        j = (2,)
        # levels (-1,), (0,), (1,) hold 2 + 1 + 2 coefficients before (2,)
        f = synthesize(FaberSeries(2, 1, np.eye(9)[5 + 1]))
        assert coeff(f, j, (1,)) == pytest.approx(1.0, abs=1e-14)
        for other in (0, 2, 3):
            assert coeff(f, j, (other,)) == pytest.approx(0.0, abs=1e-14)

    def test_coordinate_function_corner_values(self):
        f = FunctionHandle(lambda X: X[:, 0], 2, label="x1")
        values = [coeff(f, (-1, -1), k) for k in translations((-1, -1))]
        assert values == [0.0, 0.0, 1.0, 1.0]

    def test_univariate_surplus_identity(self):
        f = FunctionHandle(lambda X: np.sin(3 * X[:, 0]), 1, label="sin")
        j, k = 3, 5
        left, mid, right = 5 / 8, 5 / 8 + 1 / 16, 5 / 8 + 1 / 8
        expected = f((mid,)) - 0.5 * (f((left,)) + f((right,)))
        assert coeff(f, (j,), (k,)) == pytest.approx(expected, rel=1e-14)

    def test_non_finite_value_reports_point(self):
        def bad(X):
            vals = np.ones(len(X))
            vals[np.isclose(X[:, 0], 0.5)] = np.inf
            return vals

        f = FunctionHandle(bad, 1, label="bad")
        with pytest.raises(EvaluationError) as err:
            coeff(f, (0,), (0,))
        assert err.value.point == (0.5,)


class TestAnalyze:
    def test_constant_lives_on_corner_level(self):
        f = FunctionHandle(lambda X: np.ones(len(X)), 2, label="one")
        s = analyze(f, 3)
        for j, arr in s.items():
            if all(e == -1 for e in j.entries):
                assert np.all(arr == 1.0)
            else:
                assert np.max(np.abs(arr)) <= 1e-14

    def test_eval_count_is_node_count(self):
        f = FunctionHandle(lambda X: np.exp(X[:, 0]), 1, label="exp")
        analyze(f, 3)
        assert f.eval_count == 17
        for d, n in [(1, 6), (2, 4), (3, 2)]:
            g = FunctionHandle(lambda X: np.sum(X, axis=1), d, label="sum")
            analyze(g, n)
            assert g.eval_count == node_count(n, d)

    def test_float_budget_refused_on_a_cold_and_a_warm_memo(self):
        # the plan memo's keys take 2.0 for 2, so a warm memo returned a
        # budget-2 series; the budget is checked before the memo is read
        f = FunctionHandle(lambda X: X[:, 0], 1)
        dyadic._PLANS.clear()
        with pytest.raises(ValueError, match=re.escape("budget must be an integer, got 2.0")):
            analyze(f, 2.0)
        assert analyze(f, np.int64(2)).budget == 2 and f.eval_count == 9
        with pytest.raises(ValueError, match=re.escape("budget must be an integer, got 2.0")):
            analyze(f, 2.0)
        assert f.eval_count == 9

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3)])
    def test_round_trip_prescribed_series(self, d, n):
        for trial in range(3):
            c = random_series(n, d, RNG)
            back = analyze(synthesize(c), n)
            assert c.max_abs_diff(back) <= 1e-12

    def test_round_trip_below_budget(self):
        # analysis at n < J still returns the prescribed coefficients
        c = random_series(5, 1, RNG)
        back = analyze(synthesize(c), 3)
        for j in back.levels():
            assert np.max(np.abs(back.array(j) - c.array(j))) <= 1e-12

    def test_linearity(self):
        f = FunctionHandle(lambda X: np.sin(X[:, 0] + 2 * X[:, 1]), 2, label="f")
        g = FunctionHandle(lambda X: np.cos(3 * X[:, 0]) * X[:, 1], 2, label="g")
        combo = FunctionHandle(
            lambda X: 2.5 * np.sin(X[:, 0] + 2 * X[:, 1])
            - 1.25 * np.cos(3 * X[:, 0]) * X[:, 1],
            2,
            label="combo",
        )
        sf, sg, sc = analyze(f, 3), analyze(g, 3), analyze(combo, 3)
        expected = FaberSeries(3, 2, 2.5 * sf.coeffs - 1.25 * sg.coeffs)
        assert sc.max_abs_diff(expected) <= 1e-12

    @pytest.mark.parametrize("d,n", [(1, 40), (16, 0)])
    def test_budget_over_node_cap_fails_before_sampling(self, d, n):
        f = FunctionHandle(lambda X: X[:, 0], d)
        with pytest.raises(ValueError, match="cap"):
            analyze(f, n)
        assert f.eval_count == 0

    def test_level_key_fits_int64_under_node_cap(self):
        # a level's key is its entries + 1 in radix n + 2, so keys < (n + 2)**d
        largest = 0
        for d in range(1, 30):
            for n in range(63):
                if node_count(n, d) > MAX_POINTS:
                    break  # node counts grow with n
                largest = max(largest, (n + 2) ** d)
        assert largest == 2**24 == (6 + 2) ** 8 and node_count(6, 8) <= MAX_POINTS
        for n, d in [(0, 1), (5, 4), (14, 2), (2, 6)]:
            layout = _grid_plan(n, d).layout
            assert layout.radix.tolist() == [(n + 2) ** (d - 1 - a) for a in range(d)]
            assert layout.keys.max() < (n + 2) ** d

    def test_coeff_agrees_with_analyze(self):
        f = FunctionHandle(lambda X: np.sin(X[:, 0]) * np.exp(X[:, 1]), 2, label="f")
        s = analyze(f, 3)
        g = FunctionHandle(lambda X: np.sin(X[:, 0]) * np.exp(X[:, 1]), 2, label="f2")
        for j in s.levels():
            for flat, k in enumerate(translations(j)):
                assert coeff(g, j, k) == pytest.approx(
                    s.array(j)[flat], abs=1e-13
                )


def count_calls(monkeypatch, name):
    """A list that gets a 1 per call of ``dyadic.<name>``, which still runs."""
    calls, original = [], getattr(dyadic, name)
    monkeypatch.setattr(dyadic, name, lambda *args: calls.append(1) or original(*args))
    return calls


class TestHierarchyPlan:
    """analyze's per-(n, d) plan: memoized within a bound, samples never."""

    def test_repeat_analyze_byte_equal_and_samples_every_node(self, monkeypatch):
        dyadic._PLANS.clear()
        built = count_calls(monkeypatch, "_parent_steps")  # the sweeps' build
        f = FunctionHandle(lambda X: np.exp(X[:, 0] - 2.0 * X[:, 2]) * X[:, 1], 3)
        first = analyze(f, 4)
        for call in range(2, 5):
            again = analyze(f, 4)  # planned by the memo
            assert again.coeffs.tobytes() == first.coeffs.tobytes()
            assert f.eval_count == call * node_count(4, 3)
        fresh = FunctionHandle(lambda X: np.exp(X[:, 0] - 2.0 * X[:, 2]) * X[:, 1], 3)
        assert analyze(fresh, 4).coeffs.tobytes() == first.coeffs.tobytes()
        assert fresh.eval_count == node_count(4, 3)
        assert built == [1]  # one miss, four hits

    @pytest.mark.parametrize("n,d", [(4, 3), (17, 1)])  # memoized, over the size cap
    def test_plan_arrays_read_only(self, n, d):
        points, sweeps = _grid_plan(n, d).hierarchy
        assert points.shape == (node_count(n, d), d) and len(sweeps) == d
        (first, *indices), *others = sweeps
        assert isinstance(first, slice)  # axis 0's inner nodes: immutable, no array
        for array in (points, *indices, *(a for sweep in others for a in sweep)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("n,d", [(4, 3), (17, 1)])
    def test_sweep_indices_are_native_intp(self, n, d):
        # numpy indexes with intp; any other dtype is cast on every sweep
        _, sweeps = _grid_plan(n, d).hierarchy
        (first, *indices), *others = sweeps
        assert type(first.start) is int and first.stop is None and first.step is None
        for array in (*indices, *(a for sweep in others for a in sweep)):
            assert array.dtype == np.intp and not array.flags.writeable

    @pytest.mark.parametrize(
        "n,d", [(n, d) for d in range(1, 6) for n in range(6)] + [(14, 2)]
    )
    def test_plan_points_are_the_node_set(self, n, d):
        expected = to_floats(lattice_nodes(n, d))
        points = node_set(n, d)
        assert points.dtype == np.float64 and len(np.unique(points, axis=0)) == len(points)
        assert points.tobytes() == _grid_plan(n, d).hierarchy[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,d", [(0, 1), (6, 1), (5, 2), (3, 3), (2, 5)])
    def test_sweeps_are_the_surplus_stencils(self, n, d):
        # along its axis, an inner node's neighbours sit one lowest set bit
        # of its lattice coordinate (step 2**-(n+1)) to either side
        points, sweeps = _grid_plan(n, d).hierarchy
        lattice = np.ldexp(points, n + 1).astype(np.int64)
        for axis, (inner, left, right) in enumerate(sweeps):
            inner = np.arange(len(points))[inner]  # axis 0's slice as its indices
            coord = lattice[:, axis]
            assert np.array_equal(inner, np.flatnonzero(coord % (1 << (n + 1)) != 0))
            step = coord[inner] & -coord[inner]
            for side, sign in ((left, -1), (right, 1)):
                expected = lattice[inner].copy()
                expected[:, axis] += sign * step
                assert np.array_equal(lattice[side], expected)

    def test_evaluator_may_work_on_its_points_in_place(self):
        def shifted(X):
            X += 0.25  # allowed: analyze hands f a fresh array
            return X[:, 0] * X[:, 1]

        points = _grid_plan(3, 2).hierarchy[0].copy()
        series = analyze(FunctionHandle(shifted, 2), 3)
        expected = analyze(FunctionHandle(lambda X: (X[:, 0] + 0.25) * (X[:, 1] + 0.25), 2), 3)
        assert series.coeffs.tobytes() == expected.coeffs.tobytes()
        assert _grid_plan(3, 2).hierarchy[0].tobytes() == points.tobytes()

    @pytest.mark.parametrize(
        "evaluator",
        [lambda X: np.broadcast_to(2.0, len(X)), lambda X: np.ascontiguousarray(X[:, 0] * 2.0)],
        ids=["read-only", "kept"],
    )
    def test_evaluator_array_is_never_written(self, evaluator):
        # f's values are hierarchized in a copy that analyze owns: a read-only
        # array is read, and an array the evaluator keeps still holds 2x
        kept = []
        f = FunctionHandle(lambda X: kept.append(evaluator(X)) or kept[-1], 1)
        series = analyze(f, 2)
        expected = analyze(FunctionHandle(lambda X: np.array(evaluator(X)), 1), 2)
        assert series.coeffs.tobytes() == expected.coeffs.tobytes()
        assert np.array_equal(kept[0], evaluator(node_set(2, 1)))

    def test_plan_over_size_cap_not_retained(self):
        n, d = 17, 1
        assert node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS
        f = FunctionHandle(lambda X: X[:, 0] ** 2, d)
        _grid_plan(n, d)  # over the memo's size cap: built for its call and dropped
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            analyze(f, n)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the plan alone holds 32 B per node, 8.4 MB here
        assert retained < 4096

    def test_analyze_over_size_cap_builds_one_layout(self, monkeypatch):
        n, d = 17, 1
        assert node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS
        built = count_calls(monkeypatch, "_Layout")
        series = analyze(FunctionHandle(lambda X: X[:, 0] ** 2, d), n)
        assert built == [1]
        assert series._layout.size == node_count(n, d)

    def test_memo_retention_within_stated_bound(self):
        # more plans than the memo keeps, the largest m·d under its size cap
        plans = [(11, 2), (2, 6), (5, 4), (15, 1), (7, 3), (3, 5), (10, 2), (14, 1), (4, 4)]
        assert len(plans) > dyadic._PLAN_MEMO_SIZE
        assert all(node_count(n, d) * d <= dyadic._PLAN_MEMO_POINTS for n, d in plans)
        dyadic._PLANS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, d in plans:
                _grid_plan(n, d).hierarchy
            retained = tracemalloc.get_traced_memory()[0] - before
            kept = len(dyadic._PLANS)
        finally:
            tracemalloc.stop()
            dyadic._PLANS.clear()
        assert kept == dyadic._PLAN_MEMO_SIZE
        # 8 B of nodes and at most 24 B of intp indices per m·d, and each
        # plan's layout, which the plan holds too
        layouts = dyadic._PLAN_MEMO_SIZE * (82 << 10)
        assert retained <= dyadic._PLAN_MEMO_SIZE * 32 * dyadic._PLAN_MEMO_POINTS + layouts
        assert retained <= (20 << 20) + layouts


class TestReductionPlan:
    """The level reductions' gather blocks: held by the layout, memoized with its plan."""

    def test_cold_and_warm_memo_byte_equal(self, monkeypatch):
        dyadic._PLANS.clear()  # so the series gets a layout that has built no blocks
        s = random_series(4, 3, np.random.default_rng(12))
        built = count_calls(monkeypatch, "_size_groups")
        cold = [np.float64(integrate(s)).tobytes(), np.array(series_profile(s, 1.5)).tobytes()]
        for _ in range(3):
            warm = [np.float64(integrate(s)).tobytes(), np.array(series_profile(s, 1.5)).tobytes()]
            assert warm == cold
        assert built == [1]  # one miss, seven hits

    # memoized, memoized with split size groups, over the size cap
    @pytest.mark.parametrize("n,d,gather", [(4, 3, dyadic._ROWS), (4, 3, 5), (17, 1, dyadic._ROWS)])
    def test_blocks_cover_the_layout_with_read_only_intp_indices(self, n, d, gather, monkeypatch):
        plan = dyadic._GridPlan(n, d)  # a fresh plan, outside the memo
        layout = plan.layout
        seen = []
        monkeypatch.setattr(dyadic, "_ROWS", gather)
        blocks = list(layout.blocks())
        for levels, index in blocks:
            if isinstance(index, np.ndarray):
                assert index.dtype == np.intp and not index.flags.writeable
            assert not levels.flags.writeable
            read = np.arange(layout.size)[index]
            size = read.shape[1]
            assert read.shape == (len(levels), size)
            assert read.size <= max(gather, size)
            assert np.array_equal(read, layout.starts[levels, None] + np.arange(size))
            seen.append(read.ravel())
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(layout.size))

    @pytest.mark.parametrize("n,d", [(4, 3), (17, 1)])  # memoized, over the size cap
    def test_small_plan_keeps_its_blocks_large_yields_them(self, n, d):
        layout = _grid_plan(n, d).layout
        if layout.small:
            assert isinstance(layout.blocks(), tuple) and layout.blocks() is layout.blocks()
        else:
            assert iter(layout.blocks()) is not layout.blocks()
            assert "_kept_blocks" not in vars(layout)

    def test_lone_level_blocks_are_views(self):
        s = random_series(4, 3, np.random.default_rng(5))
        lone = [index for levels, index in s._layout.blocks() if len(levels) == 1]
        assert lone
        for index in lone:
            assert np.shares_memory(s.coeffs, s.coeffs[index])

    def test_blocks_over_size_cap_not_retained(self):
        n, d = 17, 1
        assert node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS
        s = FaberSeries(n, d, np.random.default_rng(3).standard_normal(node_count(n, d)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            integrate(s)
            series_profile(s, 2.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the gather indices alone hold 8 B per coefficient, 2.1 MB here
        assert retained < 4096

    def test_integrate_over_size_cap_peaks_below_a_byte_per_coefficient(self):
        n, d = 17, 1
        s = FaberSeries(n, d, np.random.default_rng(3).standard_normal(node_count(n, d)))
        integrate(s)  # warm; (17, 1)'s plan is over the memo's size cap
        tracemalloc.start()
        try:
            integrate(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every level of (17, 1) is alone in its block and read as a view
        assert peak < node_count(n, d)

    def test_reductions_over_size_cap_build_no_layout(self, monkeypatch):
        # a series reduces by its own layout's blocks: above the memo's size
        # cap, where each call used to build a plan of its own, none builds one
        n, d = 3, 8
        s = FaberSeries(n, d, np.random.default_rng(4).standard_normal(node_count(n, d)))
        assert node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS
        built, init = [], dyadic._GridPlan.__init__
        monkeypatch.setattr(dyadic._GridPlan, "__init__", lambda *a: built.append(a[1:]) or init(*a))
        integrate(s)
        series_profile(s, 2.0)
        seqnorm.seq_norm(s, seqnorm.NormParams(1.0, 2.0, 2.0))
        assert built == []

    def test_reductions_over_size_cap_stream_their_gathers(self):
        # (3, 8): most levels share a block and are read through a gather
        # index; all of them at once would hold 8 B per coefficient
        n, d = 3, 8
        assert node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS
        s = FaberSeries(n, d, np.random.default_rng(8).standard_normal(node_count(n, d)))
        grouped = sum(len(levels) for levels, index in s._layout.blocks() if len(levels) > 1)
        assert grouped > len(s._layout.keys) // 2
        for reduce in (integrate, lambda series: seqnorm._level_lps(series, 2.0)):
            reduce(s)  # warm
            tracemalloc.start()
            try:
                reduce(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * s.size

    def test_memo_retention_within_stated_bound(self):
        # more plans than the memo keeps, the largest m·d under its size cap
        plans = [(11, 2), (2, 6), (5, 4), (15, 1), (7, 3), (3, 5), (10, 2), (14, 1), (4, 4)]
        assert len(plans) > dyadic._PLAN_MEMO_SIZE
        assert all(node_count(n, d) * d <= dyadic._PLAN_MEMO_POINTS for n, d in plans)
        dyadic._PLANS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blocks = [len(_grid_plan(n, d).layout.blocks()) for n, d in plans]
            retained = tracemalloc.get_traced_memory()[0] - before
            kept = len(dyadic._PLANS)
        finally:
            tracemalloc.stop()
            dyadic._PLANS.clear()
        assert kept == dyadic._PLAN_MEMO_SIZE
        # the last plans stay: 8 B of index per coefficient and of level
        # index per level, at most 1 KiB of array objects per block, and
        # each plan's layout, 8·(2d + 3) B per level and 4 KiB of objects
        stated = sum(
            8 * (node_count(n, d) + (2 * d + 4) * len(_grid_plan(n, d).layout.keys)) + 1024 * count + 4096
            for (n, d), count in list(zip(plans, blocks))[-kept:]
        )
        layouts = dyadic._PLAN_MEMO_SIZE * (82 << 10)
        assert retained <= stated
        assert retained <= dyadic._PLAN_MEMO_SIZE * 8 * dyadic._PLAN_MEMO_POINTS + layouts
        assert retained <= (5 << 20) + layouts


class TestEvaluate:
    def test_interpolation_at_nodes(self):
        for d, n in [(1, 6), (2, 5)]:
            f = FunctionHandle(
                lambda X: np.exp(np.sum(X, axis=1)) + np.prod(X, axis=1), d
            )
            s = analyze(f, n)
            X = node_set(n, d)
            err = np.max(np.abs(evaluate_batch(s, X) - f.eval_batch(X)))
            assert err <= 1e-10

    def test_corner_value_is_corner_coefficient(self):
        s = random_series(3, 2, RNG)
        corner = s.get((-1, -1), (0, 0))
        assert evaluate_batch(s, [(0.0, 0.0)])[0] == pytest.approx(corner, abs=1e-14)

    def test_matches_naive_summation(self):
        for d in (1, 2):
            s = random_series(3, d, RNG)
            for _ in range(50):
                x = tuple(RNG.uniform(0, 1, d))
                assert evaluate_batch(s, [x])[0] == pytest.approx(naive_eval(s, x), abs=1e-12)

    def test_cell_boundary_continuity(self):
        s = random_series(4, 1, RNG)
        for t in (0.25, 0.5, 0.625):
            left = naive_eval(s, (t,))
            assert evaluate_batch(s, [(t,)])[0] == pytest.approx(left, abs=1e-12)

    def test_outside_cube_rejected(self):
        s = random_series(1, 2, RNG)
        with pytest.raises(ValueError):
            evaluate_batch(s, [(0.5, 1.5)])

    def test_points_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match=re.escape("expected (N, 2) points, got shape (3, 3)")):
            evaluate_batch(random_series(1, 2, RNG), np.zeros((3, 3)))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_points_rejected(self, dtype):
        # a cast to float64 dropped the imaginary part, with a ComplexWarning only
        s = random_series(1, 1, RNG)
        for points in (np.array([[0.5 + 1j]], dtype=dtype), np.array([[0.5]], dtype=dtype)):
            with pytest.raises(ValueError, match=f"points must be real, got dtype {np.dtype(dtype)}"):
                evaluate_batch(s, points)

    def test_object_points_holding_a_complex_rejected(self):
        # float() of the complex raised a TypeError
        s = random_series(1, 1, RNG)
        for value in (0.5 + 1j, 0.5 + 0j, np.complex64(0.5)):
            with pytest.raises(ValueError, match="points must be real, got dtype object"):
                evaluate_batch(s, np.array([[value]], dtype=object))
        assert evaluate_batch(s, np.array([[0.5]], dtype=object)) == evaluate_batch(s, [[0.5]])

    def test_nan_point_rejected_by_name(self):
        s = random_series(1, 2, RNG)
        X = np.array([[0.5, 0.5], [0.25, np.nan]])
        with pytest.raises(ValueError, match=r"\(0\.25, nan\)"):
            evaluate_batch(s, X)

    def test_closed_cube_accepted(self):
        s = random_series(2, 2, RNG)
        X = np.array([[-0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.0, -0.0]])
        assert evaluate_batch(s, X).tobytes() == per_level_eval(s, X).tobytes()

    def test_first_of_several_outside_rows_reported(self):
        s = random_series(1, 3, RNG)
        X = np.full((50, 3), 0.25)
        X[7, 2] = np.nextafter(1.0, 2.0)
        X[9, 0] = -1e-300
        X[30, 1] = np.nan
        with pytest.raises(ValueError, match=r"point \(0\.25, 0\.25, 1\.0000000000000002\) outside"):
            evaluate_batch(s, X)
        with pytest.raises(ValueError, match=r"point \(-1e-300, 0\.25, 0\.25\) outside"):
            evaluate_batch(s, X[8:])
        with pytest.raises(ValueError, match=r"point \(0\.25, nan, 0\.25\) outside"):
            evaluate_batch(s, X[10:])  # NaN fails the whole-array min/max test too

    def test_multilinear_reproduction(self):
        f = FunctionHandle(
            lambda X: 1.0 + 2 * X[:, 0] - 3 * X[:, 1] + 5 * X[:, 0] * X[:, 1], 2
        )
        s = analyze(f, 0)
        grid = np.linspace(0, 1, 9)
        X = np.array([(a, b) for a in grid for b in grid])
        assert np.max(np.abs(evaluate_batch(s, X) - f.eval_batch(X))) <= 1e-12

    def test_span_reproduction_at_random_points(self):
        # anything in the span of the kept levels comes back exactly
        n, d = 4, 2
        c = random_series(n, d, RNG)
        f = synthesize(c)
        recovered = analyze(f, n)
        X = RNG.uniform(0, 1, (1000, d))
        err = np.max(np.abs(evaluate_batch(recovered, X) - f.eval_batch(X)))
        assert err <= 1e-12


class TestSynthesize:
    def test_single_tent(self):
        h = synthesize(unit_tent())
        assert h((0.5,)) == 1.0
        assert h((0.25,)) == 0.5

    def test_reproduces_multilinear_generator(self):
        g = FunctionHandle(lambda X: X[:, 0] * X[:, 1] + 0.5 * X[:, 0], 2)
        h = synthesize(analyze(g, 2))
        grid = np.linspace(0, 1, 33)
        X = np.array([(a, b) for a in grid for b in grid[:5]])
        assert np.max(np.abs(h.eval_batch(X) - g.eval_batch(X))) <= 1e-12

    def test_ships_exact_integral(self):
        s = random_series(3, 1, RNG)
        assert synthesize(s).exact_integral == pytest.approx(integrate(s), abs=0)


class TestIntegrate:
    def test_unit_tent_area(self):
        assert integrate(unit_tent()) == 0.5

    def test_constant_one_d2(self):
        f = FunctionHandle(lambda X: np.ones(len(X)), 2)
        assert integrate(analyze(f, 2)) == pytest.approx(1.0, abs=1e-15)

    def test_parabola_error_envelope(self):
        f = FunctionHandle(lambda X: X[:, 0] ** 2, 1)
        s = analyze(f, 6)
        assert abs(integrate(s) - 1 / 3) <= 4.0**-7

    def test_level_sum_over_binary64_is_summed_after_weighting(self):
        # the boundary level's plain sum 3.4e308 overflows; its weighted sum,
        # the function's constant value and integral, does not
        s = FaberSeries(0, 1, [1.7e308, 1.7e308, 0.0])
        assert integrate(s) == 1.7e308
        assert synthesize(s).exact_integral == 1.7e308
        # numpy's pairwise sum of level (3,) meets inf + -inf; weighted, it is 0
        c = np.zeros(17)
        c[9:13] = [1.7e308, 1.7e308, -1.7e308, -1.7e308]
        assert integrate(FaberSeries(3, 1, c)) == 0.0
        # an integral beyond binary64 is refused, not returned as inf
        huge = FaberSeries(0, 1, [1.7e308, 1.7e308, 1.7e308])
        for call in (integrate, synthesize):
            with pytest.raises(ValueError, match="integral leaves binary64"):
                call(huge)

    def test_finite_integral_whose_partial_sum_overflows(self):
        # level integrals 1.79e308, 0.895e308, -0.895e308: fsum's partial sum
        # overflows, the exact total does not
        s = FaberSeries(1, 1, [1.79e308, 1.79e308, 1.79e308, -1.79e308, -1.79e308])
        assert integrate(s) == 1.79e308
        assert synthesize(s).exact_integral == 1.79e308
        # level integrals 1.79e308 and 0.895e308: the exact total leaves binary64
        with pytest.raises(ValueError, match="integral leaves binary64"):
            integrate(FaberSeries(1, 1, [1.79e308, 1.79e308, 1.79e308, 0.0, 0.0]))

    def test_agrees_with_quadrature_of_interpolant(self):
        s = random_series(4, 1, RNG)
        oracle = gauss_integral(
            lambda xs: evaluate_batch(s, xs.reshape(-1, 1)), level=5
        )
        assert integrate(s) == pytest.approx(oracle, abs=1e-12)


class TestFaberSeries:
    def test_requires_complete_level_set(self):
        # budget 2 in d=1 has 9 coefficients; the 4 of level (2,) are missing
        with pytest.raises(ValueError, match="expects 9 coefficients"):
            FaberSeries(2, 1, np.zeros(5))

    def test_rejects_wrong_array_size(self):
        with pytest.raises(ValueError, match="expects 5 coefficients"):
            FaberSeries(1, 1, np.zeros(6))
        with pytest.raises(ValueError, match="expects 5 coefficients"):
            FaberSeries(1, 1, np.zeros((5, 1)))

    def test_rejects_non_finite(self):
        # series order: (-1,) x 2, (0,) x 1, (1,) x 2
        with pytest.raises(ValueError, match=r"level \(1,\)"):
            FaberSeries(1, 1, [0.0, 0.0, 0.0, np.nan, 0.0])

    def test_zeros_over_node_cap_fails_before_allocating(self):
        with pytest.raises(ValueError, match="cap"):
            FaberSeries.zeros(40, 1)

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_keep_the_series(self, copier):
        for s in (FaberSeries.zeros(1, 1), random_series(3, 2, RNG)):
            t = copier(s)
            assert type(t) is FaberSeries and (t.budget, t.dim) == (s.budget, s.dim)
            assert t.coeffs.dtype == np.float64 and t.coeffs.tobytes() == s.coeffs.tobytes()
            assert not t.coeffs.flags.writeable
            with pytest.raises(ValueError):
                t.coeffs[0] = 1.0
            with pytest.raises(AttributeError, match="immutable"):
                t.budget = s.budget + 1
            assert [j.entries for j in t.levels()] == [j.entries for j in s.levels()]

    def test_coefficients_copied_and_read_only(self):
        coeffs = np.zeros(5)
        s = FaberSeries(1, 1, coeffs)
        coeffs[0] = 1.0
        assert s.coeffs[0] == 0.0
        with pytest.raises(ValueError):
            s.coeffs[0] = 1.0

    def test_levels_are_views_in_node_set_order(self):
        s = random_series(3, 2, RNG)
        assert np.array_equal(np.concatenate([a for _, a in s.items()]), s.coeffs)
        assert all(np.shares_memory(a, s.coeffs) for _, a in s.items())

    def test_arrays_read_only(self):
        s = random_series(2, 1, RNG)
        with pytest.raises(ValueError):
            s.array((0,))[0] = 1.0

    @pytest.mark.parametrize(
        "read,message",
        [
            (lambda s: s.get((2,), (1.5,)), "translation must be an integer, got 1.5"),
            (lambda s: s.get((2,), ("1",)), "translation must be an integer, got '1'"),
            (lambda s: s.array((2.5,)), "level entry must be an integer, got 2.5"),
            (lambda s: s.get((2.0,), (1,)), "level entry must be an integer, got 2.0"),
            (lambda s: FaberSeries(2.0, 1, np.zeros(9)), "budget must be an integer, got 2.0"),
            (lambda s: FaberSeries.zeros(3, 1.0), "dimension must be an integer, got 1.0"),
        ],
        ids=["translation", "string-translation", "level", "integral-float-level", "budget", "dim"],
    )
    def test_refuses_a_non_integer_level_translation_or_shape(self, read, message):
        # int() truncated them: get((2,), (1.5,)) read translation 1
        s = FaberSeries.zeros(3, 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            read(s)
        assert s.get((np.int64(2),), (np.int32(1),)) == 0.0

    def test_max_abs_diff_refuses_another_shape(self):
        with pytest.raises(ValueError, match="series shapes differ"):
            FaberSeries.zeros(1, 1).max_abs_diff(FaberSeries.zeros(2, 1))

    def test_get_indexes_lexicographically(self):
        s = random_series(2, 2, RNG)
        j = LevelVector((1, 1))
        arr = s.array(j)
        for flat, k in enumerate(translations(j)):
            assert s.get(j, k) == arr[flat]

    @settings(max_examples=25, deadline=None, database=None)
    @given(d=st.integers(1, 3), n=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_array_and_get_read_every_level_block(self, d, n, seed):
        # blocks in the order of the brute-force level set, each level's
        # translations in lexicographic order
        s = random_series(n, d, np.random.default_rng(seed))
        start = 0
        for entries in sorted(brute_force_levels(n, d)):
            j = LevelVector(entries)
            block = s.coeffs[start : start + j.translation_count()]
            for level in (j, entries, list(entries)):
                arr = s.array(level)
                assert arr.tobytes() == block.tobytes() and np.shares_memory(arr, s.coeffs)
            assert [s.get(entries, k) for k in translations(j)] == block.tolist()
            start += block.size
        assert start == s.size

    @pytest.mark.parametrize("j", [(0,), (0, 0, 0), (4, -1), (2, 2), (-1, 4), (3, 1)])
    def test_array_and_get_refuse_a_level_not_stored(self, j):
        # a wrong dim, or an order above the budget
        s = random_series(3, 2, RNG)
        message = re.escape(f"level {j} not stored (budget 3)")
        with pytest.raises(ValueError, match=message):
            s.array(j)
        with pytest.raises(ValueError, match=message):
            s.get(j, (0,) * len(j))


class TestSerialization:
    def test_text_round_trip(self):
        s = random_series(3, 2, RNG)
        assert s.max_abs_diff(series_from_text(series_to_text(s))) == 0.0

    def test_json_round_trip(self):
        s = random_series(2, 3, RNG)
        assert s.max_abs_diff(series_from_json(series_to_json(s))) == 0.0

    def test_text_header(self):
        s = random_series(1, 2, RNG)
        assert series_to_text(s).splitlines()[0] == "dim 2 budget 1"

    def test_deterministic_output(self):
        s = random_series(2, 2, RNG)
        assert series_to_text(s) == series_to_text(s)
        assert series_to_json(s) == series_to_json(s)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_every_coefficient_exactly_once(self, fmt):
        s = random_series(2, 2, RNG)
        if fmt == "text":
            head, *lines = series_to_text(s).splitlines()
            read = lambda rows: series_from_text("\n".join([head] + rows))
        else:
            doc = json.loads(series_to_json(s))
            lines = doc["entries"]
            read = lambda rows: series_from_json(json.dumps({**doc, "entries": rows}))
        assert read(lines).max_abs_diff(s) == 0.0
        with pytest.raises(ValueError, match="duplicate"):
            read(lines + [lines[3]])
        with pytest.raises(ValueError, match="misses"):
            read(lines[:3] + lines[4:])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "defects,message",
        [
            # (position, j, k) of extra lines; the earliest one is reported
            ([(2, (3, 0), (0, 0)), (5, (-1, -1), (0, 0))], r"level \(3, 0\) outside budget 2"),
            ([(1, (1, 0), (2, 0)), (4, (3, 0), (0, 0))], r"translation \(2, 0\) out of range"),
            ([(3, (-1, -1), (0, 0)), (6, (1, 0), (2, 0))], r"duplicate .* \(-1, -1\)"),
            ([(0, (10**30, 0), (0, 0))], r"level \(10{30}, 0\) outside"),
            ([(0, (0, 0), (-(10**30), 0))], r"translation \(-10{30}, 0\) out of range"),
        ],
        ids=["level", "translation", "duplicate", "huge-level", "huge-translation"],
    )
    def test_earliest_failing_line_reported(self, fmt, defects, message):
        s = random_series(2, 2, RNG)
        if fmt == "text":
            head, *lines = series_to_text(s).splitlines()
            for at, j, k in defects:
                lines.insert(at, " ".join(str(v) for v in j + k) + " 0.5")
            text = "\n".join([head] + lines)
            read = series_from_text
        else:
            doc = json.loads(series_to_json(s))
            for at, j, k in defects:
                doc["entries"].insert(at, {"j": list(j), "k": list(k), "value": 0.5})
            text = json.dumps(doc)
            read = series_from_json
        with pytest.raises(ValueError, match=message):
            read(text)

    def test_json_entry_checks_follow_line_order(self):
        doc = json.loads(series_to_json(random_series(1, 2, RNG)))
        entries = doc["entries"]
        bad_level = {"j": [2, 0], "k": [0, 0], "value": 0.5}
        with pytest.raises(ValueError, match="wrong dimension"):
            series_from_json(json.dumps({**doc, "entries": [{**entries[0], "k": [0]}]}))
        with pytest.raises(ValueError, match="outside budget"):
            series_from_json(json.dumps({**doc, "entries": [bad_level, {"j": [0, 0]}]}))
        with pytest.raises(KeyError):
            series_from_json(json.dumps({**doc, "entries": [{"j": [0, 0]}, bad_level]}))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            series_from_text("budget 1 dim 2\n")
        with pytest.raises(ValueError, match="empty series text"):
            series_from_text("\n\n")

    @pytest.mark.parametrize(
        "read,text",
        [
            (series_from_text, "dim 1 budget 40\n"),
            (series_from_json, '{"dim": 1, "budget": 40, "entries": []}'),
        ],
    )
    def test_header_over_node_cap_fails_before_allocating(self, read, text):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_json_mirrors_fields(self):
        s = random_series(1, 1, RNG)
        doc = json.loads(series_to_json(s))
        assert doc["dim"] == 1 and doc["budget"] == 1
        assert {"j", "k", "value"} == set(doc["entries"][0])


class TestFunctionHandle:
    def test_dim_below_one_refused(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            FunctionHandle(lambda X: X[:, 0], 0)

    def test_complex_points_and_values_refused(self):
        # a cast to float64 dropped the imaginary part, with a ComplexWarning only
        f = FunctionHandle(lambda X: X[:, 0], 1)
        for call in (lambda: f.eval_batch([[0.5 + 1j]]), lambda: f((0.5j,))):
            with pytest.raises(ValueError, match="points must be real, got dtype complex128"):
                call()
        assert f.eval_count == 0
        g = FunctionHandle(lambda X: X[:, 0] + 0j, 1, label="c")
        for call in (lambda: g.eval_batch([[0.5]]), lambda: g(0.5), lambda: analyze(g, 1)):
            with pytest.raises(ValueError, match="evaluator of 'c' returned complex values"):
                call()

    def test_object_arrays_holding_a_complex_refused(self):
        # float() of the complex raised a TypeError
        f = FunctionHandle(lambda X: X[:, 0], 1)
        with pytest.raises(ValueError, match="points must be real, got dtype object"):
            f.eval_batch(np.array([[0.5 + 1j]], dtype=object))
        assert f.eval_count == 0
        g = FunctionHandle(lambda X: np.array([1 + 1j], dtype=object), 1, label="c")
        for call in (lambda: g.eval_batch([[0.5]]), lambda: g(0.5)):
            with pytest.raises(ValueError, match="evaluator of 'c' returned complex values"):
                call()

    def test_dim_must_be_an_integer(self):
        assert FunctionHandle(lambda X: X[:, 0], np.int64(2)).dim == 2
        for dim in (1.5, 2.0, "2", None, True):
            with pytest.raises(ValueError, match=f"dimension must be an integer, got {re.escape(repr(dim))}"):
                FunctionHandle(lambda X: X[:, 0], dim)

    def test_counter_monotone(self):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        f((0.5,))
        one = f.eval_count
        f.eval_batch([[0.1], [0.2]])
        assert f.eval_count == one + 2

    def test_deterministic_reevaluation(self):
        f = FunctionHandle(lambda X: np.sin(X[:, 0]) * 1e-3, 1)
        assert f((0.3,)) == f((0.3,))

    def test_from_scalar(self):
        f = from_scalar(lambda x, y: x * y, 2)
        assert f((0.5, 0.25)) == 0.125

    def test_shape_validation(self):
        f = FunctionHandle(lambda X: X[:, 0], 2)
        with pytest.raises(ValueError):
            f.eval_batch(np.zeros((3, 1)))
        g = FunctionHandle(lambda X: X, 2, label="g")
        with pytest.raises(ValueError, match=re.escape("evaluator of 'g' returned shape (1, 2)")):
            g.eval_batch([[0.5, 0.5]])

    def test_call_takes_one_point(self):
        f = FunctionHandle(lambda X: X[:, 0] * X[:, 1], 2)
        assert f([0.5, 0.25]) == f([[0.5, 0.25]]) == 0.125
        assert f.eval_count == 2
        for x in ([[0.5, 0.5], [1.0, 1.0]], [0.5], [0.5, 0.5, 0.5], [[[0.5, 0.5]]], 0.5):
            with pytest.raises(ValueError, match="one point of 2 coordinates"):
                f(x)
        assert f.eval_count == 2
        g = FunctionHandle(lambda X: X[:, 0], 1)
        assert g(0.5) == g([0.5]) == g([[0.5]]) == 0.5
        with pytest.raises(ValueError, match="one point"):
            g([0.5, 0.25])


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 5),
    a=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_analyze_matches_coeff_and_round_trips(d, n, a, seed):
    # elementwise only, so a point's value does not depend on its batch
    f = FunctionHandle(
        lambda X: np.exp(sum(w * X[:, i] for i, w in enumerate(a[:d])))
        * np.cos(X[:, 0] - X[:, -1] ** 2),
        d,
    )
    s = analyze(f, n)
    for j in s.levels():
        for flat, k in enumerate(translations(j)):
            assert coeff(f, j, k) == s.array(j)[flat]
    c = random_series(n, d, np.random.default_rng(seed))
    assert analyze(synthesize(c), n).max_abs_diff(c) <= 1e-12


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 5),
    a=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)
def test_property_interpolation_at_nodes(d, n, a):
    f = FunctionHandle(
        lambda X: np.sin(sum(w * X[:, i] for i, w in enumerate(a[:d])) + 0.3)
        + np.prod(X, axis=1),
        d,
    )
    s = analyze(f, n)
    assert f.eval_count == node_count(n, d)
    X = node_set(n, d)
    assert np.max(np.abs(evaluate_batch(s, X) - f.eval_batch(X))) <= 1e-10


@settings(max_examples=25, deadline=None, database=None)
@given(d=st.integers(1, 3), n=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_property_serialization_round_trip(d, n, seed):
    rng = np.random.default_rng(seed)
    s = random_series(n, d, rng)
    s = FaberSeries(n, d, 10.0 ** rng.integers(-300, 300) * s.coeffs)
    assert series_from_text(series_to_text(s)).max_abs_diff(s) == 0.0
    assert series_from_json(series_to_json(s)).max_abs_diff(s) == 0.0


@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 5),
    axis=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_continuity_at_cell_interfaces(d, n, axis, seed):
    rng = np.random.default_rng(seed)
    s = random_series(n, d, rng)
    axis %= d
    X = rng.uniform(0.0, 1.0, (1 << (n + 1), d))
    X[:, axis] = np.ldexp(np.arange(1, (1 << (n + 1)) + 1), -(n + 1))
    below = X.copy()
    below[:, axis] = np.nextafter(X[:, axis], 0.0)
    # At a point, a level has at most 2**(#boundary axes) non-zero basis
    # functions, each of slope <= 2**(e + 1) along a hat axis of level e
    # and <= 1 along a boundary axis.
    lipschitz = scale = 0.0
    for j, arr in s.items():
        e = j.entries[axis]
        weight = 2.0 ** sum(v < 0 for v in j.entries) * np.max(np.abs(arr))
        lipschitz += weight * (2.0 ** (e + 1) if e >= 0 else 1.0)
        scale += weight
    gap = np.abs(evaluate_batch(s, X) - evaluate_batch(s, below))
    step = X[:, axis] - below[:, axis]
    assert np.all(gap <= lipschitz * step + 1e-13 * scale)


@settings(max_examples=30, deadline=None, database=None)
@given(
    d=st.integers(1, 5),
    n=st.integers(0, 5),
    dead=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_evaluate_batch_is_bit_identical_to_per_level_loop(d, n, dead, seed):
    rng = np.random.default_rng(seed)
    blocks = [
        rng.uniform(-1.0, 1.0, j.translation_count()) * (rng.random() >= dead)
        for j in levels_up_to(n, d)
    ]
    s = FaberSeries(n, d, np.concatenate(blocks))
    # a full chunk and a partial one, with corners and cell interfaces k 2**-(n+1)
    X = rng.random((faber._ROWS + 3, d))
    X[:2] = 0.0
    X[-2:] = 1.0
    interfaces = rng.random(X.shape) < 0.25
    X[interfaces] = np.ldexp(rng.integers(0, (1 << (n + 1)) + 1, interfaces.sum()), -(n + 1))
    assert evaluate_batch(s, X).tobytes() == per_level_eval(s, X).tobytes()
    empty = evaluate_batch(s, np.empty((0, d)))
    assert empty.shape == (0,) and empty.dtype == np.float64


@settings(max_examples=30, deadline=None, database=None)
@given(
    d=st.integers(1, 5),
    budgets=st.lists(st.integers(0, 5), min_size=1, max_size=3),
    dead=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_evaluate_many_is_bit_identical_to_per_level_loop(d, budgets, dead, seed):
    # series of different budgets with dead and boundary levels, walked together
    rng = np.random.default_rng(seed)
    many = tuple(
        FaberSeries(
            n,
            d,
            np.concatenate(
                [
                    rng.uniform(-1.0, 1.0, j.translation_count()) * (rng.random() >= dead)
                    for j in levels_up_to(n, d)
                ]
            ),
        )
        for n in budgets
    )
    n = max(budgets)
    X = rng.random((faber._ROWS + 3, d))
    X[:2] = 0.0
    X[-2:] = 1.0
    interfaces = rng.random(X.shape) < 0.25
    X[interfaces] = np.ldexp(rng.integers(0, (1 << (n + 1)) + 1, interfaces.sum()), -(n + 1))
    outs = faber._evaluate_many(faber._walk_plan(many), X)
    assert len(outs) == len(many)
    for s, out in zip(many, outs):
        assert out.tobytes() == per_level_eval(s, X).tobytes()


@pytest.mark.parametrize("d,n", [(1, 0), (3, 4)])
def test_evaluate_many_of_no_points_is_empty(d, n):
    many = (random_series(n, d, np.random.default_rng(2)), random_series(n + 1, d, RNG))
    outs = faber._evaluate_many(faber._walk_plan(many), np.empty((0, d)))
    assert [(out.shape, out.dtype) for out in outs] == [((0,), np.float64)] * 2


def test_walk_plan_reuses_its_own_blocks():
    # the pieces of a measurement walk one plan, which keeps one float and one
    # int block across calls with different points; what the blocks held
    # before leaves no trace in the values, only a call of more rows makes them
    # anew, and a new plan, also of a deeper series, gets blocks of its own
    rng = np.random.default_rng(31)
    many = (random_series(5, 3, rng), random_series(3, 3, rng))
    plan = faber._walk_plan(many)
    X = rng.random((faber._ROWS, 3))
    faber._evaluate_many(plan, X[:100])
    (small_floats, _) = plan.blocks
    faber._evaluate_many(plan, X)
    blocks = list(plan.blocks)
    assert [block.dtype.name for block in blocks] == ["float64", "int64"]
    assert blocks[0] is not small_floats
    for Y in (X[:100], rng.random((2 * faber._ROWS + 3, 3)), X[::-1]):
        outs = faber._evaluate_many(plan, Y)
        assert all(kept is block for kept, block in zip(plan.blocks, blocks))
        for s, out in zip(many, outs):
            assert out.tobytes() == per_level_eval(s, Y).tobytes()
    for series in (many, (random_series(7, 3, rng),)):
        fresh = faber._walk_plan(series)
        outs = faber._evaluate_many(fresh, X[::-1])
        assert not any(kept is block for kept in fresh.blocks for block in blocks)
        for s, out in zip(series, outs):
            assert out.tobytes() == per_level_eval(s, X[::-1]).tobytes()


@pytest.mark.parametrize("d,budgets", [(2, (8, 12)), (4, (3, 4)), (1, (8, 14))])
def test_evaluate_many_peak_beyond_outputs_is_bounded_per_chunk_row(d, budgets):
    # the docstring's bound, max(2d - 3, 0) n + 6d + 2**(d + 1) floats per row
    # of a _ROWS chunk, at two budgets: a deeper series adds two tables per
    # lead axis after the first and one tent on the last axis per entry (none
    # at d = 1, where axis 0 is the last), and nothing per point
    rng = np.random.default_rng(d)
    for n in budgets:
        many = (random_series(n, d, rng), random_series(n - 2, d, rng))
        X = rng.random((2 * faber._ROWS + 3, d))
        faber._evaluate_many(faber._walk_plan(many), X)  # warm: the level layouts
        tracemalloc.start()
        try:
            faber._evaluate_many(faber._walk_plan(many), X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floats = max(2 * d - 3, 0) * n + 6 * d + 2 ** (d + 1)
        assert peak - 8 * len(X) * len(many) <= 8 * floats * faber._ROWS, (n, peak)


def test_evaluate_many_tables_exact_at_tiny_and_extreme_coordinates():
    # tents x * 2.0**e and, on every axis, cells fine >> (n - e) from the
    # cells fine at the largest budget n: exact for x = 0, x = 1, subnormal
    # x and x just below a cell interface, also on a lead axis whose finest
    # live entry is below n, and for an all-zero series
    rng = np.random.default_rng(21)
    n, d = 6, 3
    full = random_series(n, d, rng)
    coarse_lead = FaberSeries(n, d, np.concatenate(
        [a if j.entries[0] <= n - 3 else np.zeros_like(a) for j, a in full.items()]))
    coords = np.array([0.0, 1.0, 5e-324, 2.5e-310, 1e-300, 0.5, np.nextafter(0.5, 0.0),
                       np.nextafter(1.0, 0.0), 0.25 + 2**-60])
    X = rng.choice(coords, (4096, d))
    X[: coords.size, 0] = coords
    zero = FaberSeries.zeros(n, d)
    for many in ((full, random_series(n - 2, d, rng)),
                 (coarse_lead, random_series(n - 2, d, rng), zero), (zero,)):
        for s, out in zip(many, faber._evaluate_many(faber._walk_plan(many), X)):
            assert out.tobytes() == per_level_eval(s, X).tobytes()
    assert not faber._evaluate_many(faber._walk_plan((zero,)), X)[0].any()


def test_lifted_last_axis_index_fits_int64():
    # _evaluate_many reads a cell of the last axis as G >> (n - e) with
    # G = flat * 2**n + cell < 2**(2n + d - 1); G must stay an exact int64
    # for the largest budget n that each dimension can plan
    for d in range(1, 16):
        n = 0
        while True:
            try:
                dyadic.capped_node_count(n + 1, d)
            except ValueError:
                break
            n += 1
        assert 2 * n + d - 1 <= 62, (n, d)
    with pytest.raises(ValueError, match="cap"):
        dyadic.capped_node_count(0, 16)
