"""Index arithmetic: enumeration, stencils, node sets, exact counts."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberkit import dyadic
from faberkit.dyadic import (
    MAX_LEVEL,
    LevelVector,
    _grid_plan,
    capped_node_count,
    levels_up_to,
    node_count,
    node_set,
)
from oracles import (
    LATTICE_LEVEL,
    brute_force_levels,
    brute_force_nodes,
    coeff_sample_points,
    lattice_nodes,
    node,
    to_floats,
    translations,
)


def rows(points):
    return set(map(tuple, points.tolist()))


def floats(lattice):
    return [tuple(x) for x in to_floats(lattice).tolist()]


class TestLevelVector:
    def test_rejects_entries_below_minus_one(self):
        for entries in ((-2, 0), (-2,)):
            with pytest.raises(ValueError) as info:
                LevelVector(entries)
            assert str(info.value) == "level entry must be >= -1"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LevelVector(())

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError):
            LevelVector((MAX_LEVEL + 1,))

    def test_order_ignores_boundary_entries(self):
        assert LevelVector((-1, 3, 0, 2)).order == 5

    def test_translation_shape(self):
        assert LevelVector((3, -1, 0)).translation_shape() == (8, 2, 1)

    @pytest.mark.parametrize("entry", [2.5, 2.0, np.float64(2.0), "2", True, None])
    def test_rejects_a_non_integer_entry_by_name(self, entry):
        # an entry was truncated by int(): 2.5 and "2" read level 2
        assert LevelVector((np.int64(2), np.int32(0))).entries == (2, 0)
        with pytest.raises(ValueError, match=f"level entry must be an integer, got {re.escape(repr(entry))}"):
            LevelVector((entry, 0))


class TestLevelsUpTo:
    def test_n0_d1(self):
        assert [j.entries for j in levels_up_to(0, 1)] == [(-1,), (0,)]

    def test_n1_d2_has_8_levels(self):
        got = [j.entries for j in levels_up_to(1, 2)]
        assert got == sorted(brute_force_levels(1, 2))
        assert len(got) == 8

    def test_n0_d3(self):
        got = [j.entries for j in levels_up_to(0, 3)]
        assert len(got) == 8
        assert all(set(e) <= {-1, 0} for e in got)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_matches_brute_force(self, n, d):
        got = [j.entries for j in levels_up_to(n, d)]
        assert got == sorted(brute_force_levels(n, d))
        assert len(got) == len(set(got))

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(0, 6), d=st.integers(1, 5))
    def test_table_matches_brute_force(self, n, d):
        expected = sorted(brute_force_levels(n, d))
        layout = _grid_plan(n, d).layout
        assert list(map(tuple, layout.entries.tolist())) == expected
        assert [j.entries for j in levels_up_to(n, d)] == expected
        assert layout.orders.tolist() == [sum(max(e, 0) for e in j) for j in expected]
        shapes = [LevelVector(j).translation_shape() for j in expected]
        assert list(map(tuple, layout.shapes.tolist())) == shapes
        assert np.all(np.diff(layout.keys) > 0)

    @pytest.mark.parametrize("n,d", [(2, 10), (2, 12)])
    def test_table_retains_its_arrays_alone(self, n, d):
        # 8 B per level for each of entries and shapes per axis, starts,
        # keys and orders, and no object per level
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layout = dyadic._GridPlan(n, d).layout  # a fresh build, outside the memo
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 8 * (2 * d + 3) * len(layout.keys) + 4096

    def test_rejects_d0(self):
        with pytest.raises(ValueError):
            levels_up_to(2, 0)

    def test_rejects_budget_above_cap(self):
        with pytest.raises(ValueError):
            levels_up_to(MAX_LEVEL + 1, 1)

    @pytest.mark.parametrize(
        "n,d,message",
        [
            (2.5, 1, "budget must be an integer, got 2.5"),
            (2.0, 1, "budget must be an integer, got 2.0"),
            ("2", 1, "budget must be an integer, got '2'"),
            (2, 1.0, "dimension must be an integer, got 1.0"),
            (2, True, "dimension must be an integer, got True"),
        ],
        ids=["fraction", "integral-float", "string", "float-dim", "bool-dim"],
    )
    def test_plan_functions_refuse_non_integers_on_a_warm_memo(self, n, d, message):
        # the memo keys (2.0, 1) as (2, 1): the check comes before it
        for plan in (node_count, capped_node_count, levels_up_to, node_set):
            plan(2, 1)
            with pytest.raises(ValueError, match=re.escape(message)):
                plan(n, d)

    def test_refused_value_is_shown_by_its_first_40_characters(self):
        value = "9" * 60
        with pytest.raises(ValueError) as info:
            node_count(value, 1)
        assert str(info.value) == f"budget must be an integer, got {value!r:.40}"

    def test_plan_functions_take_numpy_integers(self):
        n, d = np.int64(3), np.int32(2)
        assert node_count(n, d) == capped_node_count(n, d) == node_count(3, 2) == 113
        assert levels_up_to(n, d) == levels_up_to(3, 2)
        assert node_set(n, d).tobytes() == node_set(3, 2).tobytes()


#: The stated bytes of one memoized layout (dyadic, at _PLAN_MEMO_SIZE).
LAYOUT_BOUND = 82 << 10


class TestPlanMemo:
    """One plan per (n, d), memoized by the rule of _PLAN_MEMO_SIZE, not by a count of its own."""

    def test_largest_layouts_not_retained(self):
        # the largest plannable budget of four dimensions; a memo capped by
        # count alone would keep all four, about 63 MB
        large = [(2, 12), (1, 13), (6, 8), (3, 10)]
        assert all(node_count(n, d) * d > dyadic._PLAN_MEMO_POINTS for n, d in large)
        dyadic._PLANS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, d in large:
                _grid_plan(n, d)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(dyadic._PLANS) == 0
        assert retained <= dyadic._PLAN_MEMO_SIZE * LAYOUT_BOUND

    def test_small_plan_is_one_object_large_is_not_kept(self):
        assert _grid_plan(3, 2) is _grid_plan(3, 2)
        for n, d in ((17, 1), (2, 12)):
            kept = len(dyadic._PLANS)
            assert _grid_plan(n, d) is not _grid_plan(n, d)
            assert len(dyadic._PLANS) == kept

    def test_hit_counts_no_node(self, monkeypatch):
        def use(plan):
            plan.hierarchy
            list(plan.layout.blocks())

        use(_grid_plan(3, 2))
        counted = []
        monkeypatch.setattr(dyadic, "node_count", lambda n, d: counted.append((n, d)))
        use(_grid_plan(3, 2))
        assert counted == []

    def test_memo_keeps_the_most_recently_used(self):
        dyadic._PLANS.clear()
        first = _grid_plan(0, 1)
        for n in range(1, dyadic._PLAN_MEMO_SIZE):
            _grid_plan(n, 1)
        assert _grid_plan(0, 1) is first  # a hit makes it the most recent
        _grid_plan(dyadic._PLAN_MEMO_SIZE, 1)  # evicts (1, 1), the least recent
        assert list(dyadic._PLANS) == [(n, 1) for n in (2, 3, 4, 0, 5)]
        assert _grid_plan(0, 1) is first

    def test_memo_retention_within_stated_bound(self):
        # more layouts than the memo keeps, the largest last
        plans = [(11, 2), (15, 1), (7, 3), (10, 2), (14, 1), (4, 4), (5, 4), (3, 5), (1, 7), (2, 6)]
        assert len(plans) > dyadic._PLAN_MEMO_SIZE
        assert all(node_count(n, d) * d <= dyadic._PLAN_MEMO_POINTS for n, d in plans)
        dyadic._PLANS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sizes = [len(_grid_plan(n, d).layout.keys) for n, d in plans]
            retained = tracemalloc.get_traced_memory()[0] - before
            kept = len(dyadic._PLANS)
        finally:
            tracemalloc.stop()
            dyadic._PLANS.clear()
        assert kept == dyadic._PLAN_MEMO_SIZE
        # the last layouts stay: 8·(2d + 3) B per level, and at most 4 KiB
        # per plan of array and plan objects, memo entries and the small
        # buffers that numpy caches for reuse when an evicted layout is freed
        stated = sum(
            8 * (2 * d + 3) * size + 4096 for (n, d), size in list(zip(plans, sizes))[-kept:]
        )
        assert retained <= stated
        assert retained <= dyadic._PLAN_MEMO_SIZE * LAYOUT_BOUND

    def test_full_plans_retained_within_the_one_stated_bound(self):
        # layouts, sweeps and blocks of more plans than the memo keeps, the
        # largest m·d under its size cap last: 5 · (4 MiB + 1 MiB + 82 KiB)
        plans = [(4, 4), (14, 1), (10, 2), (3, 5), (7, 3), (15, 1), (5, 4), (2, 6), (11, 2)]
        assert len(plans) > dyadic._PLAN_MEMO_SIZE
        dyadic._PLANS.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, d in plans:
                plan = _grid_plan(n, d)
                plan.hierarchy
                plan.layout.blocks()
            del plan
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            dyadic._PLANS.clear()
        assert retained <= dyadic._PLAN_MEMO_SIZE * ((4 << 20) + (1 << 20) + LAYOUT_BOUND)


class TestTranslations:
    def test_level3_has_8(self):
        assert list(translations((3,))) == [(k,) for k in range(8)]

    def test_boundary_level_has_pair(self):
        assert list(translations((-1,))) == [(0,), (1,)]

    def test_mixed_product(self):
        got = list(translations((1, -1)))
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_lexicographic(self):
        got = list(translations((1, 1)))
        assert got == sorted(got)


class TestLattice:
    def test_to_floats(self):
        assert floats([[5 << 60, 1 << 62]]) == [(0.625, 0.5)]

    def test_same_value_same_row_across_levels(self):
        # 1/2 is the node of level 0 and a stencil end of both level-1 hats
        half = node((0,), (0,))
        assert coeff_sample_points((1,), (0,))[2].tolist() == half.tolist()
        assert coeff_sample_points((1,), (1,))[0].tolist() == half.tolist()

    def test_endpoints(self):
        assert node((-1,), (0,)).tolist() == [0]
        assert node((-1,), (1,)).tolist() == [1 << LATTICE_LEVEL]
        assert coeff_sample_points((4,), (15,))[-1].tolist() == [1 << LATTICE_LEVEL]

    def test_integer_order_is_numeric_order(self):
        for n, d in [(4, 1), (2, 2)]:
            lattice = lattice_nodes(n, d)
            order = np.lexsort(lattice.T[::-1])
            got = floats(lattice[order])
            assert got == sorted(got)


class TestNode:
    def test_boundary_translation_one(self):
        assert floats([node((-1,), (1,))]) == [(1.0,)]

    def test_interior(self):
        assert floats([node((3,), (5,))]) == [(11 / 16,)]

    def test_mixed(self):
        assert floats([node((2, -1), (3, 0))]) == [(0.875, 0.0)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            node((2,), (4,))
        with pytest.raises(ValueError):
            node((-1,), (2,))

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 3)])
    def test_is_row_of_node_set_in_series_order(self, d, n):
        assert node_set(n, d).tobytes() == to_floats(lattice_nodes(n, d)).tobytes()


class TestCoeffSamplePoints:
    def test_univariate_level0(self):
        pts = coeff_sample_points((0,), (0,))
        assert floats(pts) == [(0.0,), (0.5,), (1.0,)]

    def test_first_point_is_paper_node(self):
        # x_{j,k} = k 2^-j, the left end of the support
        assert floats(coeff_sample_points((3,), (5,))[:1]) == [(5 / 8,)]

    def test_boundary_times_interior(self):
        pts = coeff_sample_points((-1, 0), (1, 0))
        assert floats(pts) == [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]

    def test_tensor_stencil_3x3(self):
        pts = floats(coeff_sample_points((1, 1), (0, 1)))
        assert len(pts) == 9
        assert {p[0] for p in pts} == {0.0, 0.25, 0.5}
        assert {p[1] for p in pts} == {0.5, 0.75, 1.0}

    def test_all_points_inside_cube(self):
        for j in levels_up_to(3, 2):
            for k in translations(j):
                for p in floats(coeff_sample_points(j, k)):
                    assert all(0.0 <= x <= 1.0 for x in p)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            coeff_sample_points((1,), (2,))


class TestNodeSet:
    def test_n3_d1_is_full_grid(self):
        pts = node_set(3, 1).tolist()
        assert len(pts) == 17
        assert {p[0] for p in pts} == {t / 16 for t in range(17)}

    def test_n0_d1(self):
        assert node_set(0, 1).tolist() == [[0.0], [1.0], [0.5]]

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 2), (1, 6), (2, 5), (3, 3), (4, 3)])
    def test_matches_stencil_union(self, d, n):
        assert rows(node_set(n, d)) == brute_force_nodes(n, d)

    @pytest.mark.parametrize("d,n", [(1, 6), (2, 5), (3, 3)])
    def test_count_matches_set(self, d, n):
        points = node_set(n, d)
        assert points.shape == (node_count(n, d), d) and points.dtype == np.float64
        assert node_count(n, d) == len(rows(points))

    def test_stencils_subset_of_node_set(self):
        n, d = 3, 2
        pts = rows(node_set(n, d))
        for j in levels_up_to(n, d):
            for k in translations(j):
                assert rows(to_floats(coeff_sample_points(j, k))) <= pts

    @pytest.mark.parametrize("d,n", [(1, 40), (30, 0), (10**6, 0)])
    def test_over_node_cap_rejected(self, d, n):
        with pytest.raises(ValueError, match="cap"):
            node_set(n, d)

    @pytest.mark.parametrize("n,d", [(0, 30), (40, 1), (1, 14), (0, 16)])
    def test_levels_over_node_cap_rejected_before_enumerating(self, n, d):
        # (0, 30) has 2**30 levels: enumerating them would exhaust memory
        for enumerate_levels in (levels_up_to, _grid_plan, dyadic._GridPlan):
            with pytest.raises(ValueError, match="cap"):
                enumerate_levels(n, d)

    @pytest.mark.parametrize("count", [levels_up_to, node_count, capped_node_count])
    @pytest.mark.parametrize(
        "n,d,message",
        [
            (MAX_LEVEL + 1, 1, f"budget exceeds MAX_LEVEL={MAX_LEVEL}"),
            (-1, 2, "budget must be >= 0"),
            (2, 0, "dimension must be >= 1"),
        ],
    )
    def test_budget_checks_shared(self, count, n, d, message):
        with pytest.raises(ValueError, match=message):
            count(n, d)

    def test_d1_exact_formula(self):
        for n in range(13):
            assert node_count(n, 1) == 2 ** (n + 1) + 1

    def test_strictly_increasing_in_n(self):
        for d in (1, 2, 3):
            counts = [node_count(n, d) for n in range(9)]
            assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_n10_d2_regression(self):
        m = node_count(10, 2)
        assert m == 28673
        assert 0.5 <= m / (2**10 * 10) <= 8.0


class TestCheckReal:
    """The one bounded-real rule: its type refusal, bounds and conversions."""

    @pytest.mark.parametrize(
        "value,kwargs,message",
        [
            (True, {}, "x must be a real number, got True"),
            ("2", {}, "x must be a real number, got '2'"),
            (2j, {}, "x must be a real number, got 2j"),
            (None, {}, "x must be a real number, got None"),
            (np.array(2.0), {}, "x must be a real number, got array(2.)"),
            ("y" * 60, {}, "x must be a real number, got '" + "y" * 39),
            (float("nan"), {}, "x must be finite"),
            (float("inf"), {}, "x must be finite"),
            (float("nan"), {"low": 1}, "x must be >= 1"),
            (float("nan"), {"low": 1, "inf": True}, "x must be >= 1"),
            (-float("inf"), {"low": 1, "inf": True}, "x must be >= 1"),
            (0.5, {"low": 1}, "x must be >= 1"),
            (0.0, {"low": 0, "strict": True}, "x must be > 0"),
            (-(10**400), {"low": 0, "strict": True, "inf": True}, "x must be > 0"),
            (10**400, {}, "x must be finite"),
        ],
    )
    def test_refusals_name_the_argument(self, value, kwargs, message):
        with pytest.raises(ValueError) as info:
            dyadic._check_real("x", value, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value,kwargs,expected",
        [
            (2, {}, 2.0),
            (np.int64(-3), {}, -3.0),
            (np.float32(0.5), {}, 0.5),
            (np.float64(1.5), {"low": 1}, 1.5),
            (1, {"low": 1}, 1.0),
            (5e-324, {"low": 0, "strict": True}, 5e-324),
            (float("inf"), {"low": 1, "inf": True}, float("inf")),
            (10**400, {"low": 1, "inf": True}, float("inf")),
        ],
    )
    def test_reals_come_back_as_python_floats(self, value, kwargs, expected):
        got = dyadic._check_real("x", value, **kwargs)
        assert type(got) is float and got == expected
