"""Basis evaluation, analysis/synthesis round trips, integration, serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberkit.dyadic import (
    MAX_POINTS,
    LevelVector,
    levels_up_to,
    node_count,
    node_set,
    to_floats,
    translations,
)
from faberkit.faber import (
    EvaluationError,
    FaberSeries,
    FunctionHandle,
    analyze,
    coeff,
    evaluate,
    evaluate_batch,
    hat_eval,
    integrate,
    series_from_json,
    series_from_text,
    series_to_json,
    series_to_text,
    synthesize,
    tensor_eval,
)

RNG = np.random.default_rng(20240811)


def random_series(budget, dim, rng):
    coeffs = np.concatenate(
        [rng.uniform(-1.0, 1.0, j.translation_count()) for j in levels_up_to(budget, dim)]
    )
    return FaberSeries(budget, dim, coeffs)


def naive_eval(series, x):
    """Oracle: full summation over every stored coefficient."""
    total = 0.0
    for j, arr in series.items():
        for flat, k in enumerate(translations(j)):
            total += arr[flat] * tensor_eval(j, k, x)
    return total


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
        expected = sf.scaled(2.5).plus(sg.scaled(-1.25))
        assert sc.max_abs_diff(expected) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        with pytest.raises(ValueError):
            analyze(f, 2, d=2)

    @pytest.mark.parametrize("d,n", [(1, 40), (16, 0)])
    def test_budget_over_node_cap_fails_before_sampling(self, d, n):
        f = FunctionHandle(lambda X: X[:, 0], d)
        with pytest.raises(ValueError, match="cap"):
            analyze(f, n)
        assert f.eval_count == 0

    def test_lattice_key_fits_int64_under_node_cap(self):
        # the flat key of analyze has radix 2**(n+1) + 1 per axis
        for d in range(1, 30):
            for n in range(63):
                if node_count(n, d) > MAX_POINTS:
                    break  # node counts grow with n
                assert (2 ** (n + 1) + 1) ** d < 2**63, (n, d)

    def test_coeff_agrees_with_analyze(self):
        f = FunctionHandle(lambda X: np.sin(X[:, 0]) * np.exp(X[:, 1]), 2, label="f")
        s = analyze(f, 3)
        g = FunctionHandle(lambda X: np.sin(X[:, 0]) * np.exp(X[:, 1]), 2, label="f2")
        for j in s.levels():
            for flat, k in enumerate(translations(j)):
                assert coeff(g, j, k) == pytest.approx(
                    s.array(j)[flat], abs=1e-13
                )


class TestEvaluate:
    def test_interpolation_at_nodes(self):
        for d, n in [(1, 6), (2, 5)]:
            f = FunctionHandle(
                lambda X: np.exp(np.sum(X, axis=1)) + np.prod(X, axis=1), d
            )
            s = analyze(f, n)
            X = to_floats(node_set(n, d))
            err = np.max(np.abs(evaluate_batch(s, X) - f.eval_batch(X)))
            assert err <= 1e-10

    def test_corner_value_is_corner_coefficient(self):
        s = random_series(3, 2, RNG)
        corner = s.get((-1, -1), (0, 0))
        assert evaluate(s, (0.0, 0.0)) == pytest.approx(corner, abs=1e-14)

    def test_matches_naive_summation(self):
        for d in (1, 2):
            s = random_series(3, d, RNG)
            for _ in range(50):
                x = tuple(RNG.uniform(0, 1, d))
                assert evaluate(s, x) == pytest.approx(naive_eval(s, x), abs=1e-12)

    def test_cell_boundary_continuity(self):
        s = random_series(4, 1, RNG)
        for t in (0.25, 0.5, 0.625):
            left = naive_eval(s, (t,))
            assert evaluate(s, (t,)) == pytest.approx(left, abs=1e-12)

    def test_outside_cube_rejected(self):
        s = random_series(1, 2, RNG)
        with pytest.raises(ValueError):
            evaluate(s, (0.5, 1.5))

    def test_nan_point_rejected_by_name(self):
        s = random_series(1, 2, RNG)
        X = np.array([[0.5, 0.5], [0.25, np.nan]])
        with pytest.raises(ValueError, match=r"\(0\.25, nan\)"):
            evaluate_batch(s, X)

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

    def test_get_indexes_lexicographically(self):
        s = random_series(2, 2, RNG)
        j = LevelVector((1, 1))
        arr = s.array(j)
        for flat, k in enumerate(translations(j)):
            assert s.get(j, k) == arr[flat]


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

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            series_from_text("budget 1 dim 2\n")

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
        f = FunctionHandle.from_scalar(lambda x, y: x * y, 2)
        assert f((0.5, 0.25)) == 0.125

    def test_shape_validation(self):
        f = FunctionHandle(lambda X: X[:, 0], 2)
        with pytest.raises(ValueError):
            f.eval_batch(np.zeros((3, 1)))


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
    X = to_floats(node_set(n, d))
    assert np.max(np.abs(evaluate_batch(s, X) - f.eval_batch(X))) <= 1e-10


@settings(max_examples=25, deadline=None, database=None)
@given(d=st.integers(1, 3), n=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_property_serialization_round_trip(d, n, seed):
    rng = np.random.default_rng(seed)
    s = random_series(n, d, rng).scaled(10.0 ** rng.integers(-300, 300))
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
