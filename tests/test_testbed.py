"""Catalog functions: prescribed series, kinks, hats, smooth references."""

import math

import numpy as np
import pytest
import sympy

from faberkit.dyadic import translations
from faberkit.faber import analyze, evaluate_batch, integrate
from faberkit.measure import CompositeGauss, MeasureSpec, block_lq_exact, lq_norm
from faberkit.seqnorm import decay_profile, level_lp, seq_norm, series_profile, NormParams
from faberkit.testbed import (
    SMOOTH_IDS,
    _hash_key,
    default_kink_anchor,
    extremal,
    hat_family,
    kink,
    smooth,
    spike,
)

RNG = np.random.default_rng(99)


class TestExtremal:
    def test_interior_levels_normalized(self):
        for p in (1.0, 2.0, 3.5):
            _, series = extremal(p, 5, seed=3, d=1)
            for j in series.levels():
                if all(e >= 0 for e in j.entries):
                    assert level_lp(series, j, p) == pytest.approx(1.0, rel=1e-12)
                else:
                    assert level_lp(series, j, p) == 0.0

    def test_sup_norm_is_one(self):
        _, series = extremal(2.0, 6, seed=1, d=1)
        assert seq_norm(series, NormParams(r=0.5, p=2.0, q=math.inf)) == pytest.approx(1.0)

    def test_round_trip(self):
        for d in (1, 2):
            handle, series = extremal(2.0, 4, seed=5, d=d)
            back = analyze(handle, 4)
            assert series.max_abs_diff(back) <= 1e-12

    def test_tail_blocks_have_expected_l2(self):
        _, series = extremal(2.0, 8, seed=2, d=1)
        for j in series.levels():
            if j.entries[0] >= 0:
                block = block_lq_exact(j, series.array(j), 2.0)
                assert block == pytest.approx(
                    math.sqrt(2.0 ** -j.order / 3.0), rel=1e-12
                )

    def test_seed_reproducible_and_distinct(self):
        _, a = extremal(2.0, 4, seed=7, d=2)
        _, b = extremal(2.0, 4, seed=7, d=2)
        _, c = extremal(2.0, 4, seed=8, d=2)
        assert a.max_abs_diff(b) == 0.0
        assert a.max_abs_diff(c) > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_signs_match_the_scalar_hash(self, d):
        # the vectorized pass hashes (seed, 0, *j, *k) exactly as the int path
        _, series = extremal(1.0, 4, seed=5, d=d)
        for j, arr in series.items():
            if all(e >= 0 for e in j.entries):
                for flat, k in enumerate(translations(j)):
                    bit = _hash_key(5, 0, *j.entries, *k) & 1
                    assert arr[flat] == (1.0 if bit else -1.0) * 2.0 ** -j.order
            else:  # +0.0, so the text form prints 0.0, never -0.0
                assert not arr.any() and not np.signbit(arr).any()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            extremal(0.5, 4, 0, 1)
        with pytest.raises(ValueError):
            extremal(1.0, 0, 0, 1)

    @pytest.mark.parametrize("depth,d", [(40, 1), (2, 20)])
    def test_depth_over_node_cap_fails_fast(self, depth, d):
        # the series would hold node_count(depth, d) > MAX_POINTS coefficients
        with pytest.raises(ValueError, match="cap"):
            extremal(2.0, depth, 0, d)
        with pytest.raises(ValueError, match="cap"):
            spike(depth, 0, d)


class TestSpike:
    def test_every_p_normalized(self):
        _, series = spike(6, seed=4, d=1)
        for j in series.levels():
            if all(e >= 0 for e in j.entries):
                for p in (1.0, 2.0, 5.0):
                    assert level_lp(series, j, p) == 1.0

    def test_profile_flat_at_one(self):
        handle, _ = spike(5, seed=11, d=1)
        prof = decay_profile(handle, 1.0, 5)
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in prof)

    def test_round_trip(self):
        handle, series = spike(5, seed=2, d=2)
        assert series.max_abs_diff(analyze(handle, 5)) <= 1e-12

    def test_position_varies_with_level(self):
        _, series = spike(8, seed=0, d=1)
        hot = [int(np.flatnonzero(series.array((j,)))[0]) for j in range(4, 9)]
        assert len(set(hot)) > 1


class TestKink:
    def test_value_at_anchor_and_corner(self):
        d = 2
        f = kink(None, d)
        anchor = default_kink_anchor(d)
        assert f(anchor) == 0.0
        assert f((0.0, 0.0)) == pytest.approx(anchor[0] * anchor[1], rel=1e-14)

    def test_exact_integral_formula(self):
        c = 1 / math.sqrt(2) - 0.2
        f = kink((c,), 1)
        assert f.exact_integral == pytest.approx((c**2 + (1 - c) ** 2) / 2, rel=1e-15)

    def test_integral_against_symbolic_oracle(self):
        x = sympy.Symbol("x")
        for c in (0.37, default_kink_anchor(1)[0]):
            expected = float(sympy.integrate(sympy.Abs(x - c), (x, 0, 1)))
            assert kink((c,), 1).exact_integral == pytest.approx(expected, rel=1e-13)

    def test_l2_against_quadrature(self):
        f = kink(None, 1)
        value, _ = lq_norm(f, MeasureSpec(2.0, CompositeGauss(level=9)))
        assert value == pytest.approx(f.exact_l2, rel=1e-6)

    def test_dyadic_anchor_rejected(self):
        with pytest.raises(ValueError):
            kink((0.75,), 1)
        with pytest.raises(ValueError):
            kink((0.5, 0.3), 2)

    def test_non_interior_rejected(self):
        with pytest.raises(ValueError):
            kink((0.0,), 1)

    def test_decay_profile_bound(self):
        f = kink(None, 1)
        prof = decay_profile(f, 1.0, 8)
        for order, value in prof[1:]:
            assert value <= 2.0 * 2.0**-order


class TestHatFamily:
    def test_sup_distance_matrix_is_one_off_diagonal(self):
        members = {j: hat_family(j) for j in range(9)}
        for j in range(9):
            for l in range(9):
                x = (2.0 ** -(min(j, l) + 1),)
                dist = abs(members[j](x) - members[l](x))
                assert dist == (0.0 if j == l else 1.0)

    def test_finer_hat_vanishes_at_coarser_peak(self):
        # the analytic witness: peak of the coarse hat, zero of the fine one
        assert hat_family(5)((2.0**-3,)) == 0.0
        assert hat_family(2)((2.0**-3,)) == 1.0

    def test_profile_single_spike(self):
        for j in (0, 3, 5):
            prof = decay_profile(hat_family(j), 2.0, 6)
            for order, value in prof:
                if order == j:
                    assert value == pytest.approx(1.0, abs=1e-12)
                else:
                    assert value <= 1e-12

    def test_exact_integral(self):
        for j in (0, 4):
            f = hat_family(j)
            s = analyze(f, j + 1)
            assert integrate(s) == pytest.approx(f.exact_integral, abs=1e-14)

    def test_tensorized_constant_in_other_axes(self):
        f = hat_family(1, d=2)
        assert f((0.25, 0.1)) == f((0.25, 0.9)) == 1.0


class TestSmoothCatalog:
    def test_ids(self):
        assert set(SMOOTH_IDS) == {"exp", "poly-mix", "x2"}
        with pytest.raises(ValueError):
            smooth("nope", 1)

    @pytest.mark.parametrize("name", SMOOTH_IDS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_integrals_against_symbolic_oracle(self, name, d):
        x = sympy.Symbol("x")
        forms = {
            "x2": x**2,
            "exp": sympy.exp(x),
            "poly-mix": 1 + x - 2 * x**3,
        }
        axis = sympy.integrate(forms[name], (x, 0, 1))
        f = smooth(name, d)
        assert f.exact_integral == pytest.approx(float(axis**d), rel=1e-13)

    @pytest.mark.parametrize("name", SMOOTH_IDS)
    def test_l2_against_symbolic_oracle(self, name):
        x = sympy.Symbol("x")
        forms = {
            "x2": x**2,
            "exp": sympy.exp(x),
            "poly-mix": 1 + x - 2 * x**3,
        }
        axis_sq = sympy.integrate(forms[name] ** 2, (x, 0, 1))
        d = 2
        f = smooth(name, d)
        assert f.exact_l2 == pytest.approx(float(sympy.sqrt(axis_sq**d)), rel=1e-13)

    def test_x2_values(self):
        f = smooth("x2", 3)
        assert f((0.5, 0.5, 1.0)) == pytest.approx(1 / 16)
        assert f.exact_integral == pytest.approx(3.0**-3)

    @pytest.mark.parametrize("name", SMOOTH_IDS)
    def test_cubature_converges_to_catalog_integral(self, name):
        f = smooth(name, 2)
        errs = [
            abs(integrate(analyze(smooth(name, 2), n)) - f.exact_integral)
            for n in (2, 5, 8)
        ]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 1e-4


class TestDefaultAnchor:
    def test_non_dyadic_each_axis(self):
        for d in (1, 2, 3):
            for c in default_kink_anchor(d):
                assert 0.0 < c < 1.0
                scaled = c * 2.0**40
                assert scaled != math.floor(scaled)

    def test_first_axis_is_inverse_sqrt2(self):
        assert default_kink_anchor(1)[0] == pytest.approx(1 / math.sqrt(2))
