"""Catalog functions: prescribed series, kinks, hats, smooth references."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faberkit import dyadic
from faberkit.faber import analyze, evaluate_batch, integrate
from faberkit.measure import CompositeGauss, MeasureSpec, block_lq_exact, lq_norm
from faberkit.seqnorm import decay_profile, level_lp, seq_norm, series_profile, NormParams
from faberkit.testbed import (
    SMOOTH_IDS,
    _hash_key,
    _is_shallow_dyadic,
    default_kink_anchor,
    extremal,
    hat_family,
    kink,
    smooth,
    spike,
)
from oracles import prod_kink_eval, prod_polymix_eval, prod_x2_eval, translations

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

    @pytest.mark.parametrize("p", [0.5, -math.inf, math.nan])
    def test_p_below_one_or_nan_refused(self, p):
        with pytest.raises(ValueError, match=r"^p must be >= 1$"):
            extremal(p, 3, seed=0, d=1)

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

    @pytest.mark.parametrize(
        "depth,d,bytes_per_coeff,digest",
        [
            (18, 1, 44, "5c49bcd448ab1df6174de0a82713e8e7804220d65c3ba7cd08cb8daf36c17cab"),
            (12, 2, 60, "3c76f74060056e672085495fba9e2a97476c973b4af452c5e3c49d08c6cc59dd"),
        ],
    )
    def test_sign_pass_memory_and_bytes(self, depth, d, bytes_per_coeff, digest):
        # the sign hash runs over row chunks, so its temporaries stay small
        # next to the planner's table; the digests were taken from the
        # one-pass version, whose peak was 58 and 75 B per coefficient
        tracemalloc.start()
        try:
            _, series = extremal(2.0, depth, seed=5, d=d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_coeff * series.size
        assert hashlib.sha256(series.coeffs.tobytes()).hexdigest() == digest

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            extremal(0.5, 4, 0, 1)
        with pytest.raises(ValueError):
            extremal(1.0, 0, 0, 1)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: extremal(2.0, 3.5, 0, 1), "depth must be an integer, got 3.5"),
            (lambda: extremal(2.0, 3, 0.5, 1), "seed must be an integer, got 0.5"),
            (lambda: extremal(2.0, 3, 0, 1.0), "dimension must be an integer, got 1.0"),
            (lambda: spike(3.0, 0, 1), "depth must be an integer, got 3.0"),
            (lambda: spike(3, "1", 1), "seed must be an integer, got '1'"),
        ],
        ids=["extremal-depth", "extremal-seed", "extremal-dim", "spike-depth", "spike-seed"],
    )
    def test_prescribed_families_refuse_non_integers_by_name(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_prescribed_families_take_numpy_integers(self):
        # a numpy seed overflowed the 64-bit hash's mask
        for make in (lambda *a: extremal(2.0, *a), spike):
            plain = make(4, 7, 2)[1]
            numpy_ints = make(np.int32(4), np.int64(7), np.int64(2))[1]
            assert numpy_ints.budget == 4 and numpy_ints.coeffs.tobytes() == plain.coeffs.tobytes()

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

    def test_coefficient_bytes_pinned(self):
        # positions and signs are seeded hashes; the digest pins them
        digest = hashlib.sha256()
        for d, depth in [(1, 12), (2, 8), (3, 6), (4, 5)]:
            for seed in (0, 1, 7):
                digest.update(spike(depth, seed, d)[1].coeffs.tobytes())
        assert digest.hexdigest() == (
            "84adbc1166c218108e07596d32e0d895c11b8bf56deb3f7827d3469f47184242"
        )


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

    @pytest.mark.parametrize(
        "j,message",
        [(-1, "hat level must be >= 0"), (1.5, "hat level must be an integer, got 1.5"),
         (1.0, "hat level must be an integer, got 1.0")],
        ids=["negative", "fraction", "integral-float"],
    )
    def test_rejects_a_bad_level(self, j, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            hat_family(j)

    def test_takes_a_numpy_level(self):
        # math.ldexp refused a numpy level with a TypeError
        f = hat_family(np.int64(2))
        assert f((0.125,)) == 1.0 and f.exact_integral == 0.125


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

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: default_kink_anchor(2.0), "dimension must be an integer, got 2.0"),
            (lambda: default_kink_anchor(0), "dimension must be >= 1"),  # returned ()
            (lambda: kink(None, 2.0), "dimension must be an integer, got 2.0"),
            (lambda: smooth("x2", "2"), "dimension must be an integer, got '2'"),
        ],
        ids=["anchor-float", "anchor-zero", "kink-float", "smooth-string"],
    )
    def test_dimension_refused_by_name(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def _assert_products_match_np_prod(X, anchor):
    d = X.shape[1]
    pairs = [
        (kink(anchor, d), prod_kink_eval(anchor)),
        (smooth("x2", d), prod_x2_eval),
        (smooth("poly-mix", d), prod_polymix_eval),
    ]
    for f, oracle in pairs:
        assert f.eval_batch(X).tobytes() == oracle(X).tobytes(), f.label


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.integers(1, 8), rows=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
def test_property_column_products_are_np_prod_bytes(d, rows, seed):
    # the column-wise products multiply in np.prod's order, also where
    # zeros, ones and tiny factors underflow part of a product
    rng = np.random.default_rng(seed)
    X = rng.random((rows, d))
    special = rng.random(X.shape) < 0.25
    X[special] = rng.choice([0.0, 1.0, 1e-200, 1e-160, 5e-324], special.sum())
    anchor = tuple(rng.uniform(0.01, 0.99, d).tolist())
    assume(not any(_is_shallow_dyadic(c) for c in anchor))
    _assert_products_match_np_prod(X, anchor)


@pytest.mark.parametrize("n,d", [(5, 4), (3, 8)])
def test_column_products_on_analyze_nodes(n, d):
    points, _ = dyadic._grid_plan(n, d).hierarchy
    _assert_products_match_np_prod(points.copy(), default_kink_anchor(d))
