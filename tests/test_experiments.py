"""Studies: rate fitting, combinatorial sums, non-compactness, widths, cubature."""

import itertools
import math
import struct

import numpy as np
import pytest

from faberkit import dyadic, experiments
from faberkit.dyadic import node_count
from faberkit.experiments import (
    RateRecord,
    comb_check,
    convergence_study,
    cubature_study,
    fit_rate,
    noncompact_demo,
    reference_envelope,
    sampling_width_table,
)
from faberkit.faber import FunctionHandle, analyze
from faberkit.measure import (
    CompositeGauss,
    MeasureSpec,
    StratifiedMC,
    SupGrid,
    block_lq_exact,
    lq_error,
)
from faberkit.testbed import extremal, kink, smooth, spike


def synthetic_records(errors, estimates=None):
    estimates = estimates or [0.0] * len(errors)
    return [
        RateRecord(n=n, m=2**n, error=e, error_estimate=est, reference=1.0, p=2, q=2, d=1)
        for n, (e, est) in enumerate(zip(errors, estimates), start=4)
    ]


def brute_force_tail(alpha, d, n, extra=80):
    """Oracle: direct summation with an enumeration box wide enough that
    the discarded remainder is below 1e-16 relative."""
    bound = n + extra
    total = 0.0
    for j in itertools.product(range(bound), repeat=d):
        s = sum(j)
        if s > n:
            total += 2.0 ** (-alpha * s)
    return total


class TestFitRate:
    def test_recovers_plain_exponent(self):
        records = synthetic_records([2.0 ** (-n / 2) for n in range(4, 12)])
        fit = fit_rate(records, 0.0)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.residual_rms <= 1e-12

    def test_recovers_exponent_with_log_factor(self):
        records = synthetic_records([n * 2.0**-n for n in range(4, 12)])
        fit = fit_rate(records, 1.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_records_excluded_and_reported(self):
        errors = [2.0 ** (-n / 2) for n in range(4, 12)]
        estimates = [0.0] * 8
        estimates[-1] = errors[-1]  # last record drowned in noise
        fit = fit_rate(synthetic_records(errors, estimates), 0.0)
        assert fit.excluded == (11,)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_usable_records(self):
        records = synthetic_records([1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            fit_rate(records, 0.0)


class TestConvergenceStudy:
    def test_records_carry_node_counts(self):
        f = FunctionHandle(lambda X: np.sin(X[:, 0]), 1)
        records = convergence_study(f, 2.0, 2.0, range(1, 5))
        for r in records:
            assert r.m == node_count(r.n, 1)

    def test_multilinear_degenerates(self):
        f = FunctionHandle(lambda X: X[:, 0] * X[:, 1], 2)
        records = convergence_study(
            f, 2.0, 2.0, range(0, 3), lambda n: MeasureSpec(2.0, CompositeGauss(level=4))
        )
        assert all(r.error <= 1e-10 for r in records)

    def test_extremal_ratio_band(self):
        handle, _ = extremal(2.0, 10, seed=7, d=1)
        records = convergence_study(
            handle, 2.0, 2.0, range(3, 9),
            lambda n: MeasureSpec(2.0, CompositeGauss(level=11)),
        )
        ratios = [r.error / r.reference for r in records]
        assert max(ratios) / min(ratios) <= 3.0

    def test_rejects_unsorted_range(self):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        with pytest.raises(ValueError):
            convergence_study(f, 2.0, 2.0, [3, 2])
        with pytest.raises(ValueError):
            convergence_study(f, 2.0, 2.0, [])

    @pytest.mark.parametrize(
        "p,q", [(0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (2.0, 0.5), (2.0, math.nan)]
    )
    def test_rejects_exponents_below_one_before_sampling(self, p, q):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        for study in (convergence_study, sampling_width_table):
            with pytest.raises(ValueError, match="need p >= 1 and q >= 1"):
                study(f, p, q, range(2, 6))
        assert f.eval_count == 0

    def test_rejects_a_measure_of_another_q_before_sampling(self):
        # the reference column and the rate fit use q; a spec of another
        # exponent at any budget would put its errors next to them
        f = FunctionHandle(lambda X: X[:, 0] ** 2, 1)

        def factory(n):
            if n < 4:
                return MeasureSpec(2.0, CompositeGauss(level=n + 2))
            return MeasureSpec(math.inf, SupGrid(level=n + 2))

        for study in (convergence_study, sampling_width_table):
            with pytest.raises(ValueError, match=r"the measure at n=4 has q=inf, not the study's q=2.0"):
                study(f, 2.0, 2.0, range(2, 6), factory)
        assert f.eval_count == 0

    def test_infinite_exponents_accepted(self):
        f = FunctionHandle(lambda X: X[:, 0] ** 2, 1)
        records = convergence_study(
            f, math.inf, math.inf, [2], lambda n: MeasureSpec(math.inf, SupGrid(level=4))
        )
        assert records[0].reference == 1.0

    def test_reference_envelope_regimes(self):
        assert reference_envelope(6, 2.0, 2.0, 2) == pytest.approx(2.0**-3 * 6)
        assert reference_envelope(6, 1.0, 2.0, 2) == pytest.approx(2.0**-3 * 6**0.5)
        assert reference_envelope(0, 2.0, 2.0, 1) == 1.0

        def two_branch(n, p, q, d):  # the envelope as a q > p and a q <= p branch
            nn = float(max(n, 1))
            if q > p:
                return 2.0 ** (-n / q) * nn ** ((d - 1) / q)
            return 2.0 ** (-n / p) * nn ** (d - 1)

        exponents = (1.0, 1.5, 2.0, 3.0, math.inf)
        for p, q in itertools.product(exponents, exponents):  # p = q, q = inf, p = inf
            for n, d in itertools.product((0, 1, 6, 13), (1, 2, 3, 5)):
                new, old = reference_envelope(n, p, q, d), two_branch(n, p, q, d)
                assert struct.pack("<d", new) == struct.pack("<d", old), (n, p, q, d)
        assert reference_envelope(6, math.inf, 2.0, 3) == 36.0
        assert reference_envelope(6, 2.0, math.inf, 3) == 1.0

    def test_spread_family_overshoots_q_rate(self):
        # regression: the spread family measured in L_2 with p=1 decays at
        # slope -1, i.e. inside the 2^(-n/q) envelope but much faster; the
        # concentrated family is the one that saturates it (see spike).
        handle, _ = extremal(1.0, 12, seed=7, d=1)
        records = convergence_study(
            handle, 1.0, 2.0, range(3, 10),
            lambda n: MeasureSpec(2.0, CompositeGauss(level=13)),
        )
        fit = fit_rate(records, 0.0)
        assert -1.1 <= fit.slope <= -0.85
        assert all(r.error <= 2.0 * r.reference for r in records)


class TestCombCheck:
    def test_d1_alpha1_tail_ratio_is_one(self):
        rows = comb_check(1.0, 1, range(1, 20))
        for _, ratio_tail, _ in rows:
            assert ratio_tail == pytest.approx(1.0, rel=1e-13)

    def test_d1_bulk_formula(self):
        rows = comb_check(1.0, 1, range(1, 10))
        for n, _, ratio_bulk in rows:
            assert ratio_bulk == pytest.approx((2 ** (n + 1) - 1) / 2**n, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tail_matches_brute_force(self, alpha, d):
        for n in (2, 5, 9):
            (row,) = comb_check(alpha, d, [n])
            expected = brute_force_tail(alpha, d, n) / (max(n, 1) ** (d - 1) * 2.0 ** (-alpha * n))
            assert row[1] == pytest.approx(expected, rel=1e-11)

    def test_d2_band_stability(self):
        rows = comb_check(1.0, 2, range(10, 21))
        tails = [r[1] for r in rows]
        assert 0.5 <= min(tails) and max(tails) <= 4.0
        assert max(tails) / min(tails) <= 1.2

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            comb_check(0.0, 1, [3])

    @pytest.mark.parametrize("alpha", [1e-17, 5e-324])
    def test_rejects_alpha_with_unit_ratio(self, alpha):
        with pytest.raises(ValueError, match=f"alpha={alpha!r}"):
            comb_check(alpha, 2, [1, 2, 3])

    @pytest.mark.parametrize(
        "alpha,d,n",
        [
            (2.0, 2, 535),  # 2**(-alpha (n+1)) is subnormal: the tail loses digits
            (1.0, 2, 1100),  # the tail underflows to 0
            (1.0, 1, 1030),  # 2**n overflows
            (0.5, 2, 1021),  # 2**n is finite, the bulk sum is not
        ],
    )
    def test_budget_outside_normal_range_rejected(self, alpha, d, n):
        with pytest.raises(ValueError, match=f"budget n={n} "):
            comb_check(alpha, d, [n])

    def test_tail_ratio_past_binary64_rejected(self):
        # (1 - 2**-0.5)**-578 is finite, and dividing it by 2**-0.5 is not
        with pytest.raises(ValueError, match="budget n=1 leaves the normal binary64 range"):
            comb_check(0.5, 578, [1])
        (row,) = comb_check(0.5, 577, [1])
        assert row[1] == pytest.approx(7.23e307, rel=1e-3)

    def test_largest_normal_budget_keeps_the_tail_band(self):
        # 2**(-2 * 511) is the smallest normal binary64 number
        (row,) = comb_check(2.0, 2, [510])
        assert row[1] == pytest.approx(0.3348, abs=1e-4)


class TestNoncompactDemo:
    def test_distances(self):
        report = noncompact_demo(6)
        for a in report.levels:
            for b in report.levels:
                expected = 0.0 if a == b else 1.0
                assert report.distances[a][b] == expected

    def test_profiles_are_unit_spikes(self):
        report = noncompact_demo(5)
        for j, profile in zip(report.levels, report.profiles):
            assert profile[j] == pytest.approx(1.0, abs=1e-12)
            assert all(v <= 1e-12 for o, v in enumerate(profile) if o != j)

    def test_witnesses_are_coarse_peaks(self):
        report = noncompact_demo(3)
        assert report.witnesses[2][3] == 0.125
        assert report.witnesses[3][2] == 0.125

    def test_conclusion_mentions_no_convergent_subsequence(self):
        assert "subsequence" in noncompact_demo(2).conclusion

    def test_rejects_small_budget(self):
        with pytest.raises(ValueError):
            noncompact_demo(1)

    @pytest.mark.parametrize("max_level,message", [(24, "over the cap"), (400, "MAX_LEVEL")])
    def test_unplannable_budget_fails_before_building_members(
        self, monkeypatch, max_level, message
    ):
        built = []
        monkeypatch.setattr(experiments, "hat_family", lambda j: built.append(j))
        with pytest.raises(ValueError, match=message):
            noncompact_demo(max_level)
        assert built == []


class TestSamplingWidths:
    def test_m_strictly_increasing(self):
        handle, _ = extremal(2.0, 8, seed=7, d=1)
        rows = sampling_width_table(
            handle, 2.0, 2.0, range(2, 7),
            lambda n: MeasureSpec(2.0, CompositeGauss(level=9)),
        )
        ms = [w.m for w in rows]
        assert all(b > a for a, b in zip(ms, ms[1:]))

    def test_loglog_slope_near_minus_inverse_p(self):
        p = 2.0
        handle, _ = extremal(p, 12, seed=7, d=1)
        rows = sampling_width_table(
            handle, p, p, range(4, 11),
            lambda n: MeasureSpec(p, CompositeGauss(level=13)),
        )
        lm = np.log2([w.m for w in rows])
        le = np.log2([w.error for w in rows])
        slope = np.polyfit(lm, le, 1)[0]
        assert -1 / p - 0.1 <= slope <= -1 / p + 0.1

    def test_reference_columns(self):
        handle, _ = extremal(2.0, 6, seed=1, d=2)
        rows = sampling_width_table(
            handle, 2.0, 2.0, [2, 3],
            lambda n: MeasureSpec(2.0, StratifiedMC(samples=20_000, seed=5)),
        )
        for w in rows:
            lg = math.log2(w.m)
            assert w.upper_ref == pytest.approx(w.m**-0.5 * lg ** (1.5), rel=1e-12)
            assert w.lower_ref == pytest.approx(w.m**-0.5, rel=1e-12)
            assert w.error >= 0.0  # lower envelope recorded, never asserted


class TestCubatureStudy:
    def test_constant_is_exact(self):
        one = FunctionHandle(
            lambda X: np.ones(len(X)), 2, label="one", exact_integral=1.0
        )
        rows = cubature_study(one, range(0, 5))
        assert all(r.abs_error == 0.0 for r in rows)

    def test_kink_second_order_rate_recorded(self):
        f = kink(None, 1)
        rows = cubature_study(f, range(2, 9))
        ratios = [r.abs_error / 4.0**-r.n for r in rows]
        assert all(r <= 1.0 for r in ratios)
        assert rows[-1].abs_error < rows[0].abs_error

    def test_smooth_x2_d2_regression(self):
        rows = cubature_study(smooth("x2", 2), range(2, 11))
        errs = [r.abs_error for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-6  # measured 2.2e-8 at n=10; frozen envelope

    def test_requires_exact_integral(self):
        f = FunctionHandle(lambda X: X[:, 0], 1)
        with pytest.raises(ValueError):
            cubature_study(f, [1, 2])

    def test_reference_column(self):
        rows = cubature_study(smooth("x2", 2), [4])
        assert rows[0].reference == pytest.approx(2.0**-4 * 4.0)
        assert rows[0].m == node_count(4, 2)


class TestRangeRefusedBeforeSampling:
    """A budget range over the node cap fails before its first budget is sampled."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def analyze_spy(f, n):  # never samples: a cap-sized budget must not run
            calls.append(n)
            raise AssertionError(f"analyze called at n={n}")

        monkeypatch.setattr(experiments, "analyze", analyze_spy)
        return calls

    @pytest.mark.parametrize("study", ["convergence", "widths", "cubature"])
    def test_over_cap_range_raises_the_first_over_cap_message(self, study, spy):
        # m(n, 1) = 2**(n+1) + 1: n = 24 is the first budget over the cap
        f = smooth("exp", 1)
        ns = [2, 3, 24, 30]
        message = f"budget n=24 needs {node_count(24, 1)} nodes in d=1, over the cap {dyadic.MAX_POINTS}"
        with pytest.raises(ValueError) as info:
            if study == "convergence":
                convergence_study(f, 2.0, 3.0, ns)
            elif study == "widths":
                sampling_width_table(f, 2.0, 3.0, ns)
            else:
                cubature_study(f, ns)
        assert str(info.value) == message
        assert spy == [] and f.eval_count == 0

    def test_dimension_and_level_caps_keep_their_messages(self, spy):
        f = smooth("exp", 2)
        with pytest.raises(ValueError, match="^d=40 needs at least 3\\*\\*d nodes"):
            cubature_study(smooth("exp", 40), [0, 1])
        with pytest.raises(ValueError, match=f"^budget exceeds MAX_LEVEL={dyadic.MAX_LEVEL}$"):
            convergence_study(f, 2.0, 2.0, [1, 63])
        assert spy == [] and f.eval_count == 0

    @pytest.mark.parametrize("study", [convergence_study, sampling_width_table])
    def test_a_later_spec_over_its_measure_cap_raises_first(self, study, spy):
        # d = 3: the mesh pair of level 5 is over the point cap, levels 3 and 4 are not
        f = smooth("exp", 3)
        with pytest.raises(ValueError) as info:
            study(f, 2.0, 2.0, [1, 2, 3], lambda n: MeasureSpec(2.0, CompositeGauss(level=n + 2)))
        assert str(info.value) == (
            "composite mesh level 5 in d=3 exceeds the cell budget; use stratified_mc instead"
        )
        assert spy == [] and f.eval_count == 0

    def test_a_plannable_range_costs_a_memo_hit(self, monkeypatch, spy):
        # m(n, d) grows with n: the last budget's layout, a memo hit, checks all
        dyadic._levels(5, 4)
        counted = []
        monkeypatch.setattr(dyadic, "node_count", lambda n, d: counted.append((n, d)))
        with pytest.raises(AssertionError, match="^analyze called at n=2$"):  # checked, then sampled
            next(experiments._analyses(smooth("exp", 4), [2, 3, 4, 5]))
        assert counted == []


class TestSemiAnalyticTail:
    def test_measured_error_tracks_block_tail(self):
        # the truncation defect of a prescribed series is the sum of its
        # dropped levels; its L2 norm must sit between the largest single
        # block and the triangle-inequality sum of all blocks
        handle, series = extremal(2.0, 10, seed=5, d=1)
        for n in (3, 5, 7):
            recovered = analyze(handle, n)
            err, _ = lq_error(
                handle, recovered, MeasureSpec(2.0, CompositeGauss(level=12))
            )
            blocks = [
                block_lq_exact(j, series.array(j), 2.0)
                for j in series.levels()
                if j.order > n and all(e >= 0 for e in j.entries)
            ]
            assert max(blocks) <= err * (1 + 1e-9)
            assert err <= sum(blocks) * (1 + 1e-9)
            # levels are near-orthogonal in L2: the root-sum-of-squares
            # tracks the measured error within a modest factor
            rss = math.sqrt(sum(b * b for b in blocks))
            assert 0.7 <= err / rss <= 1.5


class TestRateSaturation:
    def test_spike_saturates_q_rate(self):
        handle, _ = spike(12, seed=7, d=1)
        records = convergence_study(
            handle, 1.0, 2.0, range(3, 10),
            lambda n: MeasureSpec(2.0, CompositeGauss(level=13)),
        )
        fit = fit_rate(records, 0.0)
        assert -0.65 <= fit.slope <= -0.35
