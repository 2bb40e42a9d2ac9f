"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Asymptotic statements are checked as slope bands and ratio bands at desk
scale; exact counts and distances are checked exactly.  Frozen regression
values (node counts, cubature floor) were measured once and pinned.
"""

import time

import numpy as np
import pytest

from faberkit.dyadic import LevelVector, levels_up_to, node_count, node_set
from faberkit.experiments import (
    comb_check,
    convergence_study,
    cubature_study,
    fit_rate,
    noncompact_demo,
)
from faberkit.faber import (
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
    block_lq_exact,
    lq_norm,
)
from faberkit.seqnorm import decay_profile
from faberkit.testbed import SMOOTH_IDS, extremal, kink, smooth, spike

# node counts for d in {2, 3}, n in [6, 12], frozen after first measurement
FROZEN_COUNTS = {
    2: {6: 1281, 7: 2817, 8: 6145, 9: 13313, 10: 28673, 11: 61441, 12: 131073},
    3: {6: 8961, 7: 21249, 8: 49665, 9: 114689, 10: 262145, 11: 593921, 12: 1335297},
}


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s over budget {budget}s"


def test_criterion_01_biorthogonality_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in (1, 2, 3):
        n = 6
        for _ in range(20):
            coeffs = np.concatenate(
                [rng.uniform(-1.0, 1.0, j.translation_count()) for j in levels_up_to(n, d)]
            )
            series = FaberSeries(n, d, coeffs)
            back = analyze(synthesize(series), n)
            worst = max(worst, series.max_abs_diff(back))
    elapsed = time.time() - t0
    report(
        "criterion 1 biorthogonality round trip",
        worst <= 1e-12,
        f"max deviation {worst:.2e} over d in {{1,2,3}}, n=6, 20 series each",
        elapsed,
        10.0,
    )


def test_criterion_02_interpolation_property():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2):
        X = node_set(6, d)
        for name in SMOOTH_IDS:
            f = smooth(name, d)
            series = analyze(f, 6)
            err = float(np.max(np.abs(evaluate_batch(series, X) - f.eval_batch(X))))
            worst = max(worst, err)
    elapsed = time.time() - t0
    report(
        "criterion 2 interpolation at nodes",
        worst <= 1e-10,
        f"max node defect {worst:.2e} (smooth catalog, d<=2, n=6)",
        elapsed,
        10.0,
    )


def test_criterion_03_node_accounting():
    t0 = time.time()
    ok_d1 = all(node_count(n, 1) == 2 ** (n + 1) + 1 for n in range(13))
    ok_dedupe = all(
        node_count(n, d) == len(np.unique(node_set(n, d), axis=0))
        for d, n in [(1, 8), (2, 5), (3, 3)]
    )
    ok_band = True
    ok_frozen = True
    for d in (2, 3):
        for n in range(6, 13):
            m = node_count(n, d)
            ok_frozen &= m == FROZEN_COUNTS[d][n]
            ok_band &= 0.3 <= m / (2**n * n ** (d - 1)) <= 10.0
    elapsed = time.time() - t0
    report(
        "criterion 3 node accounting",
        ok_d1 and ok_dedupe and ok_band and ok_frozen,
        f"m(n,1)=2^(n+1)+1 {ok_d1}, dedupe {ok_dedupe}, "
        f"band [0.3,10] {ok_band}, frozen counts {ok_frozen}",
        elapsed,
        30.0,
    )


def test_criterion_04_main_rate_q_equals_p():
    t0 = time.time()
    slopes = {}
    for p, band in ((2.0, (-0.6, -0.4)), (1.0, (-1.15, -0.85))):
        handle, _ = extremal(p, 14, seed=7, d=1)
        records = convergence_study(
            handle, p, p, range(4, 13),
            lambda n: MeasureSpec(p, CompositeGauss(level=15)),
        )
        slopes[p] = (fit_rate(records, 0.0).slope, band)
    elapsed = time.time() - t0
    ok = all(lo <= s <= hi for s, (lo, hi) in slopes.values())
    detail = ", ".join(
        f"p=q={p:g}: slope {s:.3f} in [{lo},{hi}]" for p, (s, (lo, hi)) in slopes.items()
    )
    report("criterion 4 main rate (q=p)", ok, detail, elapsed, 120.0)


def test_criterion_05_rate_p_below_q():
    t0 = time.time()
    handle, _ = spike(14, seed=7, d=1)
    records = convergence_study(
        handle, 1.0, 2.0, range(4, 13),
        lambda n: MeasureSpec(2.0, CompositeGauss(level=15)),
    )
    slope = fit_rate(records, 0.0).slope
    elapsed = time.time() - t0
    report(
        "criterion 5 rate with p<q",
        -0.65 <= slope <= -0.35,
        f"p=1,q=2 concentrated unit-ball family: slope {slope:.3f} in [-0.65,-0.35] "
        "(theoretical -1/q = -0.5)",
        elapsed,
        120.0,
    )


def test_criterion_06_d2_envelope():
    t0 = time.time()
    handle, _ = extremal(2.0, 12, seed=7, d=2)
    records = convergence_study(
        handle, 2.0, 2.0, range(4, 11),
        lambda n: MeasureSpec(2.0, StratifiedMC(samples=200_000, seed=11)),
    )
    ratios = [r.error / r.reference for r in records]
    band = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    report(
        "criterion 6 d=2 envelope",
        band <= 6.0,
        f"error/(2^(-n/2) n) spread {band:.2f} <= 6 over n=4..10",
        elapsed,
        300.0,
    )


def test_criterion_07_coefficient_decay():
    t0 = time.time()
    ok = True
    details = []
    for d in (1, 2):
        profile = [v for _, v in decay_profile(kink(None, d), 1.0, 10)]
        head = profile[0]
        flat = max(profile) <= 2.0 * head
        ok &= flat
        details.append(f"kink d={d}: max/head {max(profile) / head:.2f} <= 2")
    for p in (1.0, 2.0):
        handle, _ = extremal(p, 10, seed=7, d=1)
        profile = [v for _, v in decay_profile(handle, p, 10)]
        inside = all(0.9 <= v <= 1.1 for v in profile)
        ok &= inside
        details.append(
            f"extremal p={p:g}: profile in [{min(profile):.3f},{max(profile):.3f}]"
        )
    elapsed = time.time() - t0
    report("criterion 7 coefficient decay", ok, "; ".join(details), elapsed, 60.0)


def test_criterion_08_level_sum_bands():
    t0 = time.time()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for d in (1, 2, 3):
            rows = comb_check(alpha, d, range(8, 17))
            tails = [r[1] for r in rows]
            bulks = [r[2] for r in rows]
            worst = max(worst, max(tails) / min(tails), max(bulks) / min(bulks))
    elapsed = time.time() - t0
    report(
        "criterion 8 level-set sum bands",
        worst <= 2.0,
        f"worst max/min band {worst:.3f} <= 2 over alpha in {{1/2,1,2}}, d<=3, n=8..16",
        elapsed,
        10.0,
    )


def test_criterion_09_noncompactness():
    t0 = time.time()
    rep = noncompact_demo(8)
    off = [rep.distances[a][b] for a in rep.levels for b in rep.levels if a != b]
    diag = [rep.distances[a][a] for a in rep.levels]
    spikes = all(
        prof[j] == pytest.approx(1.0, abs=1e-12)
        and all(v <= 1e-12 for o, v in enumerate(prof) if o != j)
        for j, prof in zip(rep.levels, rep.profiles)
    )
    ok = all(v == 1.0 for v in off) and all(v == 0.0 for v in diag) and spikes
    elapsed = time.time() - t0
    report(
        "criterion 9 non-compactness",
        ok,
        f"{len(off)} off-diagonal distances exactly 1, diagonals 0, unit-spike profiles",
        elapsed,
        1.0,
    )


def test_criterion_10_cubature():
    t0 = time.time()
    one = FunctionHandle(lambda X: np.ones(len(X)), 2, label="one", exact_integral=1.0)
    const_rows = cubature_study(one, range(0, 11, 2))
    const_exact = all(r.abs_error == 0.0 for r in const_rows)

    rows = cubature_study(smooth("x2", 2), range(2, 11))
    errs = [r.abs_error for r in rows]
    decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
    final = errs[-1]
    elapsed = time.time() - t0
    report(
        "criterion 10 cubature",
        const_exact and decreasing and final <= 1e-3 and final <= 1e-6,
        f"constants exact {const_exact}, errors decreasing {decreasing}, "
        f"final d=2 n=10 error {final:.2e} <= 1e-3 (frozen floor 1e-6)",
        elapsed,
        60.0,
    )


def test_criterion_11_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 3))
        entries = tuple(int(rng.integers(0, 4)) for _ in range(d))
        j = LevelVector(entries)
        coeffs = rng.uniform(-1.0, 1.0, j.translation_count())
        blocks = [
            coeffs if lv == j else np.zeros(lv.translation_count())
            for lv in levels_up_to(j.order, d)
        ]
        g = synthesize(FaberSeries(j.order, d, np.concatenate(blocks)))
        q = float(rng.integers(1, 4))
        level = max(max(entries) + 1, 2)
        value, _ = lq_norm(g, MeasureSpec(q, CompositeGauss(level=level)))
        exact = block_lq_exact(j, coeffs, q)
        worst = max(worst, abs(value - exact) / exact)
    elapsed = time.time() - t0
    report(
        "criterion 11 oracle equivalence",
        worst <= 1e-8,
        f"50 single-level pieces: worst relative deviation {worst:.2e} <= 1e-8",
        elapsed,
        10.0,
    )
