"""Convergence studies, rate fits, and the combinatorial/compactness checks.

Rate studies record one row per budget n: node count, measured error,
its estimate, and a reference envelope (``2**(-n/p) * max(n,1)**(d-1)``
for q <= p, ``2**(-n/q) * max(n,1)**((d-1)/q)`` for p < q).  Fits keep
the logarithmic exponent fixed at its theoretical value; jointly fitting
slope and log power is ill-conditioned at desk-scale budgets.  Lower
reference envelopes are reported with constant 1 and never asserted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .faber import FunctionHandle, analyze, integrate
from .measure import MeasureSpec, default_spec, lq_error
from .seqnorm import decay_profile
from .testbed import hat_family

__all__ = [
    "RateRecord",
    "RateFit",
    "WidthRecord",
    "CubatureRecord",
    "NoncompactReport",
    "reference_envelope",
    "convergence_study",
    "fit_rate",
    "comb_check",
    "noncompact_demo",
    "sampling_width_table",
    "cubature_study",
]


@dataclass(frozen=True)
class RateRecord:
    n: int
    m: int
    error: float
    error_estimate: float
    reference: float
    p: float
    q: float
    d: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual_rms: float
    fixed_log_exponent: float
    excluded: tuple[int, ...]


@dataclass(frozen=True)
class WidthRecord:
    m: int
    error: float
    upper_ref: float
    lower_ref: float


@dataclass(frozen=True)
class CubatureRecord:
    n: int
    m: int
    abs_error: float
    reference: float


def reference_envelope(n: int, p: float, q: float, d: int) -> float:
    """Theoretical error envelope at budget n (constant 1, max(n,1) powers)."""
    nn = float(max(n, 1))
    if q > p:
        return 2.0 ** (-n / q) * nn ** ((d - 1) / q)
    return 2.0 ** (-n / p) * nn ** (d - 1)


def _check_range(n_range: Sequence[int]) -> list[int]:
    ns = [int(n) for n in n_range]
    if not ns:
        raise ValueError("empty budget range")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("budget range must be strictly ascending")
    return ns


def convergence_study(
    f: FunctionHandle,
    p: float,
    q: float,
    n_range: Sequence[int],
    spec_factory: Callable[[int], MeasureSpec] | None = None,
) -> list[RateRecord]:
    """Sample, reconstruct, and measure the L_q defect for each budget.

    The node count per row is the number of fresh evaluations the
    analysis performed (each budget owns its analysis).
    """
    d = f.dim
    records = []
    for n in _check_range(n_range):
        before = f.eval_count
        series = analyze(f, n)
        m = f.eval_count - before
        spec = spec_factory(n) if spec_factory is not None else default_spec(q, n, d)
        error, estimate = lq_error(f, series, spec)
        records.append(
            RateRecord(
                n=n,
                m=m,
                error=error,
                error_estimate=estimate,
                reference=reference_envelope(n, p, q, d),
                p=p,
                q=q,
                d=d,
            )
        )
    return records


def fit_rate(records: Sequence[RateRecord], fixed_log_exponent: float = 0.0) -> RateFit:
    """Least squares of log2(error) - e_log * log2(max(n,1)) against n.

    Rows whose error is not above 10x its estimate are measurement noise;
    they are excluded and reported.  At least 4 usable rows are required.
    """
    usable = [r for r in records if r.error > 0.0 and r.error > 10.0 * r.error_estimate]
    excluded = tuple(r.n for r in records if r not in usable)
    if len(usable) < 4:
        raise ValueError(
            f"need >= 4 records above the noise floor, have {len(usable)}"
        )
    ns = np.array([r.n for r in usable], dtype=np.float64)
    ys = np.array(
        [
            math.log2(r.error) - fixed_log_exponent * math.log2(max(r.n, 1))
            for r in usable
        ]
    )
    slope, intercept = np.polyfit(ns, ys, 1)
    resid = ys - (slope * ns + intercept)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        fixed_log_exponent=float(fixed_log_exponent),
        excluded=excluded,
    )


def comb_check(
    alpha: float, d: int, n_range: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Numeric bands for the two level-set sums over interior levels.

    ratio_tail compares ``sum_{order > n} 2**(-alpha * order)`` against
    ``max(n,1)**(d-1) * 2**(-alpha n)``; ratio_bulk compares
    ``sum_{order <= n} 2**order`` against ``max(n,1)**(d-1) * 2**n``.
    The tail is exact: enumeration in the leading axes and geometric
    closure in the last one.  A budget whose ``2**(-alpha (n+1))``,
    ``2**n`` or bulk sum is not a normal binary64 number raises
    ValueError instead of overflowing or losing the tail to underflow.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    x = 2.0**-alpha
    full1 = 1.0 / (1.0 - x)
    cache: dict[tuple[int, int], float] = {}

    def tail(dd: int, n: int) -> float:
        if n < 0:
            return full1**dd
        if dd == 1:
            return x ** (n + 1) * full1
        key = (dd, n)
        if key not in cache:
            head = math.fsum(x**a * tail(dd - 1, n - a) for a in range(n + 1))
            cache[key] = head + x ** (n + 1) * full1**dd
        return cache[key]

    def bulk(n: int) -> int:
        return sum(math.comb(s + d - 1, d - 1) * (1 << s) for s in range(n + 1))

    rows = []
    for n in _check_range(n_range):
        if not (x ** (n + 1) >= sys.float_info.min and n <= sys.float_info.max_exp - 1
                and bulk(n) <= sys.float_info.max):
            raise ValueError(f"budget n={n} leaves the normal binary64 range (alpha={alpha!r}, d={d})")
        denom = float(max(n, 1)) ** (d - 1)
        rows.append(
            (
                n,
                tail(d, n) / (denom * x**n),
                bulk(n) / (denom * math.ldexp(1.0, n)),
            )
        )
    return rows


@dataclass(frozen=True)
class NoncompactReport:
    levels: tuple[int, ...]
    witnesses: tuple[tuple[float, ...], ...]
    distances: tuple[tuple[float, ...], ...]
    profiles: tuple[tuple[float, ...], ...]
    conclusion: str


def noncompact_demo(max_level: int) -> NoncompactReport:
    """Pairwise uniform distances and decay profiles of the hat family.

    The sup distance of two distinct members is witnessed at the peak of
    the coarser hat, where the finer hat vanishes exactly; every member
    has a flat (single unit spike) coefficient profile.  Bounded in the
    sequence norm, pairwise distance one: no uniformly convergent
    subsequence exists.
    """
    if max_level < 2:
        raise ValueError("need max_level >= 2")
    levels = tuple(range(max_level + 1))
    members = [hat_family(j) for j in levels]
    witnesses = []
    distances = []
    for j in levels:
        wrow = []
        drow = []
        for l in levels:
            x = math.ldexp(1.0, -min(j, l) - 1)
            wrow.append(x)
            drow.append(abs(members[j]((x,)) - members[l]((x,))))
        witnesses.append(tuple(wrow))
        distances.append(tuple(drow))
    profiles = tuple(
        tuple(v for _, v in decay_profile(members[j], p=2.0, n=max_level))
        for j in levels
    )
    conclusion = (
        "hat family: level-wise coefficient norms stay at 1 while all pairwise "
        "uniform distances equal 1 at the witness points; the family is bounded "
        "in the sequence norm but has no uniformly convergent subsequence"
    )
    return NoncompactReport(
        levels=levels,
        witnesses=tuple(witnesses),
        distances=tuple(distances),
        profiles=profiles,
        conclusion=conclusion,
    )


def sampling_width_table(
    f: FunctionHandle,
    p: float,
    q: float,
    n_range: Sequence[int],
    spec_factory: Callable[[int], MeasureSpec] | None = None,
) -> list[WidthRecord]:
    """Re-index a convergence study from budget n to sample count m.

    Upper envelope ``m**(-1/p) * log2(m)**((d-1)(1/p+1))``; lower
    envelope ``m**(-1/q)``.  Both carry unknown constants (set to 1) and
    are reference columns, not assertions.
    """
    d = f.dim
    rows = []
    for r in convergence_study(f, p, q, n_range, spec_factory):
        lg = math.log2(r.m)
        rows.append(
            WidthRecord(
                m=r.m,
                error=r.error,
                upper_ref=r.m ** (-1.0 / p) * lg ** ((d - 1) * (1.0 / p + 1.0)),
                lower_ref=r.m ** (-1.0 / q),
            )
        )
    return rows


def cubature_study(f: FunctionHandle, n_range: Sequence[int]) -> list[CubatureRecord]:
    """Integrate the reconstruction and compare with the exact integral.

    Reference envelope ``2**-n * max(n,1)**(d-1)``.  Requires a handle
    that ships its exact integral.
    """
    if f.exact_integral is None:
        raise ValueError(f"{f.label!r} has no exact integral; cubature needs one")
    d = f.dim
    rows = []
    for n in _check_range(n_range):
        before = f.eval_count
        series = analyze(f, n)
        m = f.eval_count - before
        err = abs(f.exact_integral - integrate(series))
        rows.append(
            CubatureRecord(
                n=n,
                m=m,
                abs_error=err,
                reference=math.ldexp(1.0, -n) * float(max(n, 1)) ** (d - 1),
            )
        )
    return rows
