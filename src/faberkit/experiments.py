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

from .dyadic import _check_int, _levels, capped_node_count
from .faber import FunctionHandle, analyze, integrate
from .measure import MeasureSpec, _cap_error, default_spec, lq_error
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
    """Theoretical error envelope at budget n (constant 1, max(n,1) powers):
    ``2**(-n / max(p, q)) * max(n, 1)**_log_exponent(p, q, d)``."""
    return 2.0 ** (-n / max(p, q)) * float(max(n, 1)) ** _log_exponent(p, q, d)


def _log_exponent(p: float, q: float, d: int) -> float:
    """The envelope's power of max(n, 1): (d - 1)/q when q > p, else d - 1."""
    return (d - 1) / q if q > p else float(d - 1)


def _check_range(n_range: Sequence[int]) -> list[int]:
    ns = [_check_int("budget", n) for n in n_range]
    if not ns:
        raise ValueError("empty budget range")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("budget range must be strictly ascending")
    return ns


def _analyses(f: FunctionHandle, ns: list[int], specs: Sequence[MeasureSpec] = ()):
    """Yield (n, m, analyze(f, n)) per budget n of ns, m its fresh evaluations,
    once the whole range is checked.  First the node cap: m(n, d) grows with n,
    so the last budget's layout, a memo hit when the study repeats, passes
    only if every budget does; only a failing range counts nodes, budget by
    budget.  Then each spec's measure cap (``measure._cap_error``) in d.
    """
    d = f.dim
    try:
        _levels(ns[-1], d)
    except ValueError:
        for n in ns:
            capped_node_count(n, d)
        raise
    for spec in specs:
        if error := _cap_error(spec.method, d):
            raise ValueError(error)
    for n in ns:
        before = f.eval_count
        series = analyze(f, n)
        yield n, f.eval_count - before, series


def convergence_study(
    f: FunctionHandle,
    p: float,
    q: float,
    n_range: Sequence[int],
    spec_factory: Callable[[int], MeasureSpec] | None = None,
) -> list[RateRecord]:
    """Sample, reconstruct, and measure the L_q defect for each budget.

    The node count per row is the number of fresh evaluations the
    analysis performed (each budget owns its analysis).  p, q < 1 or NaN,
    a spec_factory whose spec measures another exponent than q at any
    budget (the reference column and the rate fits use q), and the caps
    of :func:`_analyses` raise ValueError before f is sampled.
    """
    if not (p >= 1.0 and q >= 1.0):
        raise ValueError(f"need p >= 1 and q >= 1, got p={p!r}, q={q!r}")
    d = f.dim
    ns = _check_range(n_range)
    specs = [spec_factory(n) if spec_factory is not None else default_spec(q, n, d) for n in ns]
    for n, spec in zip(ns, specs):
        if spec.q != q:
            raise ValueError(f"the measure at n={n} has q={spec.q!r}, not the study's q={q!r}")
    records = []
    for (n, m, series), spec in zip(_analyses(f, ns, specs), specs):
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
    closure in the last one, built one dimension at a time.  A budget
    whose ``2**(-alpha (n+1))``, ``2**n`` or bulk sum is not a normal
    binary64 number, whose ``(1 - 2**-alpha)**-d`` or ``max(n,1)**(d-1)``
    is not finite, whose tail ratio is not finite, or an alpha so small
    that ``2**-alpha`` rounds to 1, raises ValueError instead of
    overflowing, dividing by zero or losing the tail to underflow.
    """
    if alpha <= 0.0 or 2.0**-alpha == 1.0:
        raise ValueError(f"alpha={alpha!r} must be positive, with 2**-alpha below 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    x = 2.0**-alpha
    full1 = 1.0 / (1.0 - x)

    def bulk(n: int) -> int:
        return sum(math.comb(s + d - 1, d - 1) * (1 << s) for s in range(n + 1))

    def out_of_range(n: int) -> ValueError:
        return ValueError(f"budget n={n} leaves the normal binary64 range (alpha={alpha!r}, d={d})")

    ns = _check_range(n_range)
    for n in ns:
        if not (x ** (n + 1) >= sys.float_info.min and n <= sys.float_info.max_exp - 1
                and bulk(n) <= sys.float_info.max and _finite_power(full1, d)
                and _finite_power(float(max(n, 1)), d - 1)):
            raise out_of_range(n)
    # tail[n], n >= 0: the sum of 2**(-alpha * order) over orders > n in dd
    # dimensions; for n < 0 that sum is full1**d
    tail = [x ** (n + 1) * full1 for n in range(ns[-1] + 1)]
    for dd in range(2, d + 1):
        tail = [math.fsum(x**a * tail[n - a] for a in range(n + 1)) + x ** (n + 1) * full1**dd
                for n in range(len(tail))]
    rows = []
    for n in ns:
        denom = float(max(n, 1)) ** (d - 1)
        ratio_tail = (tail[n] if n >= 0 else full1**d) / (denom * x**n)
        if not math.isfinite(ratio_tail):
            raise out_of_range(n)
        rows.append((n, ratio_tail, bulk(n) / (denom * math.ldexp(1.0, n))))
    return rows


def _finite_power(base: float, exponent: int) -> bool:
    """Whether base**exponent is finite in binary64; Python raises OverflowError past it."""
    try:
        base**exponent
    except OverflowError:
        return False
    return True


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
    max_level = _check_int("max_level", max_level)
    if max_level < 2:
        raise ValueError("need max_level >= 2")
    capped_node_count(max_level, 1)  # the profiles analyze at budget max_level
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

    Reference envelope ``2**-n * max(n,1)**(d-1)``, the
    :func:`reference_envelope` of p = q = 1.  Requires a handle
    that ships its exact integral.
    """
    if f.exact_integral is None:
        raise ValueError(f"{f.label!r} has no exact integral; cubature needs one")
    d = f.dim
    rows = []
    for n, m, series in _analyses(f, _check_range(n_range)):
        err = abs(f.exact_integral - integrate(series))
        rows.append(
            CubatureRecord(
                n=n,
                m=m,
                abs_error=err,
                reference=reference_envelope(n, 1.0, 1.0, d),
            )
        )
    return rows
