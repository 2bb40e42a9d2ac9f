"""Sequence-space norms over hierarchical coefficients.

The norm with parameters (r, p, q) is the l_q aggregate over levels of
``2**(order(j) * (r - 1/p)) * (sum_k |c_{j,k}|**p)**(1/p)``, with the
supremum for q = inf.  Computed on a truncated series it uses exactly
the stored levels, so reported values are lower bounds of the full norm
and never decrease when the budget grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import _as_level, _reduction_blocks
from .faber import FaberSeries, FunctionHandle, analyze

__all__ = ["NormParams", "level_lp", "seq_norm", "series_profile", "decay_profile"]


@dataclass(frozen=True)
class NormParams:
    """Smoothness r, inner exponent p in [1, inf), outer exponent q in (0, inf]."""

    r: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError("r must be finite")
        _check_p(self.p)
        if not self.q > 0.0:
            raise ValueError("q must be positive (math.inf allowed)")


def _check_p(p: float) -> None:
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("p must satisfy 1 <= p < inf")


def level_lp(series: FaberSeries, j, p: float) -> float:
    """l_p norm of the coefficients of one stored level."""
    _check_p(p)
    arr = np.abs(series.array(_as_level(j)))
    top = float(arr.max(initial=0.0))
    if top == 0.0:
        return 0.0
    # scale by the maximum so large p cannot overflow
    return top * float(np.sum((arr / top) ** p)) ** (1.0 / p)


def _level_lps(series: FaberSeries, p: float) -> list[tuple[int, float]]:
    """(truncation order, level_lp) of every stored level in series order.

    Levels of one size are reduced together, row by row: the maximum
    ``top``, the sum of ``(|c| / top)**p``, then ``top * sum**(1/p)`` in
    Python floats, so every value is bit-identical to level_lp's.  The
    power is taken in place, so one block's ``|c|`` is the only temporary
    of its size: 4.01 B per coefficient at (n, d) = (17, 1) (tracemalloc).
    """
    _check_p(p)
    orders = series._layout.orders
    tops = np.empty(len(orders))
    sums = np.empty(len(orders))
    for levels, index in _reduction_blocks(series.budget, series.dim):
        scaled = np.abs(series.coeffs[index])
        top = scaled.max(axis=1)
        # an all-zero level divides by 1 and gets 0.0 below, as in level_lp
        scaled /= np.where(top == 0.0, 1.0, top)[:, None]
        scaled **= p  # in place: |c| is the one temporary of a block's size
        tops[levels] = top
        sums[levels] = scaled.sum(axis=1)
        del scaled  # before the next block's is taken
    # Python's ** per level: np.power on the array differs in the last bit (AVX-512, numpy 2.4.6)
    return [
        (order, top * total ** (1.0 / p) if top != 0.0 else 0.0)
        for order, top, total in zip(orders.tolist(), tops.tolist(), sums.tolist())
    ]


def seq_norm(series: FaberSeries, params: NormParams) -> float:
    """Weighted l_q-over-levels norm of a truncated series; ValueError if a
    weighted level norm leaves binary64.  A zero level adds 0 at any weight."""
    exponent = params.r - 1.0 / params.p
    terms = []
    for order, lp in _level_lps(series, params.p):
        try:
            terms.append(lp and 2.0 ** (order * exponent) * lp)
        except OverflowError:
            terms.append(math.inf)
    top = max(terms, default=0.0)
    if math.isinf(top):
        raise ValueError(f"r={params.r!r} takes a weighted level norm out of binary64")
    if math.isinf(params.q) or top == 0.0:
        return top
    return top * math.fsum((t / top) ** params.q for t in terms) ** (1.0 / params.q)


def series_profile(series: FaberSeries, p: float) -> list[tuple[int, float]]:
    """Per truncation order, the maximum level_lp over levels of that order."""
    best = [0.0] * (series.budget + 1)
    for order, value in _level_lps(series, p):
        if value > best[order]:
            best[order] = value
    return list(enumerate(best))


def decay_profile(f: FunctionHandle, p: float, n: int) -> list[tuple[int, float]]:
    """Empirical coefficient-decay profile of f up to truncation order n.

    A flat-or-decaying profile is the observable signature of the
    level-wise coefficient bound; the probe is one-sided (boundedness),
    the converse direction is not measurable from finitely many levels.
    """
    if n < 2:
        raise ValueError("profile needs budget n >= 2")
    return series_profile(analyze(f, n), p)
