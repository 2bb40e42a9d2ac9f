"""L_q norms of functions on [0,1]^d, with error estimates.

Three methods:

* composite Gauss (d <= 3): a tensor Gauss-Legendre rule of fixed order
  per cell of the uniform dyadic mesh of a given level per axis.  The
  reported error estimate is the difference against the rule one mesh
  level finer; it is a heuristic dominated by the |.|^q kinks at sign
  changes of the integrand inside cells.
* stratified Monte Carlo: one uniform draw per cell of the dyadic mesh
  of level floor(log2(N)/d) plus uniform remainder samples; the
  uncertainty is the standard error propagated through the q-th root.
* sup over the full grid of a given level (the only q = inf method);
  this is a lower bound of the true sup and reported with estimate 0.

Tensor grids are enumerated in chunks of ``_CHUNK`` points and the
per-chunk partial sums are combined with exact accumulation.  The chunk
size fixes the summation order inside each chunk, so results depend on
it at the level of rounding (the sup grid not at all); with the fixed
size they are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dyadic import MAX_LEVEL, MAX_POINTS, _as_level
from .faber import FaberSeries, FunctionHandle, _cube_points, _evaluate_many, evaluate_batch

__all__ = [
    "CompositeGauss",
    "StratifiedMC",
    "SupGrid",
    "MeasureSpec",
    "lq_norm",
    "lq_error",
    "block_lq_exact",
    "default_spec",
    "DEFAULT_GAUSS_ORDER",
    "MAX_GAUSS_ORDER",
    "DEFAULT_MC_SAMPLES",
]

DEFAULT_GAUSS_ORDER = 5
#: numpy's ``leggauss`` is tested up to degree 100; its matrix grows as order**2.
MAX_GAUSS_ORDER = 100
DEFAULT_MC_SAMPLES = 200_000

_CHUNK = 1 << 16


@dataclass(frozen=True)
class CompositeGauss:
    level: int
    order: int = DEFAULT_GAUSS_ORDER

    def __post_init__(self) -> None:
        if not 2 <= self.order <= MAX_GAUSS_ORDER:
            raise ValueError(f"Gauss order {self.order} outside 2..{MAX_GAUSS_ORDER}")
        if self.level < 1:
            raise ValueError("mesh level must be >= 1")
        if self.level > MAX_LEVEL:
            raise ValueError(f"mesh level {self.level} exceeds MAX_LEVEL={MAX_LEVEL}")


@dataclass(frozen=True)
class StratifiedMC:
    samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1000:
            raise ValueError("need at least 10^3 samples")
        if self.samples > MAX_POINTS:
            raise ValueError(f"{self.samples} Monte Carlo samples exceed the cap {MAX_POINTS}")


@dataclass(frozen=True)
class SupGrid:
    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("grid level must be >= 1")
        if self.level > MAX_LEVEL:
            raise ValueError(f"grid level {self.level} exceeds MAX_LEVEL={MAX_LEVEL}")


Method = Union[CompositeGauss, StratifiedMC, SupGrid]


@dataclass(frozen=True)
class MeasureSpec:
    """Norm exponent q (math.inf allowed) plus the evaluation method."""

    q: float
    method: Method

    def __post_init__(self) -> None:
        if not self.q >= 1.0:
            raise ValueError(f"q = {self.q} not supported; need q >= 1")
        if math.isinf(self.q) and not isinstance(self.method, SupGrid):
            raise ValueError("q = inf is handled by the sup_grid method only")
        if not math.isinf(self.q) and isinstance(self.method, SupGrid):
            raise ValueError("sup_grid measures q = inf only")


def default_spec(q: float, n: int, d: int, seed: int = 0) -> MeasureSpec:
    """Default measurement for budget n in dimension d.

    Composite Gauss on the mesh of level n + 2 where the cell count is
    affordable (it resolves every crease of the truncated interpolant up
    to the |.|^q kinks), stratified Monte Carlo otherwise.
    """
    level = max(n + 2, 1)
    if math.isinf(q):
        return MeasureSpec(q, SupGrid(level=level))
    if d <= 3 and _composite_points(level, DEFAULT_GAUSS_ORDER, d) <= MAX_POINTS:
        return MeasureSpec(q, CompositeGauss(level=level))
    return MeasureSpec(q, StratifiedMC(samples=DEFAULT_MC_SAMPLES, seed=seed))


def _composite_points(level: int, order: int, d: int) -> int:
    """Points of a composite measurement: the mesh of ``level`` and the next finer one."""
    return ((1 << level) * order) ** d * (1 + 2**d)


def _grid_chunks(shape: tuple[int, ...]):
    """Per-axis index arrays of the C-ordered tensor grid, _CHUNK points at a time."""
    total = math.prod(shape)
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield np.unravel_index(flat, shape)


def _power_sum(partials: list[float], lost: bool, q: float) -> float:
    """Exact sum of per-chunk sums of powers of |g|; ValueError if it
    overflows, or if it is 0 and ``lost`` (g was nonzero in a chunk of sum 0)."""
    if not math.isfinite(sum(partials)):
        raise ValueError(f"q={q!r} takes |g|^q out of binary64: a sum overflows")
    total = math.fsum(partials)
    if total == 0.0 and lost:
        raise ValueError(f"q={q!r} takes |g|^q out of binary64: a sum underflows to 0")
    return total


def _tensor_reduce(axis_pts, axis_wts, g: FunctionHandle, q: float) -> float:
    """Sum of w * |g|^q over the tensor grid, chunked; fails like :func:`_power_sum`."""
    partials = []
    lost = False
    for multi in _grid_chunks(tuple(len(a) for a in axis_pts)):
        X = np.stack([pts[i] for pts, i in zip(axis_pts, multi)], axis=1)
        w = np.ones(len(X))
        for wts, i in zip(axis_wts, multi):
            w *= wts[i]
        vals = g.eval_batch(X)
        partials.append(float(np.sum(w * np.abs(vals) ** q)))
        lost = lost or (partials[-1] == 0.0 and bool(np.any(vals)))
    return _power_sum(partials, lost, q)


def _composite_value(g: FunctionHandle, q: float, order: int, level: int) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    d = g.dim
    cells = 1 << level
    h = math.ldexp(1.0, -level)
    starts = np.arange(cells, dtype=np.float64) * h
    pts = (starts[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)).reshape(-1)
    wts = np.tile(weights * (h / 2.0), cells)
    total = _tensor_reduce([pts] * d, [wts] * d, g, q)
    return max(total, 0.0) ** (1.0 / q)


def _composite(g: FunctionHandle, q: float, m: CompositeGauss) -> tuple[float, float]:
    d = g.dim
    if d > 3:
        raise ValueError("composite Gauss supports d <= 3; use stratified_mc")
    if _composite_points(m.level, m.order, d) > MAX_POINTS:
        raise ValueError(
            f"composite mesh level {m.level} in d={d} exceeds the cell budget; "
            "use stratified_mc instead"
        )
    value = _composite_value(g, q, m.order, m.level)
    refined = _composite_value(g, q, m.order, m.level + 1)
    return value, abs(value - refined)


def _stratified(g: FunctionHandle, q: float, m: StratifiedMC) -> tuple[float, float]:
    d = g.dim
    n_total = m.samples
    level = int(math.log2(n_total)) // d
    strata = 1 << (level * d)
    rng = np.random.default_rng(m.seed)

    sums = []
    sqsums = []
    lost = False

    def accumulate(X: np.ndarray) -> None:
        nonlocal lost
        g_vals = g.eval_batch(X)
        vals = np.abs(g_vals) ** q
        sums.append(float(np.sum(vals)))
        sqsums.append(float(np.sum(vals * vals)))
        lost = lost or (sums[-1] == 0.0 and bool(np.any(g_vals)))

    h = math.ldexp(1.0, -level)
    for multi in _grid_chunks((1 << level,) * d):
        corners = np.stack(multi, axis=1).astype(np.float64)
        accumulate((corners + rng.random(corners.shape)) * h)
    remainder = n_total - strata
    for start in range(0, remainder, _CHUNK):
        stop = min(start + _CHUNK, remainder)
        accumulate(rng.random((stop - start, d)))

    total = _power_sum(sums, lost, q)
    mean = total / n_total
    var = max(_power_sum(sqsums, total > 0.0, q) / n_total - mean * mean, 0.0)
    se = math.sqrt(var / n_total)
    if mean <= 0.0:
        return 0.0, se ** (1.0 / q)
    value = mean ** (1.0 / q)
    return value, se * value / (q * mean)


def _sup_grid(g: FunctionHandle, m: SupGrid) -> tuple[float, float]:
    d = g.dim
    side = (1 << m.level) + 1
    if side**d > MAX_POINTS:
        raise ValueError(f"sup grid level {m.level} in d={d} exceeds the cell budget")
    axis = np.ldexp(np.arange(side, dtype=np.float64), -m.level)
    best = 0.0
    for multi in _grid_chunks((side,) * d):
        X = np.stack([axis[i] for i in multi], axis=1)
        best = max(best, float(np.max(np.abs(g.eval_batch(X)))))
    return best, 0.0


def lq_norm(g: FunctionHandle, spec: MeasureSpec) -> tuple[float, float]:
    """(value, error_estimate) of g's norm per the spec; ValueError if |g|^q leaves binary64."""
    m = spec.method
    with np.errstate(over="ignore"):  # an overflow raises ValueError instead
        if isinstance(m, CompositeGauss):
            return _composite(g, spec.q, m)
        if isinstance(m, StratifiedMC):
            return _stratified(g, spec.q, m)
    if isinstance(m, SupGrid):
        return _sup_grid(g, m)
    raise TypeError(f"unknown method {m!r}")


def lq_error(
    f: FunctionHandle, series: FaberSeries, spec: MeasureSpec
) -> tuple[float, float]:
    """Norm of the recovery defect f - (truncated expansion).

    When f was made by ``synthesize``, f's series and ``series`` are
    evaluated in one ``_evaluate_many`` pass per batch of points, and f's
    values go through the checks and the count of ``f.eval_batch``; the
    values are byte-equal to the two separate calls that any other handle
    takes.
    """
    if f.dim != series.dim:
        raise ValueError("dimension mismatch between handle and series")
    own = f._series
    if own is None:
        def evaluator(X):
            return f.eval_batch(X) - evaluate_batch(series, X)
    else:
        def evaluator(X):
            values, approx = f._checked(
                X, lambda Y: _evaluate_many((own, series), _cube_points(Y, own.dim))
            )
            return values - approx
    defect = FunctionHandle(evaluator, f.dim, label=f"{f.label}-defect(n={series.budget})")
    return lq_norm(defect, spec)


def block_lq_exact(j, coeffs, q: float) -> float:
    """Exact L_q norm of a single interior level, by disjoint supports.

    Valid only when all level entries are >= 0: the hats of one interior
    level have disjoint interiors and each contributes
    |c|^q * 2**-order / (q+1)**d.
    """
    j = _as_level(j)
    if any(e < 0 for e in j.entries):
        raise ValueError("block norm needs all level entries >= 0 (disjoint supports)")
    c = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    if c.size != j.translation_count():
        raise ValueError("coefficient count does not match the level")
    if math.isinf(q):
        return float(np.max(np.abs(c), initial=0.0))
    if q < 1.0:
        raise ValueError("q < 1 not supported")
    mass = float(np.sum(np.abs(c) ** q))
    scale = math.ldexp(1.0, -j.order) / (q + 1.0) ** j.dim
    return (mass * scale) ** (1.0 / q)
