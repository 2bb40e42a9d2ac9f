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

Every method takes its points from ``_batches``, the one loop over a row
range: batches of ``_CHUNK`` rows, streamed to f in pieces of at most
``dyadic._ROWS`` rows that the tensor grids and the Monte Carlo strata
unravel in C order and the Monte Carlo remainder draws by row count.
``_power_sums`` gathers a batch's |g| in one array and adds the per-batch
sums exactly.  The batch size fixes the summation order inside each batch,
so results depend on it at the level of rounding (the sup grid not at all);
with the fixed size they are deterministic.  The pieces change no value: a
black-box f gets the same points in the same order and count (when every
value is finite), in calls of at most ``dyadic._ROWS`` points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dyadic import _ROWS, MAX_LEVEL, MAX_POINTS, _as_level, _check_int, _check_real
from .faber import FaberSeries, FunctionHandle, _defect

__all__ = [
    "CompositeGauss",
    "StratifiedMC",
    "SupGrid",
    "MeasureSpec",
    "lq_norm",
    "lq_error",
    "block_lq_exact",
    "default_spec",
]

DEFAULT_GAUSS_ORDER = 5
#: numpy's ``leggauss`` is tested up to degree 100; its matrix grows as order**2.
MAX_GAUSS_ORDER = 100
DEFAULT_MC_SAMPLES = 200_000

#: Points per measurement batch.  It fixes the summation order of every
#: measured value, so it is a numerical convention, not a memory bound.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class CompositeGauss:
    level: int
    order: int = DEFAULT_GAUSS_ORDER

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _check_int("Gauss order", self.order))
        object.__setattr__(self, "level", _check_int("mesh level", self.level, 1))
        if not 2 <= self.order <= MAX_GAUSS_ORDER:
            raise ValueError(f"Gauss order {self.order} outside 2..{MAX_GAUSS_ORDER}")
        if self.level > MAX_LEVEL:
            raise ValueError(f"mesh level {self.level} exceeds MAX_LEVEL={MAX_LEVEL}")


@dataclass(frozen=True)
class StratifiedMC:
    samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _check_int("Monte Carlo samples", self.samples, 1000))
        object.__setattr__(self, "seed", _check_int("Monte Carlo seed", self.seed, 0))
        if self.samples > MAX_POINTS:
            raise ValueError(f"{self.samples} Monte Carlo samples exceed the cap {MAX_POINTS}")


@dataclass(frozen=True)
class SupGrid:
    level: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", _check_int("grid level", self.level, 1))
        if self.level > MAX_LEVEL:
            raise ValueError(f"grid level {self.level} exceeds MAX_LEVEL={MAX_LEVEL}")


Method = Union[CompositeGauss, StratifiedMC, SupGrid]


@dataclass(frozen=True)
class MeasureSpec:
    """Norm exponent q (math.inf allowed) plus the evaluation method."""

    q: float
    method: Method

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise ValueError(f"unknown measure method {self.method!r}")
        object.__setattr__(self, "q", _check_real("q", self.q, 1, inf=True))
        if math.isinf(self.q) != isinstance(self.method, SupGrid):
            raise ValueError("sup_grid measures q = inf only" if isinstance(self.method, SupGrid)
                             else "q = inf is handled by the sup_grid method only")


def default_spec(q: float, n: int, d: int, seed: int = 0) -> MeasureSpec:
    """Default measurement for budget n in dimension d.

    Composite Gauss on the mesh of level n + 2 (:func:`_default_level`)
    where :func:`_cap_error` lets it measure, stratified Monte Carlo otherwise.
    """
    q, level = _check_real("q", q, 1, inf=True), _default_level(_check_int("budget", n))
    d = _check_int("dimension", d, 1)
    if math.isinf(q):
        return MeasureSpec(q, SupGrid(level=level))
    if level <= MAX_LEVEL and not _cap_error(CompositeGauss(level=level), d):
        return MeasureSpec(q, CompositeGauss(level=level))
    return MeasureSpec(q, StratifiedMC(samples=DEFAULT_MC_SAMPLES, seed=seed))


def _default_level(n: int) -> int:
    """The mesh level n + 2 for budget n: it resolves every crease of the
    truncated interpolant up to the |.|^q kinks."""
    return max(n + 2, 1)


def _cap_error(m: Method, d: int) -> str:
    """Why m cannot measure in d dimensions, or "": composite Gauss needs d <= 3 and its
    mesh pair's ((2^L G)^d)(1 + 2^d) points, the sup grid its (2^L + 1)^d, <= MAX_POINTS."""
    if isinstance(m, CompositeGauss):
        if d > 3:
            return "composite Gauss supports d <= 3; use stratified_mc"
        if ((1 << m.level) * m.order) ** d * (1 + 2**d) > MAX_POINTS:
            return (f"composite mesh level {m.level} in d={d} exceeds the cell budget; "
                    "use stratified_mc instead")
    if isinstance(m, SupGrid) and ((1 << m.level) + 1) ** d > MAX_POINTS:
        return f"sup grid level {m.level} in d={d} exceeds the cell budget"
    return ""


def _batches(total, piece):
    """Per _CHUNK rows of the range 0..total: the batch size and a generator of
    ``piece(start, stop)`` over its rows in order, at most ``dyadic._ROWS`` rows a
    call, that keeps no reference to what it yields.  A piece is ``(X, w)``: the
    points and their weights (None without)."""

    def pieces(start, stop):
        for row in range(start, stop, _ROWS):
            yield piece(row, min(row + _ROWS, stop))

    for start in range(0, total, _CHUNK):
        yield min(_CHUNK, total - start), pieces(start, min(start + _CHUNK, total))


def _tensor_batches(axes, weights=None):
    """:func:`_batches` over the C-ordered tensor grid of the arrays ``axes``: a
    piece is its rows' points and the product of the per-axis ``weights`` at
    them (None without), its unravelled indices dropped when it is returned.
    """
    shape = tuple(len(a) for a in axes)

    def piece(start, stop):
        multi = np.unravel_index(np.arange(start, stop), shape)
        X = np.stack([a[i] for a, i in zip(axes, multi)], axis=1)
        return X, None if weights is None else math.prod(w[i] for w, i in zip(weights, multi))

    return _batches(math.prod(shape), piece)


def _power_sums(g: FunctionHandle, batches, q: float, moments: bool = False) -> list[float]:
    """Exact (``math.fsum``) totals over batches of w * |g(X)|^q (w = 1 when None)
    and, with ``moments``, of |g(X)|^2q; ValueError if a total overflows, or is 0
    although g was nonzero in a batch of sum 0 (|g|^2q: the first is > 0).

    A batch is its size and its pieces ``(X, w)``, as :func:`_batches` yields
    them.  Per batch one array is held, of its size: |g| of each piece
    goes into its rows (g's own values are never written), and the power and
    the weight product are taken in place there, then the square of the whole
    batch, with the bytes of ``np.abs(v) ** q``, ``w * powers`` and ``powers *
    powers``: the square is of w * |g|^q, so a weighted batch with ``moments``
    is a ValueError.  So each batch's sums run over the bytes they would
    without pieces, and a piece's points and values are freed before the next
    is drawn.
    """
    sums, squares = [], []
    lost = False
    for size, pieces in batches:
        powers = np.empty(size)
        nonzero = False
        stop = 0
        for X, w in pieces:
            rows = powers[stop : stop + len(X)]
            stop += len(X)
            np.abs(g.eval_batch(X), out=rows)
            del X  # before the next piece is drawn: a lower peak
            nonzero = nonzero or bool(np.any(rows))
            rows **= q
            if w is not None:
                if moments:
                    raise ValueError("moments need unweighted batches")
                rows *= w
            del w, rows
        sums.append(float(np.sum(powers)))
        lost = lost or (sums[-1] == 0.0 and nonzero)
        if moments:
            powers *= powers
            squares.append(float(np.sum(powers)))
        del powers
    totals = []
    for partials in (sums, squares)[: 1 + moments]:
        if not math.isfinite(sum(partials)):
            raise ValueError(f"q={q!r} takes |g|^q out of binary64: a sum overflows")
        totals.append(math.fsum(partials))
        if totals[-1] == 0.0 and lost:
            raise ValueError(f"q={q!r} takes |g|^q out of binary64: a sum underflows to 0")
        lost = totals[0] > 0.0
    return totals


def _composite_value(g: FunctionHandle, q: float, order: int, level: int) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    d = g.dim
    cells = 1 << level
    h = math.ldexp(1.0, -level)
    starts = np.arange(cells, dtype=np.float64) * h
    pts = (starts[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)).reshape(-1)
    wts = np.tile(weights * (h / 2.0), cells)
    (total,) = _power_sums(g, _tensor_batches([pts] * d, [wts] * d), q)
    return max(total, 0.0) ** (1.0 / q)


def _composite(g: FunctionHandle, q: float, m: CompositeGauss) -> tuple[float, float]:
    value = _composite_value(g, q, m.order, m.level)
    refined = _composite_value(g, q, m.order, m.level + 1)
    return value, abs(value - refined)


def _stratified(g: FunctionHandle, q: float, m: StratifiedMC) -> tuple[float, float]:
    d = g.dim
    n_total = m.samples
    level = int(math.log2(n_total)) // d
    shape = (1 << level,) * d
    rng = np.random.default_rng(m.seed)
    h = math.ldexp(1.0, -level)

    def stratum(start, stop):  # one point per stratum, drawn from its corner
        corners = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1, dtype=float)
        drawn = rng.random((stop - start, d))
        drawn += corners  # the bytes of (corners + drawn) * h
        drawn *= h
        return drawn, None

    def uniform(start, stop):  # a remainder piece, drawn by row count
        return rng.random((stop - start, d)), None

    strata = math.prod(shape)
    draws = itertools.chain(_batches(strata, stratum), _batches(n_total - strata, uniform))
    total, squares = _power_sums(g, draws, q, moments=True)
    mean = total / n_total
    var = max(squares / n_total - mean * mean, 0.0)
    se = math.sqrt(var / n_total)
    if mean <= 0.0:
        return 0.0, se ** (1.0 / q)
    value = mean ** (1.0 / q)
    return value, se * value / (q * mean)


def _sup_grid(g: FunctionHandle, m: SupGrid) -> tuple[float, float]:
    axis = np.ldexp(np.arange((1 << m.level) + 1, dtype=np.float64), -m.level)
    best = 0.0
    for _, pieces in _tensor_batches([axis] * g.dim):
        for X, _ in pieces:
            best = max(best, float(np.max(np.abs(g.eval_batch(X)))))
    return best, 0.0


def lq_norm(g: FunctionHandle, spec: MeasureSpec) -> tuple[float, float]:
    """(value, error_estimate) of g's norm per the spec; ValueError if |g|^q leaves binary64."""
    m = spec.method
    if error := _cap_error(m, g.dim):
        raise ValueError(error)
    with np.errstate(over="ignore"):  # an overflow raises ValueError instead
        if isinstance(m, CompositeGauss):
            return _composite(g, spec.q, m)
        if isinstance(m, StratifiedMC):
            return _stratified(g, spec.q, m)
    return _sup_grid(g, m)


def lq_error(f: FunctionHandle, series: FaberSeries, spec: MeasureSpec) -> tuple[float, float]:
    """Norm of the recovery defect f - (truncated expansion), built by ``faber._defect``.

    The measurement holds 8 B per point of its largest batch (its |g|^q),
    plus one piece's arrays, at most 8 (d + 3) B per row of ``dyadic._ROWS``
    (the points, the weight product and, for a synthesized f, both series'
    values), plus ``faber._evaluate_many``'s working set for one piece.
    """
    return lq_norm(_defect(f, series), spec)


def block_lq_exact(j, coeffs, q: float) -> float:
    """Exact L_q norm of a single interior level, by disjoint supports.

    Valid only when all level entries are >= 0: the hats of one interior
    level have disjoint interiors and each contributes
    |c|^q * 2**-order / (q+1)**d.  When the sum of |c|^q overflows, it is
    taken of (|c| / max |c|)^q instead, as seqnorm.level_lp does; a finite
    sum is used as it is.
    """
    j = _as_level(j)
    if any(e < 0 for e in j.entries):
        raise ValueError("block norm needs all level entries >= 0 (disjoint supports)")
    c = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    if c.size != j.translation_count():
        raise ValueError("coefficient count does not match the level")
    q = _check_real("q", q, 1, inf=True)
    a = np.abs(c)
    top = float(np.max(a))
    if math.isinf(q):
        return top
    with np.errstate(over="ignore"):  # an overflow is redone below
        mass = float(np.sum(a**q))
    scale = math.ldexp(1.0, -j.order) / (q + 1.0) ** j.dim
    if math.isinf(mass) and math.isfinite(top):  # scale by the maximum, as seqnorm.level_lp does
        return top * (float(np.sum((a / top) ** q)) * scale) ** (1.0 / q)
    return (mass * scale) ** (1.0 / q)
