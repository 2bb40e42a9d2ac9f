"""Analysis and synthesis in the tensor hierarchical hat basis.

The univariate system on [0,1] consists of the two boundary functions
``1 - x`` (translation 0) and ``x`` (translation 1) at level -1 and, per
level j >= 0, the 2**j interior hats ``v(2**j x - k)`` where v is the
sup-normalized tent (``v(t) = 2t`` on [0, 1/2], ``2 - 2t`` on [1/2, 1],
0 outside).  Tensor products over axes give the d-variate system.

The coefficient of a continuous f at (j, k) is a mixed second difference
at the dyadic node x_{j,k}: along each active axis the weights
(+1, -2, +1) at step 2**-(j_i+1) and a factor -1/2, along each boundary
axis plain point evaluation.  In one variable that is the hierarchical
surplus ``f(mid) - (f(left) + f(right)) / 2``.  Truncating the expansion
at truncation order n yields the sparse-grid interpolant; a
:class:`FaberSeries` stores its data.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .dyadic import (
    _ROWS,
    LevelVector,
    _as_level,
    _check_int,
    _check_translation,
    _flat_index,
    _hierarchy,
    _levels,
    _reduction_blocks,
    capped_node_count,
)

__all__ = [
    "EvaluationError",
    "FunctionHandle",
    "FaberSeries",
    "analyze",
    "synthesize",
    "evaluate_batch",
    "integrate",
    "series_to_text",
    "series_from_text",
    "series_to_json",
    "series_from_json",
]


class EvaluationError(ValueError):
    """A function handle produced a non-finite value; carries the point."""

    def __init__(self, label: str, point: tuple[float, ...], value: float):
        self.point = point
        self.value = value
        super().__init__(f"{label!r} returned non-finite value {value!r} at {point}")


class FunctionHandle:
    """Deterministic black box f: [0,1]^d -> R with an evaluation counter.

    Parameters
    ----------
    evaluator : callable
        Maps an (N, dim) float64 array to an (N,) array.  Must be
        deterministic: evaluating the same point twice is bit-identical.
    dim : int
        Domain dimension d.
    label : str
        Free text used in error messages and summaries.
    exact_integral, exact_l2 : float, optional
        Closed-form reference values, when the function ships them.
    """

    __slots__ = ("label", "dim", "exact_integral", "exact_l2", "_evaluator", "_count", "_series")

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray],
        dim: int,
        label: str = "f",
        exact_integral: float | None = None,
        exact_l2: float | None = None,
    ):
        dim = _check_int("dimension", dim)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self._evaluator = evaluator
        self.dim = dim
        self.label = label
        self.exact_integral = exact_integral
        self.exact_l2 = exact_l2
        self._count = 0
        self._series = None  # the series a synthesized handle evaluates

    @property
    def eval_count(self) -> int:
        """Total number of point evaluations requested so far."""
        return self._count

    def eval_batch(self, points) -> np.ndarray:
        X = self._counted(points)
        return self._valid(X, self._evaluator(X))

    def _counted(self, points) -> np.ndarray:
        """The points of :func:`_points`, counted as N evaluations."""
        X = _points(points, self.dim)
        self._count += X.shape[0]
        return X

    def _valid(self, X: np.ndarray, vals) -> np.ndarray:
        """f's values at the points X as float64, checked for dtype, shape and finiteness."""
        vals = np.asarray(vals)
        if np.iscomplexobj(vals):
            raise ValueError(f"evaluator of {self.label!r} returned complex values")
        vals = vals.astype(np.float64, copy=False)
        if vals.shape != (X.shape[0],):
            raise ValueError(f"evaluator of {self.label!r} returned shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise EvaluationError(self.label, tuple(X[bad]), float(vals[bad]))
        return vals

    def __call__(self, x) -> float:
        """f at one point, given as d coordinates or a (1, d) array."""
        X = np.atleast_2d(x)
        if X.shape != (1, self.dim):
            raise ValueError(f"expected one point of {self.dim} coordinates, got shape {X.shape}")
        return float(self.eval_batch(X)[0])

    def __repr__(self) -> str:
        return f"FunctionHandle({self.label!r}, dim={self.dim}, evals={self._count})"


class FaberSeries:
    """Coefficients of a truncated expansion: one flat vector in series order.

    ``coeffs`` holds one read-only float64 entry per coefficient of
    truncation order <= budget, in the order of ``node_set(budget, dim)``:
    levels in the order of :func:`levels_up_to`, the translations of a
    level in lexicographic order.  :meth:`items` and :meth:`array` are
    per-level views into it.  Instances are immutable and safe to share.
    The constructor copies ``coeffs``; the package's own makers
    (:func:`analyze`, the readers, :meth:`zeros`, the testbed) hand over
    the array they own, and its layout, through :meth:`_adopt`.
    """

    __slots__ = ("budget", "dim", "coeffs", "_layout")

    def __new__(cls, budget: int, dim: int, coeffs):
        layout = _levels(budget, dim)
        return cls._adopt(budget, dim, np.array(coeffs, dtype=np.float64), layout)

    @classmethod
    def _adopt(cls, budget: int, dim: int, flat: np.ndarray, layout) -> "FaberSeries":
        """The series of ``flat``, a float64 array its caller owns and no longer
        writes, in ``layout`` = ``_levels(budget, dim)``: its shape and values
        checked, made read-only and kept, not copied."""
        if flat.shape != (layout.size,):
            raise ValueError(
                f"budget {budget} in d={dim} expects {layout.size} coefficients,"
                f" got shape {flat.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            j = layout.entries[np.searchsorted(layout.starts, bad[0], side="right") - 1]
            raise ValueError(f"non-finite coefficient at level {tuple(j.tolist())}")
        flat.setflags(write=False)
        series = object.__new__(cls)
        object.__setattr__(series, "budget", int(budget))
        object.__setattr__(series, "dim", int(dim))
        object.__setattr__(series, "coeffs", flat)
        object.__setattr__(series, "_layout", layout)
        return series

    @classmethod
    def zeros(cls, budget: int, dim: int) -> "FaberSeries":
        layout = _levels(budget, dim)
        return cls._adopt(budget, dim, np.zeros(layout.size), layout)

    def __setattr__(self, name, value):
        raise AttributeError("FaberSeries is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the public constructor
        return FaberSeries, (self.budget, self.dim, self.coeffs)

    def levels(self) -> tuple[LevelVector, ...]:
        return tuple(LevelVector(row) for row in self._layout.entries.tolist())

    def items(self) -> Iterator[tuple[LevelVector, np.ndarray]]:
        return zip(self.levels(), np.split(self.coeffs, self._layout.starts[1:-1]))

    def array(self, j) -> np.ndarray:
        """Read-only flat coefficient array of level j (translation order).

        Every level of this dim and order <= budget is stored, found by its key.
        """
        j = _as_level(j)
        if j.dim != self.dim or j.order > self.budget:
            raise ValueError(f"level {j.entries} not stored (budget {self.budget})")
        layout = self._layout
        i = layout.keys.searchsorted(np.add(j.entries, 1) @ layout.radix)
        return self.coeffs[layout.starts[i] : layout.starts[i + 1]]

    def get(self, j, k) -> float:
        j = _as_level(j)
        k = tuple(_check_int("translation", v) for v in k)
        _check_translation(j, k)
        return float(self.array(j)[_flat_index(k, j.translation_shape())])

    @property
    def size(self) -> int:
        return self.coeffs.size

    def _check_shape(self, other: "FaberSeries") -> None:
        if (self.budget, self.dim) != (other.budget, other.dim):
            raise ValueError("series shapes differ")

    def max_abs_diff(self, other: "FaberSeries") -> float:
        self._check_shape(other)
        return float(np.max(np.abs(self.coeffs - other.coeffs)))

    def __repr__(self) -> str:
        return f"FaberSeries(budget={self.budget}, dim={self.dim}, size={self.size})"


def analyze(f: FunctionHandle, n: int) -> FaberSeries:
    """Compute every coefficient of truncation order <= n from samples of f.

    Each coefficient (j, k) owns one node, the centre of its support, so
    the rows of ``node_set(n, d)``, d = f.dim, are the nodes of the
    flattened series.  f is evaluated once, in one batch, at those m(n, d)
    distinct nodes (a fresh handle counts exactly m(n, d) evaluations),
    then the nodal values are hierarchized, in a copy that analyze owns
    (f's own array is never written), with one (+1, -2, +1) / -2 sweep
    per axis, in place (Bungartz & Griebel, Sparse grids, Acta Numerica
    13, 2004, sec. 4).  The nodes and the sweeps' indices depend on (n, d)
    alone and are memoized by the rule stated at
    ``dyadic._PLAN_MEMO_SIZE``; samples never are, so every call evaluates
    f at all m nodes, handed to f as a fresh array.  The hierarchized copy
    becomes the series' array, not copied again.  Raises ValueError
    before sampling when m(n, d) exceeds MAX_POINTS.
    """
    points, sweeps = _hierarchy(n, f.dim)
    values = f.eval_batch(points.copy()).copy()
    for inner, left, right in sweeps:
        t = values[left]
        t -= 2.0 * values[inner]
        t += values[right]
        t *= -0.5
        values[inner] = t
    return FaberSeries._adopt(n, f.dim, values, _levels(n, f.dim))


def evaluate_batch(series: FaberSeries, points) -> np.ndarray:
    """Evaluate the truncated expansion at an (N, d) batch of points.

    :func:`_evaluate_many` on a walk plan of the one series, which checks
    the points.  Per level and point only the covering cell contributes per
    active axis (left-closed cell convention; values at cell interfaces
    agree by continuity) and both boundary functions contribute on level
    -1 axes.  Products multiply left to right over the axes and terms are
    added level by level, boundary choices in lexicographic order, so the
    summation order is that of a plain per-level loop and the result does
    not depend on the chunk size.
    """
    return _evaluate_many(_walk_plan((series,)), points)[0]


def _points(points, d: int) -> np.ndarray:
    """The points as a contiguous (N, d) float64 array; ValueError for a
    complex array, whose imaginary part a cast would drop, or another shape."""
    X = np.asarray(points)
    if np.iscomplexobj(X):
        raise ValueError(f"points must be real, got dtype {X.dtype}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"expected (N, {d}) points, got shape {X.shape}")
    return X


def _cube_points(points, d: int) -> np.ndarray:
    """The points of :func:`_points`; ValueError unless in [0,1]^d."""
    X = _points(points, d)
    if X.size and not (X.min() >= 0.0 and X.max() <= 1.0):  # NaN fails too
        outside = np.flatnonzero(~np.all((X >= 0.0) & (X <= 1.0), axis=1))
        raise ValueError(f"point {tuple(X[outside[0]].tolist())} outside [0,1]^d")
    return X


def _tent(t: np.ndarray, floor: np.ndarray) -> None:
    """``1 - |2 (t - floor(t)) - 1|`` in place of t, given ``floor(t)``.

    t - floor(t) differs from t - k, k the clamped cell, only at x = 1,
    where both give a tent of +0.0.
    """
    t -= floor
    t *= 2.0
    t -= 1.0
    np.abs(t, out=t)
    np.subtract(1.0, t, out=t)


def _choices(xi: np.ndarray, fine, e: int, n: int, cells, tent: np.ndarray) -> list:
    """Entry e's (translation, value) choices at the coordinates xi of one axis.

    A boundary entry (e < 0) gives ``(0, 1 - x)`` and ``(1, x)``, an interior
    one the single ``(fine >> (n - e), tent)``, where ``fine`` is the axis'
    cells at budget n (None for the last axis, whose translation comes from
    the lifted indices of :func:`_evaluate_many`).  The arrays are written
    into ``tent`` and, for an interior entry with ``fine``, ``cells``.
    """
    if e < 0:
        return [(0, np.subtract(1.0, xi, out=tent)), (1, xi)]
    t = np.multiply(xi, 2.0**e, out=tent)
    _tent(t, np.floor(t))
    return [(None if fine is None else np.right_shift(fine, n - e, out=cells), t)]


@dataclass(frozen=True, eq=False, slots=True)
class _Walk:
    """What an :func:`_evaluate_many` walk over series of one dim reads at every
    chunk; see :func:`_walk_plan`."""

    series: tuple  # the series it walks, one output each
    levels: list  # (entries, [(series index, block)]) per walked level, in order
    used: list  # per axis 1..d-1, the sorted entries the walked levels use
    floats: int  # rows of the float block
    ints: int  # rows of the int block
    blocks: list = field(default_factory=list)  # the float and int blocks, once made


def _walk_plan(many: tuple[FaberSeries, ...]) -> _Walk:
    """The walk of :func:`_evaluate_many` over ``many``, series of one dim.

    It holds views of the series' coefficient blocks, so it belongs to
    ``many``, and it keeps the float and int blocks of its walk's chunk
    arrays from call to call: a defect handle builds it once and walks it
    for every piece it is given, ``evaluate_batch`` builds one per call.
    """
    d = many[0].dim
    owners: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
    for at, s in enumerate(many):
        starts = s._layout.starts
        live = np.flatnonzero(np.logical_or.reduceat(s.coeffs != 0.0, starts[:-1]))
        for i, entries in zip(live.tolist(), s._layout.entries[live].tolist()):
            block = s.coeffs[starts[i] : starts[i + 1]]
            owners.setdefault(tuple(entries), []).append((at, block))
    levels = sorted(owners.items())
    used = [sorted({entries[axis] for entries, _ in levels}) for axis in range(1, d)]
    # one chunk's arrays are rows of a float and an int block: the coordinates
    # and cells at n, axis 0's tent and cells, each term's base, gathered
    # coefficients and index, and one row per table of the other axes
    lead_cells = sum(e >= 0 for entries in used[:-1] for e in entries)
    return _Walk(
        series=many,
        levels=levels,
        used=used,
        floats=d + 3 + sum(map(len, used)),
        ints=d + 2 + lead_cells,
    )


def _evaluate_many(plan: _Walk, points) -> list[np.ndarray]:
    """The values of the series of ``plan``, a :func:`_walk_plan`, at (N, d) points, in one walk.

    The points go through :func:`_cube_points` first, so a point outside
    [0,1]^d raises ValueError before any value is computed.  Returns one
    array per series, each byte-equal to ``evaluate_batch`` of that series
    alone.  The union of the series' levels with a nonzero block is walked
    in lexicographic order, which is each series' own order, and each
    level lists the series that own it.  The recovery defect
    (:func:`_defect`) plans once per handle and walks that plan for every
    piece, so a piece rebuilds neither the walk nor the blocks.  Per chunk
    of ``dyadic._ROWS`` points only the (axis, entry) tables some walked
    level uses are built, and a stack of prefix (flat index, product) lists lets
    levels that share leading entries share their partial indices and
    products (Bungartz & Griebel, Sparse grids, Acta Numerica 13, 2004).
    Each term's index and ``product * value`` are computed once; every
    owner then multiplies them by its own coefficients and adds the term
    to its own sum, in its own order.

    The working set is the outputs, 8 B per point per series, plus one
    chunk's arrays: at most ``max(2d - 3, 0) n + 6d + 2**(d + 1)`` floats
    per row, n the largest budget.  Those are the chunk's coordinates and
    cells at n, two tables per entry of each lead axis after the first,
    the last axis' n + 3 tables (at d >= 2), the prefix lists, the lifted
    indices below and five scratch rows: axis 0's cells and tent, rebuilt
    in place each time the walk reaches a new first entry (the first
    prefix is those choices themselves), and each term's index, base and
    gathered coefficients.  All but the prefix lists and lifted indices
    are rows of one float and one int block, which the plan keeps and
    makes anew only for a call of more rows, so the pieces of a
    measurement reuse the blocks.  Allocated and freed per piece, they
    went back to the system and came back as page faults: 11,000 minor
    faults per scatter-io op, against 1,900 with whole batches and 690
    with the blocks kept, and the op took about 10% longer (2-vCPU VM).
    For the same reason nothing is freed mid-walk: dropping a lead axis'
    tables when the walk left them cost the bench's scatter-io op 4-7%.

    The tables scale exactly.  An entry e's tent is taken from
    ``x * 2.0**e``, a product by a power of two that stays in range for x
    in [0, 1], so it has no rounding.  Every axis has one cell rule: its
    cells at the largest budget n, ``fine = min(floor(x * 2**n), 2**n - 1)``,
    give entry e's cells as ``fine >> (n - e)``, since ``floor(x * 2**e)``
    is ``floor(x * 2**n) >> (n - e)`` and the clamp at x = 1 shifts to the
    clamp of entry e.  A lead axis keeps them in its tables; the last axis
    shifts one lifted index per prefix item instead,
    ``G = flat * 2**n + fine``, and a level of last entry e >= 0 reads
    ``block[G >> (n - e)]``, which is ``flat * 2**e`` plus its cells,
    exactly.  A prefix index is below 2**(n + d - 1) (entries of order <= n,
    one bit per boundary axis), so G has at most 2n + d - 1 <= 62 bits for
    every (n, d) under MAX_POINTS (39 at d = 2, n = 19).
    """
    d, walk, used = plan.series[0].dim, plan.levels, plan.used
    X = _cube_points(points, d)
    n = max(s.budget for s in plan.series)
    outs = [np.zeros(X.shape[0]) for _ in plan.series]
    rows = min(X.shape[0], _ROWS)
    if not plan.blocks or plan.blocks[0].shape[1] < rows:
        plan.blocks[:] = np.empty((plan.floats, rows)), np.empty((plan.ints, rows), np.int64)
    floats, ints = plan.blocks

    def add_chunk(row: int) -> None:  # its prefixes go on return
        accs = [out[row : row + _ROWS] for out in outs]
        size = len(accs[0])
        free, free_ints = (a[:size] for a in floats), (a[:size] for a in ints)
        columns = [next(free) for _ in range(d)]
        fines = [next(free_ints) for _ in range(d)]
        for axis, (xi, fine) in enumerate(zip(columns, fines)):
            xi[...] = X[row : row + size, axis]
            np.copyto(fine, np.floor(xi * 2.0**n), casting="unsafe")
            np.minimum(fine, (1 << n) - 1, out=fine)
        tent, base, gathered = next(free), next(free), next(free)
        cells, index = next(free_ints), next(free_ints)
        # tables[axis][e]: the choices of entry e; axis 0's hold the walk's
        # current first entry, in cells and tent
        tables = [{}] + [
            {
                e: _choices(
                    xi, fine, e, n, next(free_ints) if fine is not None and e >= 0 else None, next(free)
                )
                for e in entries
            }
            for xi, fine, entries in zip(columns[1:], [*fines[1:-1], None], used)
        ]
        first, fine = fines[0] if d > 1 else None, fines[-1]
        # prefixes[a]: the (flat, product) list of the first a entries of
        # the previous level, a product of a values multiplied left to
        # right; the first is axis 0's choices themselves, the bytes of
        # 0 * c + k and 1.0 * v
        prefixes = [[(0, 1.0)]]
        previous: tuple[int, ...] = ()
        lifted = None
        for entries, owned in walk:
            if entries[:1] != previous[:1]:
                tables[0] = {entries[0]: _choices(columns[0], first, entries[0], n, cells, tent)}
            same = 0
            while same < len(prefixes) - 1 and entries[same] == previous[same]:
                same += 1
            if same < d - 1:  # the prefix changed
                del prefixes[same + 1 :]
                for axis in range(same, d - 1):
                    choices = tables[axis][entries[axis]]
                    c = 1 << entries[axis] if entries[axis] >= 0 else 2
                    prefixes.append(
                        choices
                        if axis == 0
                        else [(flat * c + k, prod * v) for flat, prod in prefixes[-1] for k, v in choices]
                    )
                lifted = None
            previous = entries
            e = entries[-1]
            last = tables[-1][e]  # the last axis' choices
            if e >= 0:
                if lifted is None:  # fine is the last axis'
                    lifted = [(flat << n) + fine for flat, _ in prefixes[-1]]
                ((_, v),) = last
                terms = (
                    (np.right_shift(G, n - e, out=index), prod, v)
                    for G, (_, prod) in zip(lifted, prefixes[-1])
                )
            else:
                terms = (
                    (np.add(np.left_shift(flat, 1, out=index), k, out=index), prod, v)
                    for flat, prod in prefixes[-1]
                    for k, v in last
                )
            for term, prod, v in terms:  # term is index, rewritten per term
                np.multiply(prod, v, out=base)
                for at, block in owned:
                    block.take(term, out=gathered, mode="clip")
                    gathered *= base  # base * block[term]: the product commutes
                    accs[at] += gathered

    for row in range(0, X.shape[0], _ROWS):
        add_chunk(row)
    return outs


def synthesize(series: FaberSeries, label: str | None = None) -> FunctionHandle:
    """Wrap a coefficient series as an exactly evaluable function handle.

    The handle evaluates the finite expansion via support locality and
    ships its exact integral, so synthesized series double as test
    functions with known answers.  It keeps the series, so
    :func:`_defect` can evaluate it together with an approximant.
    """
    if label is None:
        label = f"series[d={series.dim},n={series.budget}]"
    handle = FunctionHandle(
        lambda X: evaluate_batch(series, X),
        series.dim,
        label=label,
        exact_integral=integrate(series),
    )
    handle._series = series
    return handle


def _defect(f: FunctionHandle, series: FaberSeries) -> FunctionHandle:
    """The recovery defect f - (truncated expansion of ``series``), as a handle.

    The handle plans its :func:`_evaluate_many` walk once, over f's series
    and ``series`` when f was made by :func:`synthesize` and over ``series``
    alone otherwise, and walks that plan for every batch of points it is
    given.  Each batch is counted as f's evaluations, walked, which checks
    the points, and then, for any other f, handed to f; f's values go
    through the checks of ``f.eval_batch``.  So a point outside [0,1]^d
    raises ValueError before a black-box f runs, with the count as
    ``f.eval_batch`` leaves it.  The values are byte-equal to
    ``f.eval_batch`` and ``evaluate_batch`` called apart.  The defect is
    subtracted into the approximant's array; f's own array is never written.
    """
    if f.dim != series.dim:
        raise ValueError("dimension mismatch between handle and series")
    own = f._series
    plan = _walk_plan((series,) if own is None else (own, series))

    def evaluator(X):
        X = f._counted(X)
        *values, approx = _evaluate_many(plan, X)
        values = f._valid(X, f._evaluator(X) if own is None else values[0])
        return np.subtract(values, approx, out=approx)

    return FunctionHandle(evaluator, f.dim, label=f"{f.label}-defect(n={series.budget})")


def integrate(series: FaberSeries) -> float:
    """Exact integral over [0,1]^d of the truncated expansion.

    Per axis a hat of level j has integral 2**-(j+1) and each boundary
    function has integral 1/2; the weight of level j is the product, the
    power of two 2**-(order(j) + d), so each weighted level sum is exact
    and math.fsum rounds their total once.  The level sums are row sums of
    the reduction blocks, bit-identical to per-level sums; a level whose
    plain sum overflows is summed after weighting.  When a partial sum of
    fsum overflows, the level integrals are summed exactly as Fractions and
    rounded once.  ValueError if the integral leaves binary64.
    """
    layout = series._layout
    terms = np.ldexp(1.0, -(layout.orders + series.dim))
    with np.errstate(over="ignore", invalid="ignore"):  # such a level is redone below
        for levels, index in _reduction_blocks(series.budget, series.dim):
            terms[levels] *= series.coeffs[index].sum(axis=1)
    values = terms.tolist()
    if not math.isfinite(sum(values)):  # a level sum or the total overflowed
        for i in np.flatnonzero(~np.isfinite(terms)).tolist():
            block = series.coeffs[layout.starts[i] : layout.starts[i + 1]]
            values[i] = float(np.sum(np.ldexp(1.0, -(layout.orders[i] + series.dim)) * block))
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum overflowed; the total may not
        try:
            return float(sum(map(Fraction, values)))
        except OverflowError:
            raise ValueError("the integral leaves binary64: a sum of level integrals overflows")


# -- serialization -----------------------------------------------------------
#
# Text format: header "dim <d> budget <n>", then one line per coefficient
# "j_1 .. j_d k_1 .. k_d value" in level/translation order, values printed
# as shortest round-trip decimals.  The JSON variant mirrors the fields.
# The writers format a block of about ``dyadic._ROWS`` coefficients at a
# time and join the blocks once, so they peak at twice the output, as an
# io.StringIO does, plus about 57 B per block string.  Both readers split a
# slice of 32 * _ROWS characters, about _ROWS text lines, at a time into
# tokens and convert them into arrays with one converter, :func:`_token_rows`;
# :func:`_build_series` checks those slices in place.


def _formatted(series: FaberSeries, level_part, k_sep: str, k_end: str) -> Iterator[str]:
    """The coefficients as strings ``level_part(j) + k + repr(value)``, in blocks.

    j is a level's entries as a list, k the translation's entries joined
    by ``k_sep`` and followed by ``k_end``.  Each level's part is built
    once and each translation's string once per level, from per-axis digit
    strings; values are the ``repr`` of ``coeffs.tolist()``.  Each yielded
    string holds at least _ROWS and fewer than 2 * _ROWS coefficients, the
    last fewer.
    """
    entries, shapes, starts = series._layout.entries, series._layout.shapes, series._layout.starts
    pieces = []
    for i, (j, (*lead, last)) in enumerate(zip(entries.tolist(), shapes.tolist())):
        axes = [[f"{t}{k_sep}" for t in range(c)] for c in lead]
        axes.append([f"{t}{k_end}" for t in range(last)])
        ks = map("".join, itertools.product(*axes))
        part = level_part(j)
        for start in range(starts[i], starts[i + 1], _ROWS):
            values = series.coeffs[start : min(start + _ROWS, starts[i + 1])].tolist()
            block = [part] * (3 * len(values))
            block[1::3] = itertools.islice(ks, len(values))
            block[2::3] = map(repr, values)
            pieces += block
            if len(pieces) >= 3 * _ROWS:
                yield "".join(pieces)
                pieces = []
    yield "".join(pieces)


def series_to_text(series: FaberSeries) -> str:
    blocks = _formatted(series, lambda j: "\n" + " ".join(map(str, j)) + " ", " ", " ")
    return "".join([f"dim {series.dim} budget {series.budget}", *blocks, "\n"])


def series_to_json(series: FaberSeries) -> str:
    def level_part(j):  # each entry closes the one before: '},{"j":[..],"k":[..],"value":v'
        return '},{"j":[' + ",".join(map(str, j)) + '],"k":['

    blocks = _formatted(series, level_part, ",", '],"value":')
    head = f'{{"dim":{series.dim},"budget":{series.budget},"entries":['
    return "".join([head, next(blocks)[2:], *blocks, "}]}"])


def _clamped(v: int) -> int:
    """v clamped to [-2, 2**62], outside of which no level entry or translation
    lies: a clamped value fails the checks the value fails, and fits int64."""
    return min(max(v, -2), 1 << 62)


def _int_rows(rows: list[tuple], d: int) -> np.ndarray:
    """(N, d) int64 table of integer tuples, clamped; a tuple of another length
    becomes a row of -2, which no level entry or translation admits."""
    bad = (-2,) * d
    table = [tuple(map(_clamped, row)) if len(row) == d else bad for row in rows]
    return np.array(table, np.int64).reshape(len(rows), d)


def _build_series(d: int, n: int, entry, slices: list, error=None) -> FaberSeries:
    """Series from parsed slices of entries ``(J[i], K[i], V[i])``, each coefficient exactly once.

    Each slice ``(J, K, V)`` is checked in place, in one array pass, and
    the read stops at the earliest failing entry, reported as an
    entry-by-entry reader would: a duplicate, else its level outside the
    budget, else its translation out of range.  ``entry(i)`` returns entry
    i's ``(j, k)`` tuples as read, for the messages; J and K may hold them
    clamped.  ``error``, raised while reading the entry after the last,
    comes after every entry's check; missing coefficients are reported
    last.  A slice's positions and values are scattered into a one-byte
    ``seen``, which finds repeats of earlier slices, and the series' own
    array; a slice whose positions do not ascend is sorted to find its
    own repeats.  Beyond the slices, the read builds one layout and 9 B
    per coefficient, and hands the array to the series.
    """
    layout = _levels(n, d)
    seen = np.zeros(layout.size, dtype=np.uint8)
    values = np.zeros(layout.size)
    count = 0  # entries of the slices before this one
    for J, K, V in slices:
        in_range = np.all((J >= -1) & (J <= n), axis=1)
        key = (np.where(in_range[:, None], J, -1) + 1) @ layout.radix
        index = np.minimum(np.searchsorted(layout.keys, key), len(layout.keys) - 1)
        shape = layout.shapes[index]
        found = in_range & (layout.keys[index] == key)
        bad = ~(found & np.all((K >= 0) & (K < shape), axis=1))
        first_bad = int(np.argmax(bad)) if bad.any() else len(J)
        pos = layout.starts[index[:first_bad]] + _flat_index(K[:first_bad].T, shape[:first_bad].T)
        repeat = seen[pos] != 0
        if not np.all(pos[1:] > pos[:-1]):
            first = np.unique(pos, return_index=True)[1]
            repeat[np.setdiff1d(np.arange(len(pos)), first)] = True
        if repeat.any():
            j, k = entry(count + int(np.argmax(repeat)))
            raise ValueError(f"duplicate coefficient at level {j}, translation {k}")
        if first_bad < len(J):
            j, k = entry(count + first_bad)
            if not found[first_bad]:
                raise ValueError(f"level {j} outside budget {n} in d={d}")
            _check_translation(LevelVector(j), k)
        seen[pos] = 1
        values[pos] = V
        count += len(J)
    if error is not None:
        raise error
    if count < layout.size:
        raise ValueError(f"series misses {layout.size - count} coefficient line(s)")
    return FaberSeries._adopt(n, d, values, layout)


def _token_rows(tokens: list[str], d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of 2d + 1 tokens ``j k value`` as a slice ``(J, K, V)`` of :func:`_build_series`.

    J and K are (N, d) views of one (N, 2d) int64 table, clamped.  Values
    are converted by ``float``, integers by ``int`` once per distinct
    token (a block repeats few); ValueError if a token does not convert.
    The value tokens are deleted from ``tokens``.
    """
    width = 2 * d + 1
    count = len(tokens) // width
    values = np.fromiter(map(float, tokens[2 * d :: width]), np.float64, count)
    del tokens[2 * d :: width]
    parsed = {t: _clamped(int(t)) for t in set(tokens)}
    ints = np.fromiter(map(parsed.__getitem__, tokens), np.int64, len(tokens)).reshape(count, 2 * d)
    return ints[:, :d], ints[:, d:], values


def _slices(text: str, start: int, stop: int, boundary: str) -> Iterator[str]:
    """``text[start:stop]`` in consecutive slices that end with a match of the
    regular expression ``boundary``: each the shortest of at least
    ``32 * _ROWS`` characters, the last one whatever is left."""
    search = re.compile(boundary).search
    while start < stop:
        cut = search(text, start + 32 * _ROWS, stop)
        end = stop if cut is None else cut.end()
        yield text[start:end]
        start = end


#: A line boundary of ``str.splitlines``, with "\r\n" as one.
_LINE_END = "\r\n|[\n\v\f\r\x1c-\x1e\x85\u2028\u2029]"


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The non-blank lines of text, as ``str.splitlines`` splits them, in one
    list per :func:`_slices` slice: no slice ends inside a line."""
    for piece in _slices(text, 0, len(text), _LINE_END):
        yield list(filter(str.strip, piece.splitlines()))


def _text_block(lines: list[str], d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient lines as the :func:`_token_rows` of their tokens.

    A block whose lines do not all hold 2d + 1 tokens that convert is read
    again line by line, which raises the first bad line's error.
    """
    width = 2 * d + 1
    rows = list(map(str.split, lines))
    if set(map(len, rows)) <= {width}:
        try:
            return _token_rows(list(itertools.chain.from_iterable(rows)), d)
        except ValueError:
            pass
    for ln, parts in zip(lines, rows):
        if len(parts) != width:
            raise ValueError(f"bad coefficient line {ln!r}")
        list(map(int, parts[: 2 * d]))  # its integers, then its value, raise
        float(parts[2 * d])
    raise AssertionError("a block that fails in bulk holds a bad line")


def series_from_text(text: str) -> FaberSeries:
    """The series of a text file, read one :func:`_line_blocks` block at a time.

    Beyond the text, the reader holds one block's lines and tokens, never
    all of them, and each block's ``j k`` rows and values, 16 d + 8 B per
    coefficient, which :func:`_build_series` checks in place; it adds a
    one-byte ``seen`` and the series' own array, one layout per read.  The
    peak is at most about 16 d + 26 B per coefficient (50 B at d = 2 and
    148 B at d = 8, tracemalloc), plus at most 10 MB for the block of a
    slice of 32 * ``_ROWS`` characters (9.8 MB at d = 1, 5.7 MB at d = 2).
    The node cap is checked after every line's parse, by the layout that
    :func:`_build_series` builds first.
    """
    blocks = _line_blocks(text)
    lines = next(filter(None, blocks), None)
    if lines is None:
        raise ValueError("empty series text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dim" or head[2] != "budget":
        raise ValueError(f"bad header {lines[0]!r}")
    d, n = int(head[1]), int(head[3])
    parsed = [_text_block(lines[1:], d)]
    del lines
    parsed += (_text_block(b, d) for b in blocks)

    def entry(i):  # coefficient line i as read; split again on an error path only
        lines = itertools.chain.from_iterable(_line_blocks(text))
        parts = next(itertools.islice(lines, 1 + i, None)).split()
        return tuple(map(int, parts[:d])), tuple(map(int, parts[d : 2 * d]))

    return _build_series(d, n, entry, parsed)


# The writer's own JSON layout: JSON integers of at most 18 digits, and
# numbers with a fraction or an exponent, as ``repr`` writes floats; the
# possessive quantifiers keep no backtracking state.
_JSON_INT = "-?+(?:0|[1-9][0-9]{0,17}+)"
_JSON_FLOAT = "-?+(?:0|[1-9][0-9]*+)(?:[.][0-9]++(?:e[+-][0-9]++)?+|e[+-][0-9]++)"
_JSON_HEAD = rf'\{{"dim":({_JSON_INT}),"budget":({_JSON_INT}),"entries":\['
#: Every character of an entry but its numbers and the "e" of "value".
_JSON_SPACES = str.maketrans('{}[]":,jkvalu', " " * 13)


def _json_layout(text: str) -> tuple[int, int, list] | None:
    """``(d, n, slices)`` of a JSON text in the writer's own layout, else None.

    The layout is the writer's header, then entries
    ``{"j":[..],"k":[..],"value":v}`` of d integers each and a number, as
    above, with no whitespace but after the closing ``}]}``.  json.loads
    reads such a text to the same integers and to ``float`` of the same
    number tokens, so the entries go as tokens through
    :func:`_token_rows`, one :func:`_slices` slice at a time, into one
    ``(J, K, V)`` slice of :func:`_build_series` each.  A header
    that the node cap refuses is left to json.loads too, so that its
    errors come in json.loads' order.
    """
    head = re.match(_JSON_HEAD, text)
    end = len(text)
    while end and text[end - 1] in " \t\n\r":
        end -= 1
    if head is None or text[end - 3 : end] != "}]}":
        return None
    d, n = int(head[1]), int(head[2])
    try:
        capped_node_count(n, d)
    except ValueError:
        return None
    ints = ",".join([_JSON_INT] * d)
    entry = rf'\{{"j":\[{ints}\],"k":\[{ints}\],"value":{_JSON_FLOAT}\}}'
    # each slice but the last ends with "},", the last with "}"
    entries = re.compile(rf"(?:{entry}(?:,|\Z))*+").fullmatch
    slices = []
    for piece in _slices(text, head.end(), end - 2, r"\},"):
        if not entries(piece):
            return None
        tokens = piece.translate(_JSON_SPACES).split()
        del tokens[2 * d :: 2 * d + 2]  # the "e" of each "value"
        slices.append(_token_rows(tokens, d))
    return d, n, slices


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"header {key!r} must be an integer, got {value!r:.40}")
    return value


def _json_ints(entry: dict, key: str, at: int) -> tuple:
    value = entry[key]
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError(f"entry {at}: {key!r} must be a list of integers, got {value!r:.40}")
    return tuple(value)


def _json_entries(entries: list, d: int) -> tuple:
    """JSON entries as one slice ``(J, K, V)`` of :func:`_build_series` and its ``error``.

    Every ``j`` and ``k`` must be a list of JSON integers and every
    ``value`` a JSON number, never a bool.  When all entries have that
    shape and fit int64 and float64, they are converted in bulk;
    otherwise they are read one by one up to the first entry that fails,
    whose error is returned as ``error``.
    """
    try:
        js = [e["j"] for e in entries]
        ks = [e["k"] for e in entries]
        vs = [e["value"] for e in entries]
        if (
            set(map(len, js)) | set(map(len, ks)) <= {d}
            and set(map(type, itertools.chain.from_iterable(js + ks))) <= {int}
            and set(map(type, vs)) <= {int, float}
        ):
            N = len(entries)
            J = np.fromiter(itertools.chain.from_iterable(js), np.int64, N * d)
            K = np.fromiter(itertools.chain.from_iterable(ks), np.int64, N * d)
            V = np.fromiter(map(float, vs), np.float64, N)
            return J.reshape(N, d), K.reshape(N, d), V, None
    except (KeyError, TypeError, OverflowError):
        pass
    js, ks, vs = [], [], []
    error = None
    try:
        for at, e in enumerate(entries):
            if type(e) is not dict:
                raise ValueError(f"entry {at} must be an object, got {e!r:.40}")
            j = _json_ints(e, "j", at)
            k = _json_ints(e, "k", at)
            value = e["value"]
            if type(value) not in (int, float):
                raise ValueError(f"entry {at}: 'value' must be a number, got {value!r:.40}")
            vs.append(float(value))
            js.append(j)
            ks.append(k)
    except (KeyError, ValueError, OverflowError) as exc:
        error = exc
    return _int_rows(js, d), _int_rows(ks, d), np.array(vs, dtype=np.float64), error


def series_from_json(text: str) -> FaberSeries:
    """The series of a JSON file.

    A text in the writer's own layout (:func:`_json_layout`) is read as
    tokens, one slice at a time, and never decoded whole.  As in the text
    reader, the slices' rows are checked in place and the series takes the
    array :func:`_build_series` fills, one layout per read: beyond the
    text it peaks at about 16 d + 26 B per coefficient at most (50 B at
    d = 2, 148 B at d = 8, tracemalloc), plus at most 2 MB for the tokens
    of a slice of 32 * ``_ROWS`` characters.  Any other text is decoded
    by json.loads and read by :func:`_json_entries`, so its first error
    is json.loads' or that of the first entry of another type.
    """
    layout = _json_layout(text)
    if layout is None:
        return _series_from_doc(json.loads(text))
    d, n, slices = layout

    def entry(i):  # entry i as read; decoded on an error path only
        e = json.loads(text)["entries"][i]
        return tuple(e["j"]), tuple(e["k"])

    return _build_series(d, n, entry, slices)


def _series_from_doc(doc) -> FaberSeries:
    """The series of a decoded JSON document, checked field by field."""
    if type(doc) is not dict:
        raise ValueError(f"series JSON must be an object, got {doc!r:.40}")
    d, n = _json_int(doc, "dim"), _json_int(doc, "budget")
    entries = doc["entries"]
    if type(entries) is not list:
        raise ValueError(f"'entries' must be a list, got {entries!r:.40}")
    capped_node_count(n, d)  # before any entry is read

    def entry(i):
        return tuple(entries[i]["j"]), tuple(entries[i]["k"])

    *parsed, error = _json_entries(entries, d)
    return _build_series(d, n, entry, [parsed], error)
