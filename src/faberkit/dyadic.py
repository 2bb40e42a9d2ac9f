"""Dyadic index arithmetic for hierarchical sparse grids, and the plan of
everything that depends on the budget n and the dimension d alone.

Levels and translations are exact integers.  A node coordinate is
computed once, by one formula (:func:`_nodes`), as an exact binary64
dyadic; :func:`node_set` returns these (m, d) float64 nodes.  A
:class:`_GridPlan` holds what depends on (n, d) alone: the layout of a
series of order <= n, which holds the block indices of the level
reductions, and the node and sweep plan of analyze.  :func:`_grid_plan`
memoizes one plan per (n, d) under the one rule and byte bound stated at
``_PLAN_MEMO_SIZE``.

Level conventions
-----------------
A level vector ``j`` has integer entries ``>= -1``.  Entry ``-1`` selects
the two boundary functions of that axis (translations ``{0, 1}``); an
entry ``j_i >= 0`` selects the ``2**j_i`` interior hats.  The truncation
order of ``j`` is ``sum(max(j_i, 0))``: boundary entries are free, which
keeps the boundary interpolation layer inside every truncation budget.
Both conventions for counting ``-1`` entries only differ by a shift of
the budget, see the package README.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["MAX_LEVEL", "LevelVector", "levels_up_to", "node_count", "node_set"]

#: Hard cap on level entries: a level's 2**MAX_LEVEL translations must
#: be countable in an int64.
MAX_LEVEL = 62

#: Cap on the points one pass may hold: the sparse-grid nodes of a plan
#: (an analysis or a prescribed testbed series), or the evaluation points
#: of one measurement pass (both mesh levels of a Richardson pair).
MAX_POINTS = 1 << 25

#: Rows per pass of every memory-bounded loop: the evaluator's chunks and
#: the measures' pieces, the gathers of :meth:`_Layout.blocks`, the rows
#: ``levels`` prints at a time, the sign passes of ``testbed.extremal``, the
#: series writers' blocks and the readers' slices of 32 * _ROWS characters.
#: A pass only splits the work, so no value or byte depends on it.  For the
#: joint defect of a 65,536-point batch (extremal series and their analyze
#: approximants, median of 15 alternating rounds, 2-vCPU VM), 2**13 took as
#: long as 2**14 at d = 1..4 (within 5% either way), and 2**12 took 11-21%
#: longer than 2**13; the peak at d = 3 was 2.43, 3.83 and 6.65 MiB at
#: 2**12, 2**13 and 2**14.
_ROWS = 1 << 13


@dataclass(frozen=True)
class LevelVector:
    """A d-tuple of hierarchical levels with entries in {-1, 0, 1, ...}."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(_check_int("level entry", e, -1) for e in self.entries)
        if not entries:
            raise ValueError("level vector needs dimension >= 1")
        for e in entries:
            if e > MAX_LEVEL:
                raise ValueError(f"level entry {e} exceeds MAX_LEVEL={MAX_LEVEL}")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        """Truncation order: sum of the non-negative entries."""
        return sum(e for e in self.entries if e > 0)

    def translation_shape(self) -> tuple[int, ...]:
        """Number of admissible translations per axis."""
        return tuple(1 << e if e >= 0 else 2 for e in self.entries)

    def translation_count(self) -> int:
        return math.prod(self.translation_shape())

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


def _as_level(j) -> LevelVector:
    return j if isinstance(j, LevelVector) else LevelVector(tuple(j))


def _check_int(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError, naming it, unless it is a Python or numpy
    integer (a bool is not one) and, when low is given, at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r:.40}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _check_real(name: str, value, low=None, strict: bool = False, inf: bool = False) -> float:
    """value as a float; ValueError, naming it, unless it is a Python or numpy
    int or float (a bool is not one), at least low when low is given (above
    it if strict), and finite unless inf allows +-inf.  NaN fails every
    bound; an int past binary64 is the infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r:.40}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if low is not None and not (value > low if strict else value >= low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}")
    if not (math.isfinite(value) or inf and not math.isnan(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _check_budget(n: int, d: int) -> tuple[int, int]:
    """(n, d) as ints; ValueError unless both are integers, d >= 1 and
    0 <= n <= MAX_LEVEL."""
    n, d = _check_int("budget", n, 0), _check_int("dimension", d, 1)
    if n > MAX_LEVEL:
        raise ValueError(f"budget exceeds MAX_LEVEL={MAX_LEVEL}")
    return n, d


def levels_up_to(n: int, d: int) -> list[LevelVector]:
    """All level vectors of truncation order <= n, in lexicographic order.

    The per-axis order is -1 < 0 < 1 < ..., so the boundary layer of each
    axis precedes its interior levels.  The rows of the plan layout's entry
    table, one LevelVector each; fails like :func:`capped_node_count`,
    before enumerating.
    """
    return [LevelVector(row) for row in _grid_plan(n, d).layout.entries.tolist()]


def _check_translation(j: LevelVector, k: tuple[int, ...]) -> None:
    shape = j.translation_shape()
    if len(k) != len(shape):
        raise ValueError(f"translation {k} has wrong dimension for level {j.entries}")
    for ki, ci in zip(k, shape):
        if not 0 <= ki < ci:
            raise ValueError(f"translation {k} out of range for level {j.entries}")


def _flat_index(k, shape):
    """Position of translation k in the lexicographic order of its level.

    Works on integers and, elementwise, on integer arrays.
    """
    flat = 0
    for ki, c in zip(k, shape):
        flat = flat * c + ki
    return flat


def capped_node_count(n: int, d: int) -> int:
    """m(n, d) = node_count(n, d), after checking the budget is plannable.

    Raises ValueError, before anything is allocated, for a budget above
    MAX_LEVEL or a node count above MAX_POINTS.  As m(n, d) >= 3**d, a
    dimension with 3**d over the cap is refused before m is counted.
    """
    n, d = _check_budget(n, d)
    if d > math.log(MAX_POINTS, 3):
        raise ValueError(f"d={d} needs at least 3**d nodes, over the cap {MAX_POINTS}")
    m = node_count(n, d)
    if m > MAX_POINTS:
        raise ValueError(f"budget n={n} needs {m} nodes in d={d}, over the cap {MAX_POINTS}")
    return m


#: Largest m·d whose plan is memoized; a larger plan is built for its
#: caller, who holds or drops it.
_PLAN_MEMO_POINTS = 1 << 17

#: Plans the memo keeps.  Under _PLAN_MEMO_POINTS this count is a byte
#: bound: a plan holds at most 8·m·d bytes of nodes and 8·m·(3d - 1) of
#: intp sweep indices (axis 0's inner nodes are a slice), 4 MiB; and a
#: layout of 8·(2d + 3) B per level, at most 82 KiB (the largest is (2,
#: 6)'s 688 levels, by tracemalloc), with its kept blocks: 8 B of intp
#: block index per grouped coefficient (a lone level holds a slice), 1 MiB.
#: So the memo retains at most 5 · (4 MiB + 1 MiB + 82 KiB), about 25.4
#: MiB.  A series holds its layout, blocks included, past the plan's
#: eviction; a layout over the cap keeps no blocks.
_PLAN_MEMO_SIZE = 5


@dataclass(frozen=True, eq=False)
class _Layout:
    """The series layout of order <= n in d dimensions; see :class:`_GridPlan`.

    ``small`` says whether m·d <= _PLAN_MEMO_POINTS, that is whether
    :func:`_grid_plan` keeps its plan and :meth:`blocks` keeps the blocks.
    """

    entries: np.ndarray  # (L, d) int64 level entries, in lexicographic order
    shapes: np.ndarray  # (L, d) int64 translation counts
    starts: np.ndarray  # (L + 1,) offsets of the levels' blocks in series order
    size: int  # m(n, d) coefficients
    radix: np.ndarray  # (d,) int64 place values of the level keys
    keys: np.ndarray  # (L,) int64 level keys, ascending in series order
    orders: np.ndarray  # (L,) int64 truncation orders sum(max(entries, 0))

    @property
    def small(self) -> bool:
        return self.size * len(self.radix) <= _PLAN_MEMO_POINTS

    def blocks(self) -> Iterable[tuple[np.ndarray, tuple | np.ndarray]]:
        """The levels grouped by size, a few levels at a time.

        ``(levels, index)`` per size group, in ascending size: ``levels``,
        the group's read-only level indices into the layout, and ``index``,
        which ``coeffs[index]`` reads as the (len(levels), size) block of
        their coefficients, one row per level: a view ``(None, slice(start,
        stop))`` for a level alone, else the read-only intp gather index
        ``starts[levels, None] + arange(size)`` of at most _ROWS elements,
        which bounds each block and the temporaries of its reductions to 64
        KiB.  A row-wise reduction of a block is bit-identical to the
        reduction of each level alone.  A small layout builds the blocks on
        first use and keeps them as a tuple; a layout over _PLAN_MEMO_POINTS
        yields them one by one on every call, so no gather index outlives
        its block.  A series reduces by its own layout's blocks, so no
        reduction builds a plan.
        """
        return self._kept_blocks if self.small else _size_groups(self.starts)

    @functools.cached_property
    def _kept_blocks(self) -> tuple:
        return tuple(_size_groups(self.starts))


def _plan(layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Per-coefficient table of the series of a plan's layout, in series order.

    Returns ``(owner, k)``: per coefficient i its level index ``owner[i]``
    into the layout and its translation ``k[i]``, an (m, d) int64 array
    (levels in the order of :func:`levels_up_to`, translations of a level
    in lexicographic order, the last axis fastest).
    """
    owner = np.repeat(np.arange(len(layout.keys)), np.diff(layout.starts))
    flat = np.arange(layout.size) - layout.starts[owner]
    k = np.empty((layout.size, len(layout.radix)), dtype=np.int64)
    for axis in reversed(range(k.shape[1])):
        count = layout.shapes[owner, axis]
        k[:, axis] = flat % count
        flat //= count
    return owner, k


def _nodes(layout: _Layout, k: np.ndarray) -> np.ndarray:
    """The (m, d) float64 nodes of the translations k of :func:`_plan`.

    Per axis ``(2k + [e >= 0]) * 2**-max(e + 1, 1)``: k along a boundary
    axis, (2k + 1) 2**-(e+1) along an axis of level e >= 0.  Every step is
    exact, as 2k + 1 < 2**(e+1) <= 2**25 under MAX_POINTS.
    """
    sizes = np.diff(layout.starts)
    points = k.astype(np.float64)
    for axis in range(k.shape[1]):
        e = layout.entries[:, axis]
        column = points[:, axis]
        column *= 2.0
        column += np.repeat(e >= 0, sizes)
        column *= np.repeat(np.ldexp(1.0, -np.maximum(e + 1, 1)), sizes)
    return points


def node_set(n: int, d: int) -> np.ndarray:
    """The (m, d) float64 nodes of all coefficients of order <= n.

    Row i is the node of the i-th coefficient (j, k) in series order
    (levels in the order of :func:`levels_up_to`, translations of a level
    in lexicographic order): the centre of its support, with coordinate
    (2 k_i + 1) * 2**-(j_i + 1) along an axis with j_i >= 0 and k_i along
    a boundary axis.  The rows are distinct, their set is the union of
    all surplus stencils of order <= n, and they are byte-equal to the
    points analyze hands f.  Each call returns a fresh array.  Fails like
    :func:`capped_node_count`.
    """
    layout = _grid_plan(n, d).layout
    return _nodes(layout, _plan(layout)[1])


def node_count(n: int, d: int) -> int:
    """Exact number of rows of node_set(n, d), without materializing it.

    A dyadic point is a node iff the per-axis costs max(ell_i - 1, 0)
    of its exact dyadic levels ell_i sum to at most n.  Per axis there
    are 3 points of cost 0 (the endpoints and 1/2) and 2**c of cost
    c >= 1, so the count is a d-fold convolution truncated at cost n.
    Fails like :func:`levels_up_to` for a budget above MAX_LEVEL.
    """
    n, d = _check_budget(n, d)
    axis = [3] + [1 << c for c in range(1, n + 1)]
    ways = [1] + [0] * n  # ways[c]: points of the axes so far with total cost c
    for _ in range(d):
        ways = [sum(ways[a] * axis[c - a] for a in range(c + 1)) for c in range(n + 1)]
    return sum(ways)


def _parent_steps(layout: _Layout, span: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
    """Where the two parents of each node along each of its interior axes lie.

    Along an axis of level e >= 0, read a level's block as a (before,
    2**e, after) array of translations.  The node (h, t, lo) has its left
    and right parents at the axis points t and t + 1 of step 2**-e: a
    boundary point if that is 0 or 2**e, else the node of level
    e - 1 - tz (tz the trailing zero bits of the point) and translation
    point // 2**(tz+1), at (h, that translation, lo) of the parent's
    block.  So a parent lies at the node's index plus ``D + h * E``, where
    D and E depend on the level, the axis and t alone.  Returns ``(first,
    (D, E), (D, E))`` for left and right: one row per (level, axis, t),
    the rows of (level l, axis a) from ``first[l, a]`` on in the order of
    t.  ``span[:, a]`` is the translation count of the axes from a on,
    per level.  Parent levels are found by their key in ``layout.keys``.
    """
    entries, starts, place = layout.entries, layout.starts, layout.radix
    level, axis = np.nonzero(entries >= 0)
    e = entries[level, axis]
    count = 1 << e
    first = np.zeros(entries.shape, dtype=np.int64)
    first[level, axis] = np.cumsum(count) - count
    level, axis, e = (np.repeat(a, count) for a in (level, axis, e))
    t = np.arange(len(level)) - first[level, axis]
    after = span[level, axis + 1]
    sibling_key = layout.keys[level] - (e + 1) * place[axis]
    sides = []
    for point in (t, t + 1):
        low = point & -point
        boundary = (point == 0) | (low == 1 << e)
        low = np.maximum(low, 1)
        parent_e = np.where(boundary, -1, e - np.frexp(low.astype(np.float64))[1])
        parent_t = np.where(boundary, point >> e, point // (2 * low))
        parent_count = np.where(boundary, 2, 1 << np.maximum(parent_e, 0))
        parent = np.searchsorted(layout.keys, sibling_key + (parent_e + 1) * place[axis])
        step = starts[parent] - starts[level] + (parent_t - t) * after
        sides.append((step, (parent_count - (1 << e)) * after))
    return first, *sides


class _GridPlan:
    """Everything that depends on the budget n and the dimension d alone.

    The constructor builds ``layout``, the series layout of order <= n,
    and fails like :func:`capped_node_count` before enumerating.  The
    entry table grows one axis at a time, each row repeated once per entry
    -1 .. n - order of the next axis, so the rows are in lexicographic
    order.  A level's key is its entries + 1 in mixed radix n + 2, so the
    keys ascend, and (n + 2)**d <= 2**24 fits an int64 for every (n, d)
    under the cap.  The read-only arrays hold 8 (2d + 3) B per level.
    :attr:`hierarchy` is built on first use.
    """

    def __init__(self, n: int, d: int) -> None:
        capped_node_count(n, d)
        entries = np.zeros((1, 0), dtype=np.int64)
        orders = np.zeros(1, dtype=np.int64)
        for _ in range(d):
            counts = n + 2 - orders
            e = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) - 1
            entries = np.column_stack((np.repeat(entries, counts, axis=0), e))
            orders = np.repeat(orders, counts) + np.maximum(e, 0)
        shapes = np.where(entries < 0, 2, 1 << np.maximum(entries, 0))
        starts = np.concatenate(([0], np.cumsum(shapes.prod(axis=1))))
        radix = (n + 2) ** np.arange(d - 1, -1, -1, dtype=np.int64)
        keys = (entries + 1) @ radix
        for a in (entries, shapes, starts, radix, keys, orders):
            a.setflags(write=False)
        self.budget, self.dim = n, d
        self.layout = _Layout(entries, shapes, starts, int(starts[-1]), radix, keys, orders)

    @functools.cached_property
    def hierarchy(self) -> tuple[np.ndarray, tuple]:
        """What analyze needs: ``(points, sweeps)``, built on first use and kept.

        ``points`` is :func:`_nodes`, the (m, d) float64 nodes of node_set(n,
        d).  ``sweeps`` holds per axis ``(inner, left, right)``: the nodes
        that are not boundary nodes along that axis, and their two neighbours
        there, the nodes of their surplus stencil.  Axis 0's inner nodes are
        one slice, the nodes after the levels of first entry -1, which come
        first; every other index is an intp array, numpy's native index type,
        so indexing with it casts nothing.  The neighbours are read off each
        node's (level, translation), see :func:`_parent_steps`.  All arrays
        are read-only.
        """
        layout, d = self.layout, self.dim
        owner, k = _plan(layout)
        points = _nodes(layout, k)
        points.setflags(write=False)
        span = np.ones((len(layout.keys), d + 1), dtype=np.int64)
        span[:, :d] = np.cumprod(layout.shapes[:, ::-1], axis=1)[:, ::-1]
        first, left, right = _parent_steps(layout, span)
        sweeps = []
        for axis in range(d):
            inner = np.flatnonzero(layout.entries[owner, axis] >= 0)
            level = owner[inner]
            row = first[level, axis]
            row += k[inner, axis]
            before = inner - layout.starts[level]  # index in the level's block, then h
            before //= span[level, axis]
            sweep = [inner]
            for D, E in (left, right):
                parent = E[row]
                parent *= before
                parent += D[row]
                parent += inner
                sweep.append(parent.astype(np.intp, copy=False))
            for a in sweep:
                a.setflags(write=False)
            if axis == 0:
                sweep[0] = slice(layout.size - inner.size, None)
            sweeps.append(tuple(sweep))
        return points, tuple(sweeps)


def _size_groups(starts: np.ndarray) -> Iterator[tuple[np.ndarray, tuple | np.ndarray]]:
    """The blocks of :meth:`_Layout.blocks`, built from the layout's level
    starts alone, so a layout that yields them is not kept alive by them."""
    sizes = np.diff(starts)
    for size in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == size)
        step = max(1, _ROWS // size)
        for first in range(0, group.size, step):
            levels = group[first : first + step]
            levels.setflags(write=False)
            if len(levels) == 1:
                yield levels, (None, slice(starts[levels[0]], starts[levels[0] + 1]))
            else:
                index = (starts[levels, None] + np.arange(size)).astype(np.intp, copy=False)
                index.setflags(write=False)
                yield levels, index


#: :func:`_grid_plan`'s memo: the small plans by (n, d), least recently used first.
_PLANS: dict[tuple[int, int], _GridPlan] = {}


def _grid_plan(n: int, d: int) -> _GridPlan:
    """The plan of (n, d), memoized under the rule of _PLAN_MEMO_SIZE.

    Fails like :func:`capped_node_count`.  The budget is checked before the
    memo is read and the node cap on a miss only, so a hit counts no node.
    A small plan is kept among the _PLAN_MEMO_SIZE most recently used; a
    plan over _PLAN_MEMO_POINTS is built afresh on every call, for its
    caller to hold or drop.
    """
    key = _check_budget(n, d)  # before the memo, whose keys take 2.0 for 2
    plan = _PLANS.pop(key, None) or _GridPlan(*key)
    if plan.layout.small:
        _PLANS[key] = plan  # last, as the most recently used
        if len(_PLANS) > _PLAN_MEMO_SIZE:
            del _PLANS[next(iter(_PLANS))]
    return plan
