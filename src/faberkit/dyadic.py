"""Exact dyadic index arithmetic for hierarchical sparse grids.

Everything in this module lives in exact integer arithmetic.  A point
of [0,1]^d is a row of the integer lattice: coordinate x_i is stored as
the integer ``x_i * 2**LATTICE_LEVEL`` in a uint64, so point identity is
bit-exact across levels and never depends on floating point.  Node
arrays have shape (m, d); :func:`to_floats` converts them to binary64
only where a function is evaluated.

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
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Hard cap on level entries: 2**MAX_LEVEL must fit an int64.  Stencil
#: points live one level below their owner, hence the +1 slack for points.
MAX_LEVEL = 62

#: Finest point level.  Points are stored as their exact lattice
#: coordinates ``x_i * 2**LATTICE_LEVEL``: integers in [0, 2**63], which
#: fit a uint64.
LATTICE_LEVEL = MAX_LEVEL + 1

#: Cap on the points one pass may hold: the sparse-grid nodes of a plan
#: (an analysis or a prescribed testbed series), or the evaluation points
#: of one measurement pass (both mesh levels of a Richardson pair).
MAX_POINTS = 1 << 25


@dataclass(frozen=True)
class LevelVector:
    """A d-tuple of hierarchical levels with entries in {-1, 0, 1, ...}."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(e) for e in self.entries)
        if not entries:
            raise ValueError("level vector needs dimension >= 1")
        for e in entries:
            if e < -1:
                raise ValueError(f"level entry {e} < -1")
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

    def active_axes(self) -> tuple[int, ...]:
        """Axes carrying a genuine hat level (entry >= 0)."""
        return tuple(i for i, e in enumerate(self.entries) if e >= 0)

    def translation_shape(self) -> tuple[int, ...]:
        """Number of admissible translations per axis."""
        return tuple(1 << e if e >= 0 else 2 for e in self.entries)

    def translation_count(self) -> int:
        return math.prod(self.translation_shape())

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


def _as_level(j) -> LevelVector:
    return j if isinstance(j, LevelVector) else LevelVector(tuple(j))


def levels_up_to(n: int, d: int) -> list[LevelVector]:
    """All level vectors of truncation order <= n, in lexicographic order.

    The per-axis order is -1 < 0 < 1 < ..., so the boundary layer of each
    axis precedes its interior levels.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("budget must be >= 0")
    if n > MAX_LEVEL:
        raise ValueError(f"budget exceeds MAX_LEVEL={MAX_LEVEL}")

    out: list[LevelVector] = []

    def extend(prefix: tuple[int, ...], used: int) -> None:
        if len(prefix) == d:
            out.append(LevelVector(prefix))
            return
        for e in range(-1, n - used + 1):
            extend(prefix + (e,), used + max(e, 0))

    extend((), 0)
    return out


def _check_translation(j: LevelVector, k: tuple[int, ...]) -> None:
    shape = j.translation_shape()
    if len(k) != len(shape):
        raise ValueError(f"translation {k} has wrong dimension for level {j.entries}")
    for ki, ci in zip(k, shape):
        if not 0 <= ki < ci:
            raise ValueError(f"translation {k} out of range for level {j.entries}")


def translations(j) -> Iterator[tuple[int, ...]]:
    """Iterate the admissible translations of level j in lexicographic order."""
    j = _as_level(j)
    return itertools.product(*(range(c) for c in j.translation_shape()))


def capped_node_count(n: int, d: int) -> int:
    """m(n, d) = node_count(n, d), after checking the budget is plannable.

    Raises ValueError, before anything is allocated, for a budget above
    MAX_LEVEL or a node count above MAX_POINTS.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("budget must be >= 0")
    if n > MAX_LEVEL:
        raise ValueError(f"budget exceeds MAX_LEVEL={MAX_LEVEL}")
    m = node_count(n, d)
    if m > MAX_POINTS:
        raise ValueError(f"budget n={n} needs {m} nodes in d={d}, over the cap {MAX_POINTS}")
    return m


@functools.lru_cache(maxsize=64)
def _levels(n: int, d: int) -> tuple:
    """The series layout of order <= n, enumerated once per (n, d).

    Returns ``(levels, entries, starts, position)``: the levels of
    :func:`levels_up_to` as a tuple, their (L, d) int64 entries, the
    (L + 1,) offsets of each level's block in series order, and a dict
    from a level's entries to its index.  Call only after
    :func:`capped_node_count` has passed.
    """
    levels = tuple(levels_up_to(n, d))
    entries = np.array([j.entries for j in levels], dtype=np.int64)
    sizes = np.where(entries < 0, 2, 1 << np.maximum(entries, 0)).prod(axis=1)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    entries.setflags(write=False)
    starts.setflags(write=False)
    return levels, entries, starts, {j.entries: i for i, j in enumerate(levels)}


def _plan(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coefficient table of the series of order <= n, in series order.

    Returns ``(entries, owner, k)``: the (L, d) level entries of
    :func:`_levels`, and per coefficient i its level ``entries[owner[i]]``
    and its translation ``k[i]``, an (m, d) int64 array (levels in the
    order of :func:`levels_up_to`, translations of a level in
    lexicographic order, the last axis fastest).  Fails like
    :func:`capped_node_count`.
    """
    m = capped_node_count(n, d)
    _, entries, starts, _ = _levels(n, d)
    owner = np.repeat(np.arange(len(entries)), np.diff(starts))
    shape = np.where(entries < 0, 2, 1 << np.maximum(entries, 0))
    flat = np.arange(m) - starts[owner]
    k = np.empty((m, d), dtype=np.int64)
    for axis in reversed(range(d)):
        count = shape[owner, axis]
        k[:, axis] = flat % count
        flat //= count
    return entries, owner, k


def node_set(n: int, d: int) -> np.ndarray:
    """The (m, d) uint64 lattice rows of all nodes of order <= n.

    Row i is :func:`node` of the i-th coefficient in series order: levels
    in the order of :func:`levels_up_to`, translations of a level in
    lexicographic order.  The rows are distinct and their set is the
    union of all surplus stencils of order <= n.  Fails like
    :func:`capped_node_count`.
    """
    entries, owner, k = _plan(n, d)
    nodes = k.view(np.uint64)  # each translation becomes its lattice coordinate in place
    for axis in range(d):
        e = entries[owner, axis]
        shift = np.where(e < 0, LATTICE_LEVEL, LATTICE_LEVEL - 1 - e).astype(np.uint64)
        nodes[:, axis] = np.where(e < 0, nodes[:, axis], 2 * nodes[:, axis] + 1) << shift
    return nodes


def node(j, k) -> np.ndarray:
    """Node owned by the coefficient (j, k): the centre of its support.

    A (d,) uint64 lattice row with coordinate (2 k_i + 1) * 2**-(j_i + 1)
    along an active axis and k_i along a boundary axis: the middle point
    of the stencil, and the row of (j, k) in :func:`node_set`.
    """
    stencil = coeff_sample_points(j, k)
    return stencil[len(stencil) // 2]


def coeff_sample_points(j, k) -> np.ndarray:
    """Evaluation stencil of the hierarchical surplus at (j, k).

    Per active axis (j_i >= 0) the three abscissae x, x + h, x + 2h with
    x = k_i * 2**-j_i, the paper's node x_{j,k}, and h = 2**-(j_i + 1); per
    boundary axis the single abscissa k_i.  Returns the 3**(#active)
    points as a uint64 lattice array in stencil-lexicographic order, so
    the first row is x_{j,k}.
    """
    j = _as_level(j)
    k = tuple(int(v) for v in k)
    _check_translation(j, k)
    axes = [
        [ki << LATTICE_LEVEL] if e < 0
        else [(2 * ki + t) << (LATTICE_LEVEL - 1 - e) for t in range(3)]
        for e, ki in zip(j.entries, k)
    ]
    return np.array(list(itertools.product(*axes)), dtype=np.uint64)


def to_floats(lattice) -> np.ndarray:
    """Binary64 coordinates of lattice integers (any shape)."""
    return np.ldexp(np.asarray(lattice, dtype=np.uint64).astype(np.float64), -LATTICE_LEVEL)


def node_count(n: int, d: int) -> int:
    """Exact number of rows of node_set(n, d), without materializing it.

    A lattice point is a node iff the per-axis costs max(ell_i - 1, 0)
    of its exact dyadic levels ell_i sum to at most n.  Per axis there
    are 3 points of cost 0 (the endpoints and 1/2) and 2**c of cost
    c >= 1, so the count is a d-fold convolution truncated at cost n.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("budget must be >= 0")
    axis = [3] + [1 << c for c in range(1, n + 1)]
    ways = [1] + [0] * n  # ways[c]: points of the axes so far with total cost c
    for _ in range(d):
        ways = [sum(ways[a] * axis[c - a] for a in range(c + 1)) for c in range(n + 1)]
    return sum(ways)
