"""Exact dyadic index arithmetic for hierarchical sparse grids.

Everything in this module lives in exact integer arithmetic.  A point
coordinate is a pair ``(num, level)`` meaning ``num * 2**-level``, or
the lattice integer ``num * 2**(LATTICE_LEVEL - level)``; either makes
point identity bit-exact, so sample caches and node deduplication never
depend on floating point.  Conversion to binary64 happens only when a
function is actually evaluated.

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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

#: Hard cap on level entries: 2**MAX_LEVEL must fit an int64.  Stencil
#: points live one level below their owner, hence the +1 slack for points.
MAX_LEVEL = 62

#: Finest point level.  Sample points are keyed by their exact lattice
#: coordinates ``x_i * 2**LATTICE_LEVEL``: integers in [0, 2**63], which
#: fit an uint64.
LATTICE_LEVEL = MAX_LEVEL + 1

#: Cap on the points one pass may hold: the sparse-grid nodes of an
#: analysis, or the evaluation points of one measurement pass (both mesh
#: levels of a Richardson pair).
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


def _canonical(num: int, level: int) -> tuple[int, int]:
    if level < 0:
        raise ValueError("point level must be >= 0")
    if level > LATTICE_LEVEL:
        raise ValueError(f"point level {level} exceeds cap {LATTICE_LEVEL}")
    if num < 0 or num > (1 << level):
        raise ValueError(f"coordinate {num}/2^{level} outside [0,1]")
    while level > 0 and num % 2 == 0:
        num //= 2
        level -= 1
    return (num, level)


class DyadicPoint:
    """A point of [0,1]^d with exact dyadic-rational coordinates.

    Coordinates are canonical ``(numerator, level)`` pairs: the numerator
    is odd, or the pair is one of the endpoints ``(0, 0)`` / ``(1, 0)``.
    Two points are equal iff their canonical coordinates are equal.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[tuple[int, int]]):
        pairs = tuple(_canonical(int(n), int(l)) for (n, l) in coords)
        if not pairs:
            raise ValueError("point needs dimension >= 1")
        object.__setattr__(self, "coords", pairs)

    @classmethod
    def _from_canonical(cls, coords: tuple[tuple[int, int], ...]) -> "DyadicPoint":
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        return p

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(math.ldexp(n, -l) for n, l in self.coords)

    def lattice(self) -> tuple[int, ...]:
        """Exact integer coordinates ``x_i * 2**LATTICE_LEVEL``."""
        return tuple(n << (LATTICE_LEVEL - l) for n, l in self.coords)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicPoint is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, DyadicPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __lt__(self, other: "DyadicPoint") -> bool:
        # numeric per-axis order; used only for deterministic listings
        for (n1, l1), (n2, l2) in zip(self.coords, other.coords):
            a, b = n1 << max(l2 - l1, 0), n2 << max(l1 - l2, 0)
            if a != b:
                return a < b
        return False

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}/2^{l}" if l else str(n) for n, l in self.coords)
        return f"DyadicPoint({parts})"


def node(j, k) -> DyadicPoint:
    """Sample node of (j, k): coordinate ``k_i * 2**-max(j_i, 0)`` per axis."""
    j = _as_level(j)
    k = tuple(int(v) for v in k)
    _check_translation(j, k)
    return DyadicPoint(
        (ki, e if e >= 0 else 0) for ki, e in zip(k, j.entries)
    )


def coeff_sample_points(j, k) -> list[DyadicPoint]:
    """Evaluation stencil of the hierarchical surplus at (j, k).

    Per active axis (j_i >= 0) the three abscissae x, x + h, x + 2h with
    h = 2**-(j_i + 1); per boundary axis the single abscissa k_i.  The
    3**(#active) points are returned in stencil-lexicographic order and
    all lie inside [0,1]^d.
    """
    j = _as_level(j)
    k = tuple(int(v) for v in k)
    _check_translation(j, k)
    axes: list[list[tuple[int, int]]] = []
    for ki, e in zip(k, j.entries):
        if e >= 0:
            axes.append([_canonical(2 * ki + t, e + 1) for t in range(3)])
        else:
            axes.append([(ki, 0)])
    return [DyadicPoint._from_canonical(c) for c in itertools.product(*axes)]


def node_set(n: int, d: int) -> set[DyadicPoint]:
    """Deduplicated union of all surplus stencils with order <= n.

    Per level the stencils tile the tensor grid of step 2**-(j_i+1) per
    active axis (the endpoint pair per boundary axis), so the union is
    assembled level-grid by level-grid; the result is identical to
    brute-force stencil enumeration.
    """
    pts: set[DyadicPoint] = set()
    for j in levels_up_to(n, d):
        axes = [
            [(0, 0), (1, 0)] if e < 0
            else [_canonical(t, e + 1) for t in range((1 << (e + 1)) + 1)]
            for e in j.entries
        ]
        for combo in itertools.product(*axes):
            pts.add(DyadicPoint._from_canonical(combo))
    return pts


def node_count(n: int, d: int) -> int:
    """Exact size of node_set(n, d) without materializing it.

    A point belongs to the union iff the per-axis costs max(ell_i - 1, 0)
    of its exact canonical levels ell_i sum to at most n.  Per axis there
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
