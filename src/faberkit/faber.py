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

import io
import itertools
import json
import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .dyadic import (
    LATTICE_LEVEL,
    MAX_LEVEL,
    LevelVector,
    _as_level,
    _check_translation,
    _levels,
    capped_node_count,
    coeff_sample_points,
    node_set,
    to_floats,
    translations,
)

__all__ = [
    "EvaluationError",
    "FunctionHandle",
    "FaberSeries",
    "hat_eval",
    "tensor_eval",
    "coeff",
    "analyze",
    "synthesize",
    "evaluate",
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

    __slots__ = ("label", "dim", "exact_integral", "exact_l2", "_evaluator", "_count")

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray],
        dim: int,
        label: str = "f",
        exact_integral: float | None = None,
        exact_l2: float | None = None,
    ):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self._evaluator = evaluator
        self.dim = int(dim)
        self.label = label
        self.exact_integral = exact_integral
        self.exact_l2 = exact_l2
        self._count = 0

    @property
    def eval_count(self) -> int:
        """Total number of point evaluations requested so far."""
        return self._count

    def eval_batch(self, points) -> np.ndarray:
        X = np.ascontiguousarray(points, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) points, got shape {X.shape}")
        self._count += X.shape[0]
        vals = np.asarray(self._evaluator(X), dtype=np.float64)
        if vals.shape != (X.shape[0],):
            raise ValueError(f"evaluator of {self.label!r} returned shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise EvaluationError(self.label, tuple(X[bad]), float(vals[bad]))
        return vals

    def __call__(self, x) -> float:
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return float(self.eval_batch(X)[0])

    @classmethod
    def from_scalar(cls, func: Callable[..., float], dim: int, **kwargs) -> "FunctionHandle":
        """Wrap a scalar callable f(x_1, ..., x_d) -> float."""

        def evaluator(X: np.ndarray) -> np.ndarray:
            return np.array([func(*row) for row in X], dtype=np.float64)

        return cls(evaluator, dim, **kwargs)

    def __repr__(self) -> str:
        return f"FunctionHandle({self.label!r}, dim={self.dim}, evals={self._count})"


def hat_eval(j: int, k: int, x: float) -> float:
    """Evaluate the univariate basis function (j, k) at x in [0,1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0,1]")
    if j == -1:
        if k not in (0, 1):
            raise ValueError(f"translation {k} out of range for level -1")
        return 1.0 - x if k == 0 else x
    if j < -1 or j > MAX_LEVEL:
        raise ValueError(f"level {j} out of range")
    if not 0 <= k < (1 << j):
        raise ValueError(f"translation {k} out of range for level {j}")
    t = math.ldexp(x, j) - k
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return 1.0 - abs(2.0 * t - 1.0)


def tensor_eval(j, k, x) -> float:
    """Product of per-axis basis values; exactly 0 outside the support box."""
    j = _as_level(j)
    k = tuple(int(v) for v in k)
    _check_translation(j, k)
    if len(x) != j.dim:
        raise ValueError("point dimension mismatch")
    out = 1.0
    for e, ki, xi in zip(j.entries, k, x):
        out *= hat_eval(e, ki, xi)
        if out == 0.0:
            return 0.0
    return out


def coeff(f: FunctionHandle, j, k) -> float:
    """Hierarchical coefficient of f at (j, k), the scalar oracle of analyze.

    Evaluates f once at each of the 3**(#active) points of
    :func:`coeff_sample_points` and contracts with the surplus weights,
    one active axis at a time in axis order, as :func:`analyze` does.
    """
    j = _as_level(j)
    vals = f.eval_batch(to_floats(coeff_sample_points(j, k)))
    vals = vals.reshape((3,) * len(j.active_axes()))
    for _ in j.active_axes():  # contract the leading axis, in axis order
        left, mid, right = vals
        vals = -0.5 * (left - 2.0 * mid + right)
    return float(vals)


def _flat_index(k: Iterable, shape: tuple[int, ...]):
    """Position of translation k in the lexicographic order of its level.

    Works on integers and, elementwise, on integer arrays.
    """
    flat = 0
    for ki, c in zip(k, shape):
        flat = flat * c + ki
    return flat


class FaberSeries:
    """Coefficients of a truncated expansion: one flat vector in series order.

    ``coeffs`` holds one read-only float64 entry per coefficient of
    truncation order <= budget, in the order of ``node_set(budget, dim)``:
    levels in the order of :func:`levels_up_to`, the translations of a
    level in lexicographic order.  :meth:`items` and :meth:`array` are
    per-level views into it.  Instances are immutable and safe to share.
    """

    __slots__ = ("budget", "dim", "coeffs", "_layout")

    def __init__(self, budget: int, dim: int, coeffs):
        m = capped_node_count(budget, dim)
        flat = np.array(coeffs, dtype=np.float64)
        if flat.shape != (m,):
            raise ValueError(
                f"budget {budget} in d={dim} expects {m} coefficients, got shape {flat.shape}"
            )
        layout = _levels(budget, dim)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            levels, _, starts, _ = layout
            j = levels[np.searchsorted(starts, bad[0], side="right") - 1]
            raise ValueError(f"non-finite coefficient at level {j.entries}")
        flat.setflags(write=False)
        object.__setattr__(self, "budget", int(budget))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "coeffs", flat)
        object.__setattr__(self, "_layout", layout)

    @classmethod
    def zeros(cls, budget: int, dim: int) -> "FaberSeries":
        return cls(budget, dim, np.zeros(capped_node_count(budget, dim)))

    def __setattr__(self, name, value):
        raise AttributeError("FaberSeries is immutable")

    def levels(self) -> tuple[LevelVector, ...]:
        return self._layout[0]

    def items(self) -> Iterator[tuple[LevelVector, np.ndarray]]:
        levels, _, starts, _ = self._layout
        for i, j in enumerate(levels):
            yield j, self.coeffs[starts[i] : starts[i + 1]]

    def array(self, j) -> np.ndarray:
        """Read-only flat coefficient array of level j (translation order)."""
        j = _as_level(j)
        _, _, starts, position = self._layout
        i = position.get(j.entries)
        if i is None:
            raise ValueError(f"level {j.entries} not stored (budget {self.budget})")
        return self.coeffs[starts[i] : starts[i + 1]]

    def get(self, j, k) -> float:
        j = _as_level(j)
        k = tuple(int(v) for v in k)
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

    def scaled(self, alpha: float) -> "FaberSeries":
        return FaberSeries(self.budget, self.dim, alpha * self.coeffs)

    def plus(self, other: "FaberSeries") -> "FaberSeries":
        self._check_shape(other)
        return FaberSeries(self.budget, self.dim, self.coeffs + other.coeffs)

    def __repr__(self) -> str:
        return f"FaberSeries(budget={self.budget}, dim={self.dim}, size={self.size})"


def analyze(f: FunctionHandle, n: int, d: int | None = None) -> FaberSeries:
    """Compute every coefficient of truncation order <= n from samples of f.

    Each coefficient (j, k) owns one node, the centre of its support, so
    the rows of ``node_set(n, d)`` are the nodes of the flattened series.
    f is evaluated once, in one batch, at those m(n, d) distinct nodes (a
    fresh handle counts exactly m(n, d) evaluations), then the nodal
    values are hierarchized in place with one (+1, -2, +1) / -2 sweep per
    axis (Bungartz & Griebel, Sparse grids, Acta Numerica 13, 2004,
    sec. 4).  Raises ValueError before sampling when m(n, d) exceeds
    MAX_POINTS.
    """
    if d is None:
        d = f.dim
    elif d != f.dim:
        raise ValueError(f"requested d={d} but handle has dim={f.dim}")
    lattice = node_set(n, d)
    values = f.eval_batch(to_floats(lattice))

    # Hierarchize on the integer lattice of step 2**-(n+1): a level-e axis
    # node sits at the odd multiple (2k + 1) * 2**(n - e), a boundary node
    # at 0 or `top`.
    nodes = (lattice >> np.uint64(LATTICE_LEVEL - n - 1)).astype(np.int64)
    top = 1 << (n + 1)

    # The neighbours of a node along an axis are its parents there; they
    # are found by their flat key (mixed radix top + 1), which fits an
    # int64 for every (n, d) under the MAX_POINTS cap.
    place = (top + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    key = nodes @ place
    order = np.argsort(key)
    sorted_key = key[order]
    for axis in range(d):
        coord = nodes[:, axis]
        inner = np.flatnonzero(coord % top != 0)
        step = (coord[inner] & -coord[inner]) * place[axis]
        left = order[np.searchsorted(sorted_key, key[inner] - step)]
        right = order[np.searchsorted(sorted_key, key[inner] + step)]
        values[inner] = -0.5 * (values[left] - 2.0 * values[inner] + values[right])
    return FaberSeries(n, d, values)


def evaluate_batch(series: FaberSeries, points) -> np.ndarray:
    """Evaluate the truncated expansion at an (N, d) batch of points.

    Uses support locality: per level and point only the covering cell
    contributes per active axis (left-closed cell convention; values at
    cell interfaces agree by continuity) and both boundary functions
    contribute on level -1 axes.
    """
    X = np.ascontiguousarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != series.dim:
        raise ValueError(f"expected (N, {series.dim}) points, got {X.shape}")
    outside = np.flatnonzero(~np.all((X >= 0.0) & (X <= 1.0), axis=1))
    if outside.size:
        raise ValueError(f"point {tuple(X[outside[0]].tolist())} outside [0,1]^d")
    out = np.zeros(X.shape[0])
    for j, arr in series.items():
        if not arr.any():
            continue
        shape = j.translation_shape()
        choices: list[list[tuple[object, object]]] = []
        for axis, e in enumerate(j.entries):
            xi = X[:, axis]
            if e >= 0:
                t = np.ldexp(xi, e)
                k = np.minimum(np.floor(t).astype(np.int64), (1 << e) - 1)
                tent = 1.0 - np.abs(2.0 * (t - k) - 1.0)
                choices.append([(k, tent)])
            else:
                choices.append([(0, 1.0 - xi), (1, xi)])
        for combo in itertools.product(*choices):
            ks, vals = zip(*combo)
            out += arr[_flat_index(ks, shape)] * math.prod(vals)
    return out


def evaluate(series: FaberSeries, x) -> float:
    """Pointwise value of the truncated expansion at x in [0,1]^d."""
    X = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(evaluate_batch(series, X)[0])


def synthesize(series: FaberSeries, label: str | None = None) -> FunctionHandle:
    """Wrap a coefficient series as an exactly evaluable function handle.

    The handle evaluates the finite expansion via support locality and
    ships its exact integral, so synthesized series double as test
    functions with known answers.
    """
    if label is None:
        label = f"series[d={series.dim},n={series.budget}]"
    return FunctionHandle(
        lambda X: evaluate_batch(series, X),
        series.dim,
        label=label,
        exact_integral=integrate(series),
    )


def integrate(series: FaberSeries) -> float:
    """Exact integral over [0,1]^d of the truncated expansion.

    Per axis a hat of level j has integral 2**-(j+1) and each boundary
    function has integral 1/2; the weight of level j is the product.
    """
    terms = []
    for j, arr in series.items():
        w = 1.0
        for e in j.entries:
            w *= 0.5 if e == -1 else math.ldexp(1.0, -e - 1)
        terms.append(w * float(np.sum(arr)))
    return math.fsum(terms)


# -- serialization -----------------------------------------------------------
#
# Text format: header "dim <d> budget <n>", then one line per coefficient
# "j_1 .. j_d k_1 .. k_d value" in level/translation order, values printed
# as shortest round-trip decimals.  The JSON variant mirrors the fields.


def series_to_text(series: FaberSeries) -> str:
    buf = io.StringIO()
    buf.write(f"dim {series.dim} budget {series.budget}\n")
    for j, arr in series.items():
        js = " ".join(str(e) for e in j.entries)
        for flat, k in enumerate(translations(j)):
            ks = " ".join(str(v) for v in k)
            buf.write(f"{js} {ks} {float(arr[flat])!r}\n")
    return buf.getvalue()


def _build_series(d: int, n: int, entries: Iterable[tuple[tuple, tuple, float]]) -> FaberSeries:
    """Series from ``(j, k, value)`` entries, each coefficient exactly once."""
    values = np.zeros(capped_node_count(n, d))
    levels, _, starts, position = _levels(n, d)
    starts = starts.tolist()
    seen = set()
    for j_entries, k, value in entries:
        i = position.get(j_entries)
        if i is None:
            raise ValueError(f"level {j_entries} outside budget {n} in d={d}")
        j = levels[i]
        _check_translation(j, k)
        pos = starts[i] + _flat_index(k, j.translation_shape())
        if pos in seen:
            raise ValueError(f"duplicate coefficient at level {j_entries}, translation {k}")
        seen.add(pos)
        values[pos] = value
    missing = values.size - len(seen)
    if missing:
        raise ValueError(f"series misses {missing} coefficient line(s)")
    return FaberSeries(n, d, values)


def series_from_text(text: str) -> FaberSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dim" or head[2] != "budget":
        raise ValueError(f"bad header {lines[0]!r}")
    d, n = int(head[1]), int(head[3])
    entries = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 * d + 1:
            raise ValueError(f"bad coefficient line {ln!r}")
        ints = tuple(int(v) for v in parts[: 2 * d])
        entries.append((ints[:d], ints[d:], float(parts[2 * d])))
    return _build_series(d, n, entries)


def series_to_json(series: FaberSeries) -> str:
    entries = []
    for j, arr in series.items():
        for flat, k in enumerate(translations(j)):
            entries.append(
                {"j": list(j.entries), "k": list(k), "value": float(arr[flat])}
            )
    doc = {"dim": series.dim, "budget": series.budget, "entries": entries}
    return json.dumps(doc, separators=(",", ":"))


def series_from_json(text: str) -> FaberSeries:
    doc = json.loads(text)
    d, n = int(doc["dim"]), int(doc["budget"])
    entries = (
        (
            tuple(int(v) for v in entry["j"]),
            tuple(int(v) for v in entry["k"]),
            float(entry["value"]),
        )
        for entry in doc["entries"]
    )
    return _build_series(d, n, entries)
