"""Test functions with controlled hierarchical-coefficient structure.

The catalog covers four regimes:

* prescribed-coefficient families (:func:`extremal`, :func:`spike`) whose
  exact series is known, so truncation errors have semi-analytic tails;
* a product-kink function with closed-form integral for cubature tests;
* the hat family v_{j,0} used in the non-compactness demonstration;
* smooth references with exact integrals and L_2 norms.

Random signs and positions come from a counter-style generator keyed by
(seed, level, translation), so coefficient values are reproducible and
independent of generation order.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import _ROWS, _check_int, _flat_index, _levels, _plan
from .faber import FaberSeries, FunctionHandle, synthesize

__all__ = [
    "extremal",
    "spike",
    "kink",
    "default_kink_anchor",
    "hat_family",
    "smooth",
    "SMOOTH_IDS",
]

_MASK = (1 << 64) - 1


def _mix64(z):
    """splitmix64 finalizer on a Python int or, elementwise, a uint64 array.

    Arrays wrap modulo 2**64 by themselves, so the masks only matter for
    ints; the whole generator is these mixes chained.
    """
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _hash_key(seed: int, tag: int, *vals):
    """Counter hash of (seed, tag, vals); vals are ints or uint64 arrays."""
    h = _mix64((seed & _MASK) ^ (tag * 0xD1B54A32D192ED03 & _MASK))
    for v in vals:
        h = _mix64(h ^ (v & _MASK))
    return h


def extremal(p: float, depth: int, seed: int, d: int) -> tuple[FunctionHandle, FaberSeries]:
    """Prescribed series with level_lp == 1 on every interior level.

    Each interior level j (all entries >= 0, order <= depth) carries the
    full translation set with coefficients ``2**(-order/p)`` and signs
    from the low bit of ``_hash_key(seed, 0, *j, *k)``; levels touching
    the boundary are zero so the normalization (2**order coefficients of
    magnitude 2**(-order/p)) is exact.  The signs come from uint64 passes
    over chunks of ``dyadic._ROWS`` rows of the planner's per-coefficient
    (level, translation) table, which bounds their temporaries to O(_ROWS)
    words next to that table.  The series has node_count(depth, d) coefficients; a depth over
    the MAX_POINTS cap raises ValueError before anything is built.
    """
    if not p >= 1.0:  # NaN fails too
        raise ValueError("p must be >= 1")
    depth, seed = _check_int("depth", depth), _check_int("seed", seed)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    layout = _levels(depth, d)
    owner, k = _plan(layout)
    scales = np.array([2.0 ** (-order / p) for order in range(depth + 1)])
    interior = (layout.entries >= 0).all(axis=1)
    scale = scales[layout.orders]
    j = layout.entries.view(np.uint64)
    coeffs = np.empty(len(owner))
    for start in range(0, len(owner), _ROWS):
        rows = slice(start, start + _ROWS)
        level = owner[rows]
        bits = _hash_key(seed, 0, *j[level].T, *k[rows].T.view(np.uint64)) & 1
        coeffs[rows] = np.where(interior[level], scale[level] * np.where(bits, 1.0, -1.0), 0.0)
    series = FaberSeries._adopt(depth, d, coeffs, layout)
    handle = synthesize(series, label=f"extremal(p={p:g},J={depth},seed={seed})")
    return handle, series


def spike(depth: int, seed: int, d: int) -> tuple[FunctionHandle, FaberSeries]:
    """Prescribed series with one +-1 coefficient per interior level.

    The single unit coefficient sits at a seeded translation, so
    level_lp == 1 simultaneously for every p; the levels concentrate
    instead of spreading, which makes the family saturate L_q truncation
    errors with q above the coefficient exponent.  Depths over the
    MAX_POINTS cap fail as in :func:`extremal`.
    """
    depth, seed = _check_int("depth", depth), _check_int("seed", seed)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    layout = _levels(depth, d)
    coeffs = np.zeros(layout.size)
    rows = zip(layout.entries.tolist(), layout.shapes.tolist(), layout.starts.tolist())
    for j, shape, start in rows:
        if all(e >= 0 for e in j):
            k = [_hash_key(seed, 1, axis, *j) & (c - 1) for axis, c in enumerate(shape)]
            flat = _flat_index(k, shape)
            coeffs[start + flat] = 1.0 if _hash_key(seed, 0, *j, flat) & 1 else -1.0
    series = FaberSeries._adopt(depth, d, coeffs, layout)
    handle = synthesize(series, label=f"spike(J={depth},seed={seed})")
    return handle, series


def _is_shallow_dyadic(c: float, max_level: int = 40) -> bool:
    scaled = c * float(1 << max_level)
    return scaled == math.floor(scaled)


def default_kink_anchor(d: int) -> tuple[float, ...]:
    """Anchor coordinates frac(1/sqrt(2) + i/sqrt(3)), non-dyadic per axis."""
    return tuple((math.sqrt(0.5) + i / math.sqrt(3.0)) % 1.0 for i in range(d))


def kink(anchor=None, d: int = 1) -> FunctionHandle:
    """Product kink ``prod_i |x_i - c_i|`` with closed-form integral.

    Anchors must be strictly interior and not dyadic at shallow levels
    (a dyadic anchor makes the expansion finite and the decay test
    degenerate).  Ships exact integral and exact L_2 norm.
    """
    if anchor is None:
        anchor = default_kink_anchor(d)
    c = tuple(float(v) for v in anchor)
    if len(c) != d:
        raise ValueError("anchor dimension mismatch")
    for v in c:
        if not 0.0 < v < 1.0:
            raise ValueError(f"anchor coordinate {v} not interior")
        if _is_shallow_dyadic(v):
            raise ValueError(f"anchor coordinate {v} is dyadic (degenerate expansion)")
    carr = np.asarray(c)
    integral = math.prod((v * v + (1.0 - v) ** 2) / 2.0 for v in c)
    l2sq = math.prod(((1.0 - v) ** 3 + v**3) / 3.0 for v in c)
    return FunctionHandle(
        lambda X: _column_product(lambda x, i: np.abs(x - carr[i]), X),
        d,
        label=f"kink{c}",
        exact_integral=integral,
        exact_l2=math.sqrt(l2sq),
    )


def hat_family(j: int, d: int = 1) -> FunctionHandle:
    """The hat v_{j,0} on axis 1, tensorized with the constant 1.

    Members are uniformly bounded in every level-wise coefficient norm,
    yet any two of them are at uniform distance 1: the peak of the
    coarser hat is a zero of the finer one.
    """
    j = _check_int("hat level", j)
    if j < 0:
        raise ValueError("hat level must be >= 0")

    def evaluator(X: np.ndarray) -> np.ndarray:
        t = np.ldexp(X[:, 0], j)
        inside = (t > 0.0) & (t < 1.0)
        return np.where(inside, 1.0 - np.abs(2.0 * t - 1.0), 0.0)

    return FunctionHandle(
        evaluator,
        d,
        label=f"hat(j={j})",
        exact_integral=math.ldexp(1.0, -j - 1),
        exact_l2=math.sqrt(math.ldexp(1.0, -j) / 3.0),
    )


def _column_product(factor, X: np.ndarray) -> np.ndarray:
    """``prod_i factor(X[:, i], i)`` over the d columns of X, left to right.

    The same bytes as ``np.prod`` over axis 1 of the (N, d) factor array,
    which multiplies left to right too, without building that array or
    reducing over its short axis.
    """
    out = factor(X[:, 0], 0)
    for i in range(1, X.shape[1]):
        out *= factor(X[:, i], i)
    return out


def _x2_eval(X: np.ndarray) -> np.ndarray:
    return _column_product(lambda x, i: x * x, X)


def _exp_eval(X: np.ndarray) -> np.ndarray:
    return np.exp(np.sum(X, axis=1))


def _polymix_eval(X: np.ndarray) -> np.ndarray:
    # x**3 over the whole array: numpy's power is slower on strided columns
    twice_cubes = X**3
    twice_cubes *= 2.0
    return _column_product(lambda x, i: 1.0 + x - twice_cubes[:, i], X)


# id -> (evaluator, per-axis integral, per-axis second moment)
_SMOOTH = {
    "x2": (_x2_eval, 1.0 / 3.0, 1.0 / 5.0),
    "exp": (_exp_eval, math.e - 1.0, (math.e**2 - 1.0) / 2.0),
    "poly-mix": (_polymix_eval, 1.0, 116.0 / 105.0),
}

SMOOTH_IDS = tuple(sorted(_SMOOTH))


def smooth(name: str, d: int = 1) -> FunctionHandle:
    """Smooth separable reference with exact integral and L_2 norm."""
    try:
        evaluator, axis_int, axis_sq = _SMOOTH[name]
    except KeyError:
        raise ValueError(f"unknown smooth id {name!r}; choose from {SMOOTH_IDS}")
    return FunctionHandle(
        evaluator,
        d,
        label=f"smooth:{name}",
        exact_integral=axis_int**d,
        exact_l2=axis_sq ** (d / 2.0),
    )
