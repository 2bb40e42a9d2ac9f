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

from .dyadic import _levels, _plan, capped_node_count
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
    magnitude 2**(-order/p)) is exact.  All signs come from one uint64
    pass over the planner's per-coefficient (level, translation) table.
    The series has node_count(depth, d) coefficients; a depth over the
    MAX_POINTS cap raises ValueError before anything is built.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    entries, owner, k = _plan(depth, d)
    scales = np.array([2.0 ** (-order / p) for order in range(depth + 1)])
    interior = (entries >= 0).all(axis=1)[owner]
    scale = scales[np.maximum(entries, 0).sum(axis=1)][owner]
    j = entries.view(np.uint64)[owner]
    bits = _hash_key(seed, 0, *j.T, *k.T.view(np.uint64)) & 1
    coeffs = np.where(interior, scale * np.where(bits, 1.0, -1.0), 0.0)
    series = FaberSeries(depth, d, coeffs)
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
    if depth < 1:
        raise ValueError("depth must be >= 1")
    coeffs = np.zeros(capped_node_count(depth, d))
    levels, _, starts, _ = _levels(depth, d)
    for j, start in zip(levels, starts.tolist()):
        if all(e >= 0 for e in j.entries):
            flat = 0
            for axis, c in enumerate(j.translation_shape()):
                pos = _hash_key(seed, 1, axis, *j.entries) & (c - 1)
                flat = flat * c + pos
            coeffs[start + flat] = 1.0 if _hash_key(seed, 0, *j.entries, flat) & 1 else -1.0
    series = FaberSeries(depth, d, coeffs)
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
        lambda X: np.prod(np.abs(X - carr), axis=1),
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


def _x2_eval(X: np.ndarray) -> np.ndarray:
    return np.prod(X * X, axis=1)


def _exp_eval(X: np.ndarray) -> np.ndarray:
    return np.exp(np.sum(X, axis=1))


def _polymix_eval(X: np.ndarray) -> np.ndarray:
    return np.prod(1.0 + X - 2.0 * X**3, axis=1)


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
