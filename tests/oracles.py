"""Reference implementations the tests compare faberkit against.

Scalar, per-coefficient or per-level spellings of what the package
computes in vectorized form (nodes on an integer lattice, basis values,
surplus stencils, coefficients, series evaluation, testbed products as
one ``np.prod``, integrals, level norms, level and node enumeration,
series files read and written line by line), plus the random and
single-level series the tests draw.
Import as ``from oracles import ...``; pytest does not collect this
module.
"""

import io
import itertools
import json
import math

import numpy as np

from faberkit.dyadic import (
    MAX_LEVEL,
    LevelVector,
    _as_level,
    _check_translation,
    _flat_index,
    _grid_plan,
    levels_up_to,
)
from faberkit.faber import FaberSeries, FunctionHandle
from faberkit.seqnorm import level_lp

#: Finest lattice level of the integer route: a point x is the integer
#: ``x_i * 2**LATTICE_LEVEL``, in [0, 2**63], which fits a uint64, and
#: point identity is exact across levels.
LATTICE_LEVEL = MAX_LEVEL + 1


def to_floats(lattice) -> np.ndarray:
    """Binary64 coordinates of lattice integers (any shape)."""
    return np.ldexp(np.asarray(lattice, dtype=np.uint64).astype(np.float64), -LATTICE_LEVEL)


def translations(j):
    """Iterate the admissible translations of level j in lexicographic order."""
    j = _as_level(j)
    return itertools.product(*(range(c) for c in j.translation_shape()))


def from_scalar(func, dim, **kwargs) -> FunctionHandle:
    """Wrap a scalar callable f(x_1, ..., x_d) -> float as a handle."""
    return FunctionHandle(
        lambda X: np.array([func(*row) for row in X], dtype=np.float64), dim, **kwargs
    )


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


def node(j, k) -> np.ndarray:
    """Node owned by the coefficient (j, k): the middle row of its stencil."""
    stencil = coeff_sample_points(j, k)
    return stencil[len(stencil) // 2]


def lattice_nodes(n, d) -> np.ndarray:
    """:func:`node` of every coefficient of order <= n, in series order."""
    return np.array([node(j, k) for j in levels_up_to(n, d) for k in translations(j)])


def coeff(f, j, k) -> float:
    """Hierarchical coefficient of f at (j, k), the scalar oracle of analyze.

    Evaluates f once at each of the 3**(#active) points of
    :func:`coeff_sample_points` and contracts with the surplus weights,
    one active axis at a time in axis order, as analyze does.
    """
    j = _as_level(j)
    active = sum(e >= 0 for e in j.entries)
    vals = f.eval_batch(to_floats(coeff_sample_points(j, k)))
    vals = vals.reshape((3,) * active)
    for _ in range(active):  # contract the leading axis, in axis order
        left, mid, right = vals
        vals = -0.5 * (left - 2.0 * mid + right)
    return float(vals)


def naive_eval(series, x):
    """Full summation over every stored coefficient."""
    total = 0.0
    for j, arr in series.items():
        for flat, k in enumerate(translations(j)):
            total += arr[flat] * tensor_eval(j, k, x)
    return total


def per_level_eval(series, points):
    """evaluate_batch as a plain loop over levels and boundary choices.

    Per level with a nonzero block, each axis's (translation, value)
    choices are computed afresh, and every combination adds
    ``block[flat] * prod(values)``; evaluate_batch must match it bit for bit.
    """
    X = np.ascontiguousarray(points, dtype=np.float64)
    out = np.zeros(X.shape[0])
    for j, arr in series.items():
        if not arr.any():
            continue
        choices = []
        for axis, e in enumerate(j.entries):
            xi = X[:, axis]
            if e >= 0:
                t = np.ldexp(xi, e)
                k = np.minimum(np.floor(t).astype(np.int64), (1 << e) - 1)
                choices.append([(k, 1.0 - np.abs(2.0 * (t - k) - 1.0))])
            else:
                choices.append([(0, 1.0 - xi), (1, xi)])
        for combo in itertools.product(*choices):
            flat = 0
            for (k, _), c in zip(combo, j.translation_shape()):
                flat = flat * c + k
            out += arr[flat] * math.prod(v for _, v in combo)
    return out


def prod_kink_eval(anchor):
    """testbed.kink's evaluator as one np.prod over axis 1 of an (N, d) array."""
    c = np.asarray(anchor, dtype=np.float64)
    return lambda X: np.prod(np.abs(X - c), axis=1)


def prod_x2_eval(X):
    """The x2 smooth reference as one np.prod over axis 1."""
    return np.prod(X * X, axis=1)


def prod_polymix_eval(X):
    """The poly-mix smooth reference as one np.prod over axis 1."""
    return np.prod(1.0 + X - 2.0 * X**3, axis=1)


def per_level_integrate(series):
    """integrate as a loop over levels: weight times np.sum of each block."""
    terms = []
    for j, arr in series.items():
        w = 1.0
        for e in j.entries:
            w *= 0.5 if e == -1 else math.ldexp(1.0, -e - 1)
        terms.append(w * float(np.sum(arr)))
    return math.fsum(terms)


def per_level_profile(series, p):
    """series_profile as a loop over levels, one level_lp call each."""
    best = {}
    for j in series.levels():
        value = level_lp(series, j, p)
        order = j.order
        if value > best.get(order, 0.0):
            best[order] = value
    return [(order, best.get(order, 0.0)) for order in range(series.budget + 1)]


def per_level_seq_norm(series, params):
    """seq_norm as a loop over levels, one level_lp call each."""
    exponent = params.r - 1.0 / params.p
    terms = [
        2.0 ** (j.order * exponent) * level_lp(series, j, params.p)
        for j in series.levels()
    ]
    if math.isinf(params.q):
        return max(terms, default=0.0)
    top = max(terms, default=0.0)
    if top == 0.0:
        return 0.0
    return top * math.fsum((t / top) ** params.q for t in terms) ** (1.0 / params.q)


def brute_force_levels(n, d):
    """Filter the full box {-1..n}^d by truncation order."""
    out = []
    for entries in itertools.product(range(-1, n + 1), repeat=d):
        if sum(max(e, 0) for e in entries) <= n:
            out.append(entries)
    return out


def brute_force_nodes(n, d):
    """The definition: the union of all surplus stencils, as float tuples."""
    pts = set()
    for j in levels_up_to(n, d):
        for k in translations(j):
            pts |= set(map(tuple, to_floats(coeff_sample_points(j, k)).tolist()))
    return pts


def random_series(budget, dim, rng):
    """Series with coefficients uniform on [-1, 1], drawn level by level."""
    coeffs = [rng.uniform(-1.0, 1.0, j.translation_count()) for j in levels_up_to(budget, dim)]
    return FaberSeries(budget, dim, np.concatenate(coeffs))


def single_level_series(j, coeffs, budget=None):
    """Series whose only non-zero level is j; budget defaults to j's order."""
    j = LevelVector(tuple(j))
    if budget is None:
        budget = j.order
    blocks = [
        np.asarray(coeffs, dtype=float) if lv == j else np.zeros(lv.translation_count())
        for lv in levels_up_to(budget, j.dim)
    ]
    return FaberSeries(budget, j.dim, np.concatenate(blocks))


def per_line_to_text(series):
    """series_to_text as one f-string per coefficient."""
    buf = io.StringIO()
    buf.write(f"dim {series.dim} budget {series.budget}\n")
    for j, arr in series.items():
        js = " ".join(str(e) for e in j.entries)
        for flat, k in enumerate(translations(j)):
            ks = " ".join(str(v) for v in k)
            buf.write(f"{js} {ks} {float(arr[flat])!r}\n")
    return buf.getvalue()


def per_entry_to_json(series):
    """series_to_json as json.dumps of one dict per coefficient."""
    entries = []
    for j, arr in series.items():
        for flat, k in enumerate(translations(j)):
            entries.append({"j": list(j.entries), "k": list(k), "value": float(arr[flat])})
    doc = {"dim": series.dim, "budget": series.budget, "entries": entries}
    return json.dumps(doc, separators=(",", ":"))


def _per_entry_int_rows(rows, d):
    """(N, d) int64 table of integer tuples; a row of another length, or
    with an entry outside int64, becomes a row of -2."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), d)
    except (ValueError, OverflowError):  # ragged rows or huge integers
        bad = (-2,) * d
        return np.array(
            [r if len(r) == d and all(abs(v) < 1 << 62 for v in r) else bad for r in rows],
            dtype=np.int64,
        )


def _per_entry_build(d, n, entries):
    """Series from ``(j, k, value)`` tuples, as the readers built it entry by
    entry: the earliest failing entry is reported (level outside the
    budget, else translation out of range, else a duplicate), then an
    error raised while producing the entries, then missing coefficients."""
    layout = _grid_plan(n, d).layout
    m, level_entries, starts = layout.size, layout.entries, layout.starts
    levels = levels_up_to(n, d)
    position = {j.entries: i for i, j in enumerate(levels)}
    js, ks, vals = [], [], []
    parse_error = None
    try:
        for j, k, value in entries:
            js.append(j)
            ks.append(k)
            vals.append(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        parse_error = exc
    J, K = _per_entry_int_rows(js, d), _per_entry_int_rows(ks, d)
    radix = (n + 2) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    level_keys = (level_entries + 1) @ radix
    in_range = np.all((J >= -1) & (J <= n), axis=1)
    key = (np.where(in_range[:, None], J, -1) + 1) @ radix
    index = np.minimum(np.searchsorted(level_keys, key), len(levels) - 1)
    shape = layout.shapes[index]
    bad = ~(in_range & (level_keys[index] == key) & np.all((K >= 0) & (K < shape), axis=1))
    first_bad = int(np.argmax(bad)) if bad.any() else len(js)
    pos = starts[index[:first_bad]] + _flat_index(K[:first_bad].T, shape[:first_bad].T)
    _, first = np.unique(pos, return_index=True)
    if first.size < first_bad:
        repeat = np.ones(first_bad, dtype=bool)
        repeat[first] = False
        line = int(np.argmax(repeat))
        raise ValueError(f"duplicate coefficient at level {js[line]}, translation {ks[line]}")
    if first_bad < len(js):
        i = position.get(js[first_bad])
        if i is None:
            raise ValueError(f"level {js[first_bad]} outside budget {n} in d={d}")
        _check_translation(levels[i], ks[first_bad])
    if parse_error is not None:
        raise parse_error
    if first.size < m:
        raise ValueError(f"series misses {m - first.size} coefficient line(s)")
    values = np.zeros(m)
    values[pos] = vals
    return FaberSeries(n, d, values)


def per_line_from_text(text):
    """series_from_text with split, int and float per line."""
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
    return _per_entry_build(d, n, entries)


def per_entry_from_json(text):
    """series_from_json with int and float per entry field.

    It coerces what int() and float() accept (``"dim": 1.7``, ``"j":
    [-1.9]``, ``"value": "2"`` or ``true``) and lets a TypeError out for
    fields of another JSON type; series_from_json rejects both with
    ValueError, its only departures from this reader.
    """
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
    return _per_entry_build(d, n, entries)
