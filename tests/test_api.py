"""Public API pin: changes to faberkit's exported names must be deliberate."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import pytest

import faberkit
from faberkit.dyadic import LevelVector
from faberkit.faber import FaberSeries, FunctionHandle

PACKAGE_NAMES = [
    "CompositeGauss",
    "CubatureRecord",
    "EvaluationError",
    "FaberSeries",
    "FunctionHandle",
    "LevelVector",
    "MAX_LEVEL",
    "MeasureSpec",
    "NoncompactReport",
    "NormParams",
    "RateFit",
    "RateRecord",
    "SMOOTH_IDS",
    "StratifiedMC",
    "SupGrid",
    "WidthRecord",
    "analyze",
    "block_lq_exact",
    "comb_check",
    "convergence_study",
    "cubature_study",
    "decay_profile",
    "default_kink_anchor",
    "default_spec",
    "evaluate_batch",
    "extremal",
    "fit_rate",
    "hat_family",
    "integrate",
    "kink",
    "level_lp",
    "levels_up_to",
    "lq_error",
    "lq_norm",
    "node_count",
    "node_set",
    "noncompact_demo",
    "reference_envelope",
    "sampling_width_table",
    "seq_norm",
    "series_from_json",
    "series_from_text",
    "series_profile",
    "series_to_json",
    "series_to_text",
    "smooth",
    "spike",
    "synthesize",
]

MODULES = [
    importlib.import_module(f"faberkit.{info.name}")
    for info in pkgutil.iter_modules(faberkit.__path__)
]


def public(obj):
    return sorted(name for name in dir(obj) if not name.startswith("_"))


def test_package_names_pinned():
    names = [n for n in public(faberkit) if not isinstance(getattr(faberkit, n), types.ModuleType)]
    assert names == PACKAGE_NAMES


def test_series_attributes_pinned():
    assert public(FaberSeries) == [
        "array", "budget", "coeffs", "dim", "get", "items", "levels", "max_abs_diff", "size",
        "zeros",
    ]


def test_level_layout_fields_pinned():
    # one (L, d) table and per-level arrays; no object or dict per level
    fields = [f.name for f in dataclasses.fields(faberkit.dyadic._Layout)]
    assert fields == ["entries", "shapes", "starts", "size", "radix", "keys", "orders"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_scalar_oracles_only_in_tests():
    # hat_eval, tensor_eval, coeff, coeff_sample_points, node, translations
    # and the integer lattice (LATTICE_LEVEL, to_floats) live in
    # tests/oracles.py; evaluate is evaluate_batch on one point
    names = (
        "hat_eval", "tensor_eval", "coeff", "coeff_sample_points", "node", "evaluate",
        "translations", "LATTICE_LEVEL", "to_floats",
    )
    for name in names:
        for module in (faberkit, faberkit.faber, faberkit.dyadic):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(LevelVector, "active_axes")
    assert not hasattr(FunctionHandle, "from_scalar")


def test_plan_layer_only_in_dyadic():
    # what depends on (n, d) alone (layout, nodes, sweeps, reduction blocks,
    # the plan that holds them and its memo) lives in dyadic
    names = ("_plan", "_parent_steps", "_GridPlan", "_grid_plan", "_PLANS", "_ROWS")
    for name in names:
        planned = getattr(faberkit.dyadic, name)
        assert getattr(faberkit.faber, name, planned) is planned, name  # imported at most
    # one rows-per-pass constant, dyadic's, which every bounded loop imports
    for info in pkgutil.iter_modules(faberkit.__path__):
        module = importlib.import_module(f"faberkit.{info.name}")
        assert getattr(module, "_ROWS", faberkit.dyadic._ROWS) is faberkit.dyadic._ROWS, info.name
        for name in ("_GATHER", "_PRINT_ROWS", "_SIGN_ROWS", "_IO_BLOCK"):
            assert not hasattr(module, name), f"{info.name}.{name}"
    # one plan per (n, d) behind one memo; the blocks index the series, with no wrapper in faber
    gone = (
        "_hierarchy_plan", "_memoized_plan", "_reduction_plan", "_memoized_reductions",
        "_level_blocks", "_memo_when_small", "_hierarchy", "_reduction_blocks", "_levels",
    )
    for name in gone:
        for module in (faberkit.faber, faberkit.dyadic):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert list(inspect.signature(faberkit.dyadic._grid_plan).parameters) == ["n", "d"]
    for module in (faberkit.faber, faberkit.dyadic):
        assert not hasattr(module, "_lattice"), module.__name__


def test_defect_built_in_faber():
    # measure reads faber through FaberSeries, FunctionHandle and _defect only;
    # the evaluator internals and the joint-pass choice stay in faber
    for name in ("_evaluate_many", "_cube_points", "evaluate_batch"):
        assert hasattr(faberkit.faber, name) and not hasattr(faberkit.measure, name), name
    assert hasattr(faberkit.faber, "_defect")
    assert not hasattr(FunctionHandle, "_checked")
    for name in ("_grid_chunks", "_tensor_reduce", "_power_sum"):
        assert not hasattr(faberkit.measure, name), name
