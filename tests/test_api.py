"""Public surface: which callables take a grid, the retired spellings, the
trend policy and weight fields, and the names the benchmark's tracer wraps."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import growthcomp
from growthcomp import TrendPolicy, Weight, default_grid

# weight analyze hands these the grid of its run configuration; everything
# else samples the default grid
GRID_TAKERS = {"rapidly_decreasing", "is_convex_weight", "sandwich_check",
               "associated_sequence"}


def test_public_names_are_the_package_imports():
    modules = [m for m in vars(growthcomp).values() if inspect.ismodule(m)]
    assert all(m.__name__.startswith("growthcomp.") for m in modules)
    assert growthcomp.__all__ == sorted(set(growthcomp.__all__))
    for name in growthcomp.__all__:
        assert not name.startswith("_"), name
        obj = getattr(growthcomp, name)
        assert not inspect.ismodule(obj), name
        assert any(getattr(m, name, None) is obj for m in modules), name


def test_retired_spellings_are_gone():
    # omega_M and its counting function are AssociatedWeight methods only
    for name in ("omega_eval", "counting"):
        assert name not in growthcomp.__all__
        assert not hasattr(growthcomp.associated_weight, name)
    # the recovery's reliable share and the gate's factor 2 are constants
    assert list(inspect.signature(growthcomp.legendre_recover).parameters) == [
        "omega", "J"]
    assert list(inspect.signature(growthcomp.strong_ratio_check).parameters) == [
        "u", "c", "policy"]


def test_only_the_weight_analyze_checks_take_a_grid():
    takers = set()
    for name in growthcomp.__all__:
        obj = getattr(growthcomp, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "grid" in params:
                takers.add(name)
    assert takers == GRID_TAKERS


def test_trend_policy_derives_its_ratio_margin():
    assert [f.name for f in dataclasses.fields(TrendPolicy)] == ["margin", "window_fraction"]
    for m in (0.05, 0.1, 0.3, 0.07):
        assert TrendPolicy(margin=m).ratio_margin == m / 2


def test_weight_is_plain_data():
    # normalization is read off omega (is_normalized), never stored
    assert [f.name for f in dataclasses.fields(Weight)] == [
        "base", "label", "shift", "scale", "offset"]


def test_default_grid_is_built_once():
    assert default_grid() is default_grid()


def test_every_traced_target_exists(monkeypatch):
    # bench/run.py --trace 1 wraps each TARGETS entry by name; a renamed
    # function or method would break the traced run
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for name, (module, qual, _) in tracing.TARGETS.items():
        obj = importlib.import_module(f"growthcomp.{module}")
        for attr in qual.split("."):
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name
