"""Public surface: which callables take a grid, and the trend policy fields."""

from __future__ import annotations

import dataclasses
import inspect

import growthcomp
from growthcomp import TrendPolicy, default_grid

# weight analyze hands these the grid of its run configuration; everything
# else samples the default grid
GRID_TAKERS = {"rapidly_decreasing", "is_convex_weight", "sandwich_check",
               "associated_sequence"}


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


def test_default_grid_is_built_once():
    assert default_grid() is default_grid()
