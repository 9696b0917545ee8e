"""Span tracing around growthcomp's public functions, from outside the package.

install() replaces each traced function with a wrapper that records one span
per call: name, start, end, parent span and operation id.  A function that
other modules imported by name is replaced in every growthcomp module that
holds it, and methods are replaced on their class, so every call path goes
through the wrapper.  Spans stay in memory until the round ends.

A span's self time is its duration minus the time its direct children cover;
calls are strictly nested on one thread, so children never overlap.  The
per-layer metrics sum self time over the spans of a layer, so the layers
partition the traced time instead of counting nested work twice.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# span name -> (module, qualified attribute, per-layer metric its self time
# adds to) of every traced callable.  AssociatedWeight.omega_log is split by
# its mode in Tracer.wrap, so its metric is left None here.
TARGETS = {
    "associated_weight.omega_log": ("associated_weight", "AssociatedWeight.omega_log", None),
    "associated_weight.legendre_recover": ("associated_weight", "legendre_recover",
                                           "associated_weight.legendre_recover.s"),
    "associated_weight.om1_ladder": ("associated_weight", "om1_ladder",
                                     "associated_weight.ladders.s"),
    "associated_weight.om6_ladder": ("associated_weight", "om6_ladder",
                                     "associated_weight.ladders.s"),
    "associated_weight.check_om1_omega": ("associated_weight", "check_om1_omega",
                                          "associated_weight.ladders.s"),
    "associated_weight.check_om6_omega": ("associated_weight", "check_om6_omega",
                                          "associated_weight.ladders.s"),
    "weight_functions.omega_log": ("weight_functions", "Weight.omega_log", None),
    "weight_functions.weight_preceq": ("weight_functions", "weight_preceq",
                                       "weight_functions.ladders.s"),
    "weight_functions.weight_triangle": ("weight_functions", "weight_triangle",
                                         "weight_functions.ladders.s"),
    "weight_functions.weight_preceq_dila": ("weight_functions", "weight_preceq_dila",
                                            "weight_functions.ladders.s"),
    "weight_functions.weight_preceq_pow": ("weight_functions", "weight_preceq_pow",
                                           "weight_functions.ladders.s"),
    "weight_functions.weight_triangle_dila": ("weight_functions", "weight_triangle_dila",
                                              "weight_functions.ladders.s"),
    "weight_functions.weight_preceq_all_dila": ("weight_functions", "weight_preceq_all_dila",
                                                "weight_functions.ladders.s"),
    "weight_functions.weight_triangle_pow": ("weight_functions", "weight_triangle_pow",
                                             "weight_functions.ladders.s"),
    "weight_functions.associated_sequence": ("weight_functions", "associated_sequence",
                                             "weight_functions.associated_sequence.s"),
    "weight_functions.sandwich_check": ("weight_functions", "sandwich_check",
                                        "weight_functions.sandwich_check.s"),
    "trend.classify": ("trend", "classify", "trend.classify.s"),
    "grids.Grid.__post_init__": ("grids", "Grid.__post_init__", "grids.s"),
    "grids.Grid.geometric": ("grids", "Grid.geometric", "grids.s"),
    "grids.Grid.geometric_log": ("grids", "Grid.geometric_log", "grids.s"),
    "grids.Grid.clip": ("grids", "Grid.clip", "grids.s"),
    "grids.Grid.augment": ("grids", "Grid.augment", "grids.s"),
    "grids.default_grid": ("grids", "default_grid", "grids.s"),
    "sequence_core.log_convex_minorant": ("sequence_core", "log_convex_minorant",
                                          "sequence_core.log_convex_minorant.s"),
    "sequence_core.is_log_convex": ("sequence_core", "is_log_convex",
                                    "sequence_core.growth_checks.s"),
    "sequence_core.is_LC": ("sequence_core", "is_LC", "sequence_core.growth_checks.s"),
    "sequence_core.check_mg": ("sequence_core", "check_mg", "sequence_core.growth_checks.s"),
    "sequence_core.check_mg_diag": ("sequence_core", "check_mg_diag",
                                    "sequence_core.growth_checks.s"),
    "sequence_core.check_strong_2j": ("sequence_core", "check_strong_2j",
                                      "sequence_core.growth_checks.s"),
    "sequence_core.check_56_alternative": ("sequence_core", "check_56_alternative",
                                           "sequence_core.growth_checks.s"),
    "sequence_core.check_om1_index": ("sequence_core", "check_om1_index",
                                      "sequence_core.growth_checks.s"),
    "sequence_core.seq_preceq": ("sequence_core", "seq_preceq", "sequence_core.seq_relations.s"),
    "sequence_core.seq_approx": ("sequence_core", "seq_approx", "sequence_core.seq_relations.s"),
    "sequence_core.seq_triangle": ("sequence_core", "seq_triangle",
                                   "sequence_core.seq_relations.s"),
    "relations.triangle_routes": ("relations", "triangle_routes", "relations.triangle_routes.s"),
    "relations.pow_routes": ("relations", "pow_routes", "relations.pow_routes.s"),
    "relations.tildestrong_check": ("relations", "tildestrong_check",
                                    "relations.tildestrong_check.s"),
    "relations.omega_little_o": ("relations", "omega_little_o", "relations.omega_little_o.s"),
    "spaces.log_series_eval": ("spaces", "log_series_eval", "spaces.log_series_eval.s"),
    "spaces.membership": ("spaces", "membership", "spaces.membership.s"),
    "spaces.decide_inclusion": ("spaces", "decide_inclusion", "spaces.decide_inclusion.s"),
    "spaces.system_equiv": ("spaces", "system_equiv", "spaces.system_equiv.s"),
    "special_functions.bounds_check": ("special_functions", "bounds_check",
                                       "special_functions.bounds_check.s"),
    "special_functions.theta_eval": ("special_functions", "theta_eval",
                                     "special_functions.theta_eval.s"),
    "cli.main": ("cli", "main", "cli.main.s"),
    "cli.emit": ("cli", "emit", "cli.emit.s"),
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, int] = {}
        self.op = -1
        self.enabled = False
        self.default_grid_n = 0

    def count(self, key: str, inc: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + inc

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "associated_weight.omega_log":
                span_name += "." + kwargs.get("mode", args[2] if len(args) > 2 else "closed_form")
            out = sys.stdout
            emit_from = out.tell() if name == "cli.emit" and hasattr(out, "getvalue") else None
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), span_name, clock(), 0.0,
                        parent.sid if parent else -1, tracer.op)
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            if name == "associated_weight.omega_log":
                tracer.count("associated_weight.omega_log.points", int(np.size(result)))
            elif name == "associated_weight.legendre_recover":
                J = kwargs.get("J", args[1] if len(args) > 1 else None)
                grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
                n = tracer.default_grid_n if grid is None else len(grid.log_t)
                tracer.count("associated_weight.legendre_recover.cells", (int(J) + 1) * n)
            elif name == "spaces.log_series_eval":
                f = kwargs.get("f", args[0])
                x = kwargs.get("x", args[1] if len(args) > 1 else None)
                tracer.count("spaces.log_series_eval.terms",
                             int(np.isfinite(f.log_abs_coeffs).sum()) * len(x))
            elif emit_from is not None:
                tracer.count("cli.emit.bytes", len(out.getvalue()[emit_from:].encode("utf-8")))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path) -> None:
        """Spans as gzip JSON lines: [id, name, start, end, parent, op, self]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.op,
                                     s.self_time]) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every target in every growthcomp module that holds it."""
    import growthcomp.cli  # noqa: F401  (loads every module that imports a target)
    from growthcomp.grids import default_grid

    tracer.default_grid_n = len(default_grid().log_t)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "growthcomp" or n.startswith("growthcomp.")]
    for name, (mod_name, qual, _) in TARGETS.items():
        module = importlib.import_module(f"growthcomp.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw))
            continue
        original = getattr(module, qual)
        wrapped = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def per_layer(tracer: Tracer, pairs: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (pairs: bridge operations run)."""
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_time[s.name] = self_time.get(s.name, 0.0) + s.self_time
    by_id = tracer.spans
    series_in_membership = 0
    for s in tracer.spans:
        if s.name != "spaces.log_series_eval":
            continue
        p = s.parent
        while p >= 0:
            if by_id[p].name == "spaces.membership":
                series_in_membership += 1
                break
            p = by_id[p].parent
    omega_calls = (calls.get("associated_weight.omega_log.closed_form", 0)
                   + calls.get("associated_weight.omega_log.sup_scan", 0))
    weight_calls = calls.get("weight_functions.omega_log", 0)
    memberships = calls.get("spaces.membership", 0)
    out: dict[str, float] = {
        "associated_weight.omega_log.calls": omega_calls,
        "associated_weight.omega_log.points": tracer.counters.get(
            "associated_weight.omega_log.points", 0),
        "associated_weight.legendre_recover.cells": tracer.counters.get(
            "associated_weight.legendre_recover.cells", 0),
        "weight_functions.omega_log.calls": weight_calls,
        "weight_functions.omega_log.per_pair": weight_calls / pairs if pairs else 0.0,
        "trend.classify.calls": calls.get("trend.classify", 0),
        "grids.grid.made": calls.get("grids.Grid.__post_init__", 0),
        "spaces.log_series_eval.calls": calls.get("spaces.log_series_eval", 0),
        "spaces.log_series_eval.terms": tracer.counters.get("spaces.log_series_eval.terms", 0),
        "spaces.log_series_eval.per_membership": (series_in_membership / memberships
                                                  if memberships else 0.0),
        "cli.emit.bytes": tracer.counters.get("cli.emit.bytes", 0),
    }
    out.update({t[2]: 0.0 for t in TARGETS.values() if t[2]})
    out.update({f"associated_weight.omega_log.{mode}_s": 0.0
                for mode in ("closed_form", "sup_scan")})
    for name, total in self_time.items():
        # a span name that is no target is an omega_log mode split
        metric = TARGETS[name][2] if name in TARGETS else f"{name}_s"
        if metric:
            out[metric] += total
    return out
