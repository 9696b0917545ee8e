"""End-to-end acceptance battery: one test and one printed line per suite.

Every suite runs against the standard battery (Gevrey, q-Gevrey, products,
pairwise mixtures at J = 512) and must finish within the shared runtime
budget.  golden/verify.txt pins the printed line of every suite; regenerate
it with

    PYTHONPATH=src python tests/test_acceptance.py

only when a suite's detail is meant to change, and say why in the change log.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from pathlib import Path

import numpy as np
import pytest

from growthcomp import (State, Verdict, WeightSequence, fails, holds, inconclusive,
                        standard_battery)
from growthcomp.acceptance import SUITES, _all_chords_envelope, run_suite

RUNTIME_BUDGET_S = 60.0
GOLDEN_LINES = Path(__file__).resolve().parent / "golden" / "verify.txt"


@pytest.fixture(scope="session")
def timed_suite(battery):
    """Runs a suite once per session and returns (result, seconds)."""
    runs = {}

    def run(name: str):
        if name not in runs:
            t0 = time.perf_counter()
            result = run_suite(name, battery)
            runs[name] = (result, time.perf_counter() - t0)
        return runs[name]

    return run


def _check(name: str, timed_suite):
    result, _ = timed_suite(name)
    print("\n" + result.line())
    assert result.passed, result.detail
    return result


def test_acceptance_roundtrip(timed_suite):
    _check("roundtrip", timed_suite)


def test_acceptance_envelope(timed_suite):
    _check("envelope", timed_suite)


def test_acceptance_dual_routes(timed_suite):
    _check("dual-routes", timed_suite)


def test_acceptance_growth_chains(timed_suite):
    _check("growth-chains", timed_suite)


@pytest.mark.parametrize("module, constant, value, culprits", [
    ("associated_weight", "OM6_LADDER", (1.0,),
     ("shift-doubling weight=Fails, want Holds", "omega=Fails")),
    ("sequence_core", "LADDER_MAX_INDEX", 1,
     ("value-doubling index=Inconclusive, want Holds",)),
], ids=["shift ladder cut to H = 1", "index ladder cut to L = 1"])
def test_growth_chains_fail_on_a_cut_ladder(battery, monkeypatch, module, constant,
                                            value, culprits):
    # the ladders read their rungs from the module constants when they run
    monkeypatch.setattr(importlib.import_module(f"growthcomp.{module}"), constant, value)
    result = run_suite("growth-chains", battery)
    assert not result.passed
    for culprit in culprits:
        assert culprit in result.detail


def _flipped(vd: Verdict) -> Verdict:
    """vd with Holds and Fails swapped; an Inconclusive stays as it is."""
    swap = {State.HOLDS: State.FAILS, State.FAILS: State.HOLDS}
    return dataclasses.replace(vd, state=swap.get(vd.state, vd.state))


def _flip(fn):
    return lambda *args, **kwargs: _flipped(fn(*args, **kwargs))


def _flip_route(route):
    def plant(fn):
        def routes(*args, **kwargs):
            out = fn(*args, **kwargs)
            return {**out, route: _flipped(out[route])}
        return routes
    return plant


def _shift_rows(fn):
    # each recovered row j >= 2 takes the value of row j - 1
    def shifted(*args):
        out = fn(*args)
        out[2:] = out[1:-1].copy()
        return out
    return shifted


def _lower_one_value(fn):
    def lowered(M):
        y = fn(M).log_values.copy()
        y[len(y) // 2] -= 1e-9
        return WeightSequence(y, label=M.label)
    return lowered


def _clean_witness(fn):
    # a Fails whose one witness, H = 1 at log t = 0, violates no rung
    def planted(M):
        vd = fn(M)
        return fails(evidence=((1.0, 0.0),)) if vd.fails else vd
    return planted


# suite, module and name of the layer it looks up, plant, what the detail names
PLANTS = {
    "roundtrip: recovery off by one row": (
        "roundtrip", "associated_weight", "recover", _shift_rows,
        ("worst member gevrey(2)",)),
    "fixed-point: weight recovery off by one row": (
        "fixed-point", "weight_functions", "recover", _shift_rows,
        ("gevrey(0.5): sandwich Fails",)),
    "envelope: minorant lowered by 1e-9": (
        "envelope", "acceptance", "log_convex_minorant", _lower_one_value,
        ("100 oracle mismatches",)),
    "bridges: roots route flipped": (
        "bridges", "acceptance", "triangle_routes", _flip_route("roots"),
        ("strong bridge decisive 0.0%", "route contradictions 420",
         "7 entry-point mismatches")),
    "bridges: compressed roots route flipped": (
        "bridges", "acceptance", "pow_routes", _flip_route("compressed_roots"),
        ("power bridge decisive 0.0%", "route contradictions 420",
         "7 entry-point mismatches")),
    "falsification: diagonal growth route flipped": (
        "falsification", "acceptance", "check_mg_diag", _flip,
        ("diagonal and full growth routes disagree",)),
    "falsification: square-index comparison holds": (
        "falsification", "acceptance", "check_strong_2j",
        lambda fn: lambda *args: holds(witnesses={"C": 1.0}),
        ("square-index comparison did not fail",)),
    "membership-matrix: membership flipped": (
        "membership-matrix", "acceptance", "membership", _flip,
        ("378/378 wrong", "t^0 in SingleO")),
    "theta-envelope: bounds undecided": (
        "theta-envelope", "acceptance", "bounds_check",
        lambda fn: lambda T: inconclusive("planted"),
        ("envelope verified on 0/105 probes", "failing: gevrey(0.5):dila:0.5 Inconclusive")),
    "system-equivalence: verdict flipped": (
        "system-equivalence", "acceptance", "system_equiv", _flip,
        ("gevrey(0.5): Fails, want Holds",)),
    "system-equivalence: witness violates no rung": (
        "system-equivalence", "acceptance", "system_equiv", _clean_witness,
        ("qgevrey(1.5): rung H=1 witness does not violate",
         "no certified witness at H in [1.0, 2.0")),
}


@pytest.mark.parametrize("suite, module, name, plant, culprits", PLANTS.values(),
                         ids=PLANTS.keys())
def test_suites_fail_on_a_planted_defect(battery, monkeypatch, suite, module, name,
                                         plant, culprits):
    # each suite reaches its layer through the module named here: acceptance
    # and weight_functions hold their own references to what they import
    target = importlib.import_module(f"growthcomp.{module}")
    monkeypatch.setattr(target, name, plant(getattr(target, name)))
    result = run_suite(suite, battery)
    assert not result.passed
    for culprit in culprits:
        assert culprit in result.detail


def test_acceptance_theta_envelope(timed_suite):
    _check("theta-envelope", timed_suite)


def test_acceptance_fixed_point(timed_suite):
    _check("fixed-point", timed_suite)


def test_acceptance_bridges(timed_suite):
    result = _check("bridges", timed_suite)
    # the detail is deterministic: no wall-clock figure in it
    assert result.detail == ("420 ordered pairs: strong bridge decisive 100.0%, "
                             "power bridge decisive 100.0% (floor 90%); "
                             "route contradictions 0")


def test_acceptance_falsification(timed_suite):
    _check("falsification", timed_suite)


def test_acceptance_system_equivalence(timed_suite):
    _check("system-equivalence", timed_suite)


def test_acceptance_membership_matrix(timed_suite):
    _check("membership-matrix", timed_suite)


def _all_chords_envelope_by_chord(y: np.ndarray) -> np.ndarray:
    # the literal reference: one chord (a, b) at a time
    J = len(y) - 1
    env = y.copy()
    js = np.arange(J + 1, dtype=float)
    for a in range(J - 1):
        for b in range(a + 2, J + 1):
            ks = js[a + 1:b]
            chord = y[a] + (y[b] - y[a]) * ((ks - a) / float(b - a))
            seg = env[a + 1:b]
            np.minimum(seg, chord, out=seg)
    return env


def test_envelope_oracle_equals_the_chord_by_chord_loop():
    rng = np.random.default_rng(18)
    for J, loc, scale in ((2, 0.6, 1.5), (3, 0.6, 1.5), (64, 0.6, 1.5), (120, 0.0, 1e3)):
        for _ in range(3):
            y = np.concatenate(([0.0], np.cumsum(rng.normal(loc, scale, J))))
            np.testing.assert_array_equal(_all_chords_envelope(y).view(np.int64),
                                          _all_chords_envelope_by_chord(y).view(np.int64))


def test_acceptance_runtime_budget(timed_suite):
    durations = {name: timed_suite(name)[1] for name in SUITES}
    assert len(durations) == 10
    total = sum(durations.values())
    print(f"\nPASS  runtime: {total:.1f}s for 10 suites "
          f"(budget {RUNTIME_BUDGET_S:.0f}s)")
    assert total < RUNTIME_BUDGET_S, durations


def test_acceptance_lines_match_the_golden(timed_suite):
    lines = [timed_suite(name)[0].line() for name in SUITES]
    assert lines == GOLDEN_LINES.read_text().splitlines()


if __name__ == "__main__":
    battery = standard_battery()
    GOLDEN_LINES.write_text("".join(run_suite(name, battery).line() + "\n"
                                    for name in SUITES))
