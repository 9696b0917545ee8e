"""Golden CLI reports: the exact bytes of a fixed set of commands.

The set covers both bridges with their dilation and power ladders (seq
compare), a tabulated weight in JSON and CSV (weight analyze on table.csv),
the dilation and power system crossings (spaces decide), a power-kind
series probe (theta eval), a seeded non-convex walk read from walk.csv in
CSV (seq analyze), a q-Gevrey sequence (seq analyze, spaces system-equiv)
and the windowed recovery of a sequence weight (weight analyze gevrey:2).  bridges.txt pins the route verdicts of both
bridges (triangle_routes and pow_routes, one repr of to_dict() per route) on
every 21st of the 420 ordered pairs of standard_battery(512).
weight_routes.txt pins decide_inclusion on weight sources (both weight
crossings, both family swaps, the same-source routes, every verdict of the
o-collapse gate, Holds and Fails of is_normalized) and system_equiv_weight,
then all seven weight comparisons over every ordered pair of those weights.
digests.txt pins the default lines of tools/digests.py: one sha256 per route
of both bridges over all 420 ordered pairs at J = 64, 512 and 1024, and per
moderate growth check over the battery at J = 64 to 4096 and over twelve
seeded walks.  states.txt pins its route state table (M|N|route|state) of
those pairs at J = 64 and 1024 and its member state table (M|check|state)
at J = 64, 1024 and 4096, read off the same sweeps and checks.  Regenerate
the files with

    PYTHONPATH=src python tests/test_golden.py

only when a report is meant to change, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import os
from pathlib import Path

import numpy as np
import pytest

import growthcomp
from growthcomp import (RoutingError, SpaceSpec, State, decide_inclusion,
                        from_log_quotients, from_sequence, from_table, gevrey,
                        normalize, pow_routes, standard_battery,
                        system_equiv_weight, triangle_routes, weight_preceq,
                        weight_preceq_all_dila, weight_preceq_dila,
                        weight_preceq_pow, weight_triangle,
                        weight_triangle_dila, weight_triangle_pow)
from growthcomp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "digests", GOLDEN.parent.parent / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

CASES = {
    "seq_compare": ("seq", "compare", "gevrey:1", "qgevrey:1.5", "--J", "128"),
    "weight_analyze_table": ("weight", "analyze", "file:table.csv", "--J", "128"),
    "weight_analyze_table_csv": ("weight", "analyze", "file:table.csv", "--J", "128",
                                 "--format", "csv"),
    "spaces_decide_dila": ("spaces", "decide", "--left", "InductiveDila:gevrey:2",
                           "--right", "ProjectiveDila:gevrey:1", "--J", "128"),
    "spaces_decide_pow": ("spaces", "decide", "--left", "InductivePow:gevrey:2",
                          "--right", "ProjectivePow:gevrey:1", "--J", "128"),
    "theta_eval_pow": ("theta", "eval", "gevrey:1", "--kind", "pow", "--c", "2",
                       "--t", "0.5,2,10"),
    "seq_analyze_walk_csv": ("seq", "analyze", "file:walk.csv", "--format", "csv"),
    "seq_analyze_qgevrey": ("seq", "analyze", "qgevrey:1.5", "--J", "256"),
    "weight_analyze_gevrey": ("weight", "analyze", "gevrey:2", "--J", "128"),
    "system_equiv_qgevrey": ("spaces", "system-equiv", "--seq", "qgevrey:1.5",
                             "--J", "256"),
}


BRIDGE_PAIR_STRIDE = 21


def _bridge_lines() -> str:
    battery = standard_battery(512)
    pairs = [(M, N) for M in battery for N in battery if M is not N]
    lines = []
    for M, N in pairs[::BRIDGE_PAIR_STRIDE]:
        for bridge, routes in (("triangle", triangle_routes), ("pow", pow_routes)):
            for route, verdict in routes(M, N).items():
                lines.append(f"{M.label} | {N.label} | {bridge} | {route} | "
                             f"{verdict.to_dict()!r}")
    return "\n".join(lines) + "\n"


def _weights() -> dict:
    log_t = np.linspace(-2.0, 8.0, 200)
    t, up = np.exp(log_t), np.maximum(log_t, 0.0)
    convex = from_table(t, 0.5 * up ** 2, label="convex")
    return {
        "convex": convex,
        "convex_quarter": from_table(t, 0.25 * up ** 2, label="convex_quarter"),
        "concave": from_table(t, np.sqrt(up), label="concave"),
        "normalized": normalize(from_sequence(
            from_log_quotients(np.linspace(-1.0, 4.0, 128)))),
        "powered": from_sequence(gevrey(2.0, 256)).power(1.5),
        "dilated": convex.dilate(0.5),
        "plain": from_sequence(gevrey(1.0, 256)),
    }


def _probe_weights(ws: dict) -> dict:
    """Weights only the inclusion probes read: an unnormalized sequence
    weight, a dilated one whose omega still vanishes up to t = 1, a linear
    table no dilation absorbs the doubling of, a table ending at
    log t = 0.4, the normalized convex tables (the golden grid misses
    log t = 0, so omega(1) of the raw ones is about 4e-5), a table that is
    0 at its first point but 1 at t = 1, and a normalized table that
    decreases below t = 1."""
    log_t = np.linspace(-2.0, 8.0, 200)
    short = np.linspace(-2.0, 0.4, 25)
    return {
        "norm_convex": normalize(ws["convex"]),
        "norm_convex_quarter": normalize(ws["convex_quarter"]),
        "table_a": from_table([0.5, 1.0, 4.0], [0.0, 1.0, 2.0], label="table_a"),
        "table_b": normalize(from_table([0.1, 0.5, 1.0, 4.0], [1.0, 3.0, 2.0, 4.0],
                                        label="table_b")),
        "unnormalized": from_sequence(from_log_quotients(np.linspace(-1.0, 4.0, 128))),
        "lifted": from_sequence(
            from_log_quotients(np.linspace(1.0, 5.0, 128))).dilate(2.0),
        "linear": from_table(np.exp(log_t), 3.0 * np.maximum(log_t, 0.0),
                             label="linear"),
        "short": from_table(np.exp(short), 0.5 * np.maximum(short, 0.0) ** 2,
                            label="short"),
    }


# (left flavor, left weight, right flavor, right weight, left o-growth)
INCLUSION_PROBES = (
    ("InductiveDila", "convex", "ProjectiveDila", "convex_quarter", False),
    ("InductivePow", "convex", "ProjectivePow", "convex_quarter", False),
    ("InductivePow", "convex", "ProjectivePow", "concave", False),
    ("InductivePow", "powered", "ProjectivePow", "normalized", False),
    ("InductiveDila", "convex", "InductivePow", "convex", False),
    ("InductivePow", "convex", "InductiveDila", "convex", False),
    ("ProjectivePow", "normalized", "ProjectiveDila", "normalized", False),
    ("ProjectiveDila", "concave", "ProjectivePow", "concave", False),
    ("InductiveDila", "convex", "InductiveDila", "convex", False),
    ("ProjectivePow", "normalized", "InductivePow", "normalized", False),
    ("InductiveDila", "convex", "ProjectivePow", "convex", False),
    ("InductiveDila", "convex", "ProjectiveDila", "convex", False),
    ("InductiveDila", "convex", "ProjectiveDila", "convex_quarter", True),
    ("InductivePow", "concave", "ProjectivePow", "convex", True),
    ("InductiveDila", "powered", "ProjectiveDila", "convex", True),
    ("SingleLittleO", "convex", "SingleO", "convex_quarter", False),
    ("SingleLittleO", "concave", "SingleO", "convex", False),
    ("SingleO", "powered", "SingleO", "normalized", False),
    ("SingleO", "normalized", "SingleO", "plain", False),
    ("InductiveDila", "normalized", "ProjectiveDila", "plain", False),
    ("InductivePow", "normalized", "ProjectivePow", "plain", False),
    ("InductiveDila", "unnormalized", "ProjectiveDila", "convex", False),
    ("InductiveDila", "lifted", "InductivePow", "lifted", False),
    ("InductiveDila", "linear", "ProjectiveDila", "convex", True),
    ("SingleLittleO", "linear", "SingleO", "linear", False),
    ("InductiveDila", "short", "ProjectiveDila", "convex", True),
    ("InductiveDila", "table_a", "ProjectiveDila", "table_b", False),
    ("InductiveDila", "norm_convex", "ProjectiveDila", "norm_convex_quarter", False),
    ("InductiveDila", "norm_convex", "InductivePow", "norm_convex", False),
    ("InductivePow", "norm_convex", "InductiveDila", "norm_convex", False),
    ("InductiveDila", "norm_convex", "ProjectiveDila", "norm_convex", False),
    ("InductiveDila", "norm_convex", "ProjectiveDila", "norm_convex_quarter", True),
    ("InductiveDila", "powered", "ProjectiveDila", "norm_convex", True),
)

WEIGHT_COMPARISONS = (weight_preceq, weight_triangle, weight_preceq_dila,
                      weight_preceq_pow, weight_triangle_dila,
                      weight_preceq_all_dila, weight_triangle_pow)


def _weight_route_lines() -> str:
    ws = _weights()
    probed = {**ws, **_probe_weights(ws)}
    lines = []
    for fa, a, fb, b, little in INCLUSION_PROBES:
        head = f"{fa}({a}{', o' if little else ''}) <= {fb}({b})"
        A = SpaceSpec(fa, probed[a], little_o=little)
        try:
            r = decide_inclusion(A, SpaceSpec(fb, probed[b]))
        except (RoutingError, ValueError) as exc:
            lines.append(f"{head} | {type(exc).__name__}({str(exc)!r})")
            continue
        sides = {k: v.to_dict() for k, v in r.sides.items()}
        precs = {k: v.to_dict() for k, v in r.preconditions.items()}
        lines.append(f"{head} | {r.theorem_tag!r} | {r.verdict.to_dict()!r} | "
                     f"sides {sides!r} | preconditions {precs!r}")
    for name in ("convex", "concave", "dilated", "norm_convex", "table_a", "table_b"):
        lines.append(f"system_equiv_weight({name}) | "
                     f"{system_equiv_weight(probed[name]).to_dict()!r}")
    for a, v in ws.items():
        for b, w in ws.items():
            if a != b:
                for compare in WEIGHT_COMPARISONS:
                    lines.append(f"{compare.__name__}({a}, {b}) | "
                                 f"{compare(v, w).to_dict()!r}")
    return "\n".join(lines) + "\n"


def _report(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _report(CASES[name]) == (GOLDEN / f"{name}.out").read_text()


def test_golden_bridge_routes():
    assert _bridge_lines() == (GOLDEN / "bridges.txt").read_text()


def test_golden_weight_routes():
    assert _weight_route_lines() == (GOLDEN / "weight_routes.txt").read_text()


@pytest.fixture(scope="module")
def sweeps():
    """The route sweeps and battery checks of the pinned digests, one per J,
    run by the first test that reads them; the state tables' J are among
    them, so the state tables add no evaluation."""
    assert set(digests.STATE_J) <= set(digests.ROUTE_J)
    assert set(digests.MG_STATE_J) <= set(digests.MG_J)
    return {}


def test_golden_digests(sweeps):
    got = list(digests.lines(sweeps=sweeps))
    assert got == (GOLDEN / "digests.txt").read_text().splitlines()


def test_golden_states(sweeps):
    got = list(digests.lines(route_js=(), mg_js=(), state_js=digests.STATE_J,
                             mg_state_js=digests.MG_STATE_J, sweeps=sweeps))
    assert got == (GOLDEN / "states.txt").read_text().splitlines()


def test_golden_digests_move_on_a_planted_route_flip(monkeypatch):
    # Holds and Fails of the roots route swapped: at J = 64 its digest line
    # and the line over every route move, and no other digest line does; in
    # the state table exactly the flipped pairs' roots lines move
    real = growthcomp.triangle_routes
    swap = {State.HOLDS: State.FAILS, State.FAILS: State.HOLDS}

    def planted(M, N):
        out = real(M, N)
        vd = out["roots"]
        return {**out, "roots": dataclasses.replace(vd, state=swap.get(vd.state, vd.state))}

    monkeypatch.setattr(growthcomp, "triangle_routes", planted)
    want = [line for line in (GOLDEN / "digests.txt").read_text().splitlines()
            if line.startswith("J=64 pairs=")]
    got = list(digests.lines(route_js=(64,), mg_js=(), state_js=(64,)))
    moved = [g.split()[2] for g, w in zip(got, want) if g != w]
    assert moved == ["all", "roots"]
    table = (GOLDEN / "states.txt").read_text().splitlines()
    table = table[:table.index("J=1024 pairs=420")]
    states = got[len(want):]
    assert len(states) == len(table)
    moved = [(g, w) for g, w in zip(states, table) if g != w]
    flipped = [w for w in table if w.endswith(("|roots|Holds", "|roots|Fails"))]
    assert len(flipped) > 0 and [w for _, w in moved] == flipped
    for g, w in moved:
        m, n, route, state = w.split("|")
        assert g == f"{m}|{n}|{route}|{'Fails' if state == 'Holds' else 'Holds'}"


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_report(argv))
    (GOLDEN / "bridges.txt").write_text(_bridge_lines())
    (GOLDEN / "weight_routes.txt").write_text(_weight_route_lines())
    sweeps = {}
    (GOLDEN / "digests.txt").write_text(
        "".join(line + "\n" for line in digests.lines(sweeps=sweeps)))
    (GOLDEN / "states.txt").write_text("".join(
        line + "\n" for line in digests.lines((), (), digests.STATE_J,
                                              digests.MG_STATE_J, sweeps)))
