"""Golden CLI reports: the exact bytes of a fixed set of commands.

The set covers both bridges with their dilation and power ladders (seq
compare), a tabulated weight in JSON and CSV (weight analyze on table.csv),
the dilation and power system crossings (spaces decide) and a power-kind
series probe (theta eval).  bridges.txt pins the route verdicts of both
bridges (triangle_routes and pow_routes, one repr of to_dict() per route) on
every 21st of the 420 ordered pairs of standard_battery(512).  Regenerate the
files with

    PYTHONPATH=src python tests/test_golden.py

only when a report is meant to change, and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

from growthcomp import pow_routes, standard_battery, triangle_routes
from growthcomp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

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


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_report(argv))
    (GOLDEN / "bridges.txt").write_text(_bridge_lines())
