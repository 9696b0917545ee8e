"""Batch command-line front end.

Subcommands expose every analysis layer: single-sequence growth checks,
pairwise comparisons with their bridge fusions, weight-level analysis,
space-inclusion decisions, family-system equivalence, series-probe
evaluation, and the end-to-end verification suites.

Reports are deterministic: identical configuration and inputs produce
byte-identical output.  Floats are printed with 17 significant digits, the
configuration fields a command reads (and only those) are echoed into its
report, and nothing time-dependent is emitted.  Exit codes: 0 for a report
produced as expected (for "verify": every suite passed), 1 when a
verification suite fails, 2 for usage, input, or routing errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .acceptance import SUITES, run_suite
from .battery import standard_battery
from .config import FORMATS, RunConfig, from_json
from .relations import bridge_pow_seq, bridge_triangle_seq
from .sequence_core import (WeightSequence, check_56_alternative, check_mg,
                            check_mg_diag, check_om1_index, check_strong_2j,
                            from_file, gevrey, is_LC, is_log_convex, q_gevrey,
                            read_rows, seq_approx, seq_preceq, seq_triangle)
from .spaces import (FLAVORS, RoutingError, SpaceSpec, decide_inclusion,
                     system_equiv)
from .special_functions import THETA_KINDS, ThetaFunction, theta_eval
from .verdicts import Verdict
from .weight_functions import (Weight, _sandwich, associated_sequence,
                               check_om1_weight, check_om6_weight,
                               from_sequence, from_table, is_convex_weight,
                               is_normalized, rapidly_decreasing)

SEQUENCE_SOURCES = "gevrey:S | qgevrey:Q | file:PATH"

# the RunConfig fields each command reads: only these are offered as flags and
# echoed into its report (a --config file may still set any field)
COMMAND_FIELDS = {
    "seq analyze": ("J", "margin", "fmt"),
    "seq compare": ("J", "margin", "fmt"),
    "weight analyze": ("t_min", "t_max", "grid_n", "J", "margin", "fmt"),
    "spaces decide": ("J", "margin", "fmt"),
    "spaces system-equiv": ("J", "margin", "fmt"),
    "theta eval": ("J", "fmt"),
    "verify": ("J", "fmt"),
}


class UsageError(Exception):
    """Bad command-line input; reported on stderr with exit code 2."""


def _resolve_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the optional config file, then explicit flags."""
    try:
        base = RunConfig() if path is None else from_json(path)
        return base.with_overrides(**overrides)
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_sequence(text: str, J: int) -> WeightSequence:
    kind, _, rest = text.partition(":")
    try:
        if kind == "gevrey" and rest:
            return gevrey(float(rest), J)
        if kind == "qgevrey" and rest:
            return q_gevrey(float(rest), J)
        if kind == "file" and rest:
            return from_file(rest)
    except (ValueError, OSError) as exc:
        raise UsageError(f"cannot build sequence from {text!r}: {exc}") from exc
    raise UsageError(f"unknown sequence source {text!r}; use {SEQUENCE_SOURCES}")


def parse_weight(text: str, J: int) -> Weight:
    """Weight source: a sequence source (its decreasing weight) or a
    tabulated file of 't,omega' rows."""
    kind, _, rest = text.partition(":")
    if kind == "file" and rest:
        path = Path(rest)
        try:
            rows = read_rows(path, path.read_text(), "t,omega")
            if len(rows) < 2:
                raise ValueError(f"{path}: need at least two data rows")
            return from_table(*zip(*rows), label=path.stem)
        except (ValueError, OSError) as exc:
            raise UsageError(f"cannot build weight from {text!r}: {exc}") from exc
    return from_sequence(parse_sequence(text, J))


def parse_space(text: str, J: int) -> SpaceSpec:
    """FLAVOR:SOURCE with an optional trailing ':c=VALUE', which dilates the
    weight of a single space (SingleO, SingleLittleO)."""
    parts = text.split(":")
    if len(parts) < 2:
        raise UsageError(f"space spec {text!r} needs FLAVOR:SOURCE")
    flavor = parts[0]
    if flavor not in FLAVORS:
        raise UsageError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    c = None
    if parts[-1].startswith("c="):
        try:
            c = float(parts[-1][2:])
        except ValueError as exc:
            raise UsageError(f"bad member selector {parts[-1]!r}") from exc
        parts = parts[:-1]
    source = parse_sequence(":".join(parts[1:]), J)
    if flavor.startswith("Single") and c is None:
        c = 1.0
    try:
        return SpaceSpec(flavor, source, c=c)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# deterministic output
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise UsageError(f"report value {float(x)} is not a finite number")
    return f"{float(x):.17g}"


def _json_text(obj, indent: int | None = 0) -> str:
    """obj as JSON: nested blocks indent levels deep, or one line when
    indent is None."""
    if isinstance(obj, (dict, list, tuple)):
        deeper = None if indent is None else indent + 1
        if isinstance(obj, dict):
            brackets = "{}"
            items = [f"{json.dumps(str(k))}: {_json_text(v, deeper)}"
                     for k, v in obj.items()]
        else:
            brackets = "[]"
            items = [_json_text(v, deeper) for v in obj]
        if not items:
            return brackets
        if indent is None:
            return brackets[0] + ", ".join(items) + brackets[1]
        pad = "  " * indent
        return (f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items)
                + f"\n{pad}{brackets[1]}")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _verdict_entry(name: str, vd: Verdict) -> dict:
    return {"check": name,
            "state": vd.state.value,
            "witnesses": {k: float(v) for k, v in sorted(vd.witnesses.items())},
            "evidence": [[float(a), float(b)] for a, b in vd.evidence],
            "note": vd.note}


def _csv_cell(value) -> str:
    if isinstance(value, dict):
        return "|".join(f"{k}={_fmt(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "|".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in value)
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def emit(doc: dict, cfg: RunConfig) -> None:
    """One structured document, or config-echo comments plus CSV rows."""
    if cfg.fmt == "json":
        sys.stdout.write(_json_text(doc) + "\n")
        return
    out = io.StringIO()
    for key, value in doc.items():
        if key == "results":
            continue
        out.write(f"# {key}: {_json_text(value, None)}\n")
    rows = doc.get("results", [])
    if rows:
        fields = list(rows[0])
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    sys.stdout.write(out.getvalue())


def _report(cfg: RunConfig, command: str, inputs: dict, results: list,
            sources: tuple[str, ...] = (), **extra) -> None:
    """Emit command, config, inputs, results and then the extra sections.  A file
    keeps its own J, so "J" is not echoed when every sequence source is a file."""
    fields = COMMAND_FIELDS[command]
    if sources and all(s.startswith("file:") for s in sources):
        fields = tuple(k for k in fields if k != "J")
    emit({"command": command,
          "config": {k: getattr(cfg, k) for k in fields},
          "inputs": inputs, "results": results, **extra}, cfg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_seq_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    M = parse_sequence(args.source, cfg.J)
    pol = cfg.policy()
    checks = [("log_convex", is_log_convex(M)),
              ("LC", is_LC(M, pol)),
              ("mg", check_mg(M, pol)),
              ("mg_diag", check_mg_diag(M, pol)),
              ("om1_index", check_om1_index(M, pol)),
              ("strong_2j", check_strong_2j(M, pol)),
              ("alternative_56", check_56_alternative(M, pol))]
    _report(cfg, "seq analyze", {"source": args.source, "label": M.label, "J": M.J},
            [_verdict_entry(name, vd) for name, vd in checks], (args.source,))
    return 0


def cmd_seq_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    A = parse_sequence(args.source_a, cfg.J)
    B = parse_sequence(args.source_b, cfg.J)
    if A.J != B.J:
        raise UsageError(f"the sequences need one J, not J = {A.J} and J = {B.J}")
    pol = cfg.policy()
    checks = [("preceq_ab", seq_preceq(A, B, pol)),
              ("preceq_ba", seq_preceq(B, A, pol)),
              ("approx", seq_approx(A, B, pol)),
              ("triangle_ab", seq_triangle(A, B, pol)),
              ("triangle_ba", seq_triangle(B, A, pol)),
              ("bridge_triangle_ab", bridge_triangle_seq(A, B, policy=pol)),
              ("bridge_triangle_ba", bridge_triangle_seq(B, A, policy=pol)),
              ("bridge_pow_ab", bridge_pow_seq(A, B, policy=pol)),
              ("bridge_pow_ba", bridge_pow_seq(B, A, policy=pol))]
    _report(cfg, "seq compare", {"a": args.source_a, "b": args.source_b,
                                 "label_a": A.label, "label_b": B.label},
            [_verdict_entry(name, vd) for name, vd in checks],
            (args.source_a, args.source_b))
    return 0


def cmd_weight_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    u = parse_weight(args.source, cfg.J)
    pol = cfg.policy()
    g = cfg.grid(u)
    Mu = associated_sequence(u, J=cfg.J, grid=g)
    checks = [("normalized", is_normalized(u)),
              ("rapidly_decreasing", rapidly_decreasing(u, g, pol)),
              ("convex_in_log", is_convex_weight(u, g)),
              ("om1_weight", check_om1_weight(u)),
              ("om6_weight", check_om6_weight(u)),
              ("sandwich", _sandwich(u, Mu, g, pol))]
    _report(cfg, "weight analyze",
            {"source": args.source, "label": u.label,
             "faithful_log_t": float(u.log_t_reliable)},
            [_verdict_entry(name, vd) for name, vd in checks],
            associated_sequence={
                "J": Mu.J,
                "label": Mu.label,
                "reliable_max_index": Mu.meta["reliable_max_index"],
                "origin_shift": Mu.meta["origin_shift"],
                "projection_magnitude": Mu.meta["projection_magnitude"],
            })
    return 0


def cmd_spaces_decide(cfg: RunConfig, args: argparse.Namespace) -> int:
    A = parse_space(args.left, cfg.J)
    B = parse_space(args.right, cfg.J)
    try:
        iv = decide_inclusion(A, B, policy=cfg.policy())
    except RoutingError as exc:
        raise UsageError(f"no decision route: {exc}") from exc
    _report(cfg, "spaces decide", {"left": args.left, "right": args.right},
            [_verdict_entry("inclusion", iv.verdict)],
            (args.left.partition(":")[2], args.right.partition(":")[2]),
            route=iv.theorem_tag,
            sides={k: _verdict_entry(k, v) for k, v in sorted(iv.sides.items())},
            preconditions={k: _verdict_entry(k, v)
                           for k, v in sorted(iv.preconditions.items())})
    return 0


def cmd_system_equiv(cfg: RunConfig, args: argparse.Namespace) -> int:
    M = parse_sequence(args.source, cfg.J)
    try:
        vd = system_equiv(M, cfg.policy())
    except RoutingError as exc:
        raise UsageError(str(exc)) from exc
    _report(cfg, "spaces system-equiv", {"source": args.source, "label": M.label},
            [_verdict_entry("system_equiv", vd)], (args.source,))
    return 0


def cmd_theta_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    source, kind, c, points = args.source, args.kind, args.c, args.t
    M = parse_sequence(source, cfg.J)
    try:
        ts = [float(p) for p in points.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad evaluation points {points!r}") from exc
    if not ts:
        raise UsageError("need at least one evaluation point")
    rows = []
    try:
        T = ThetaFunction(M, kind, c)
        for t in ts:
            val, err = theta_eval(T, t)
            rows.append({"t": float(t), "log_value": val, "tail_error": err})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _report(cfg, "theta eval",
            {"source": source, "kind": kind, "c": float(c),
             "certified_log_t": float(T.log_t_certified)}, rows, (source,))
    return 0


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    battery = standard_battery(cfg.J)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [run_suite(name, battery) for name in names]
    passed = all(r.passed for r in results)
    _report(cfg, "verify", {"suite": args.suite},
            [{"suite": r.name, "passed": r.passed, "detail": r.detail}
             for r in results], passed=passed)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_FLAGS = {
    "t_min": ("--grid-min", {"type": float, "metavar": "T"}),
    "t_max": ("--grid-max", {"type": float, "metavar": "T"}),
    "grid_n": ("--grid-n", {"type": int, "metavar": "N"}),
    "J": ("--J", {"type": int, "metavar": "J",
                  "help": "index range for constructed sequences"}),
    "margin": ("--margin", {"type": float, "metavar": "M",
                            "help": "trend slope threshold"}),
    "fmt": ("--format", {"choices": FORMATS}),
}


def _add_command(sub, name: str, command: str, handler,
                 help: str) -> argparse.ArgumentParser:
    """Subcommand parser offering --config and the flags of the fields it reads."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run_command=command, handler=handler)
    run = p.add_argument_group("run configuration")
    run.add_argument("--config", metavar="PATH",
                     help="JSON file with RunConfig fields; flags override it")
    for field in COMMAND_FIELDS[command]:
        flag, kw = _FLAGS[field]
        run.add_argument(flag, dest=field, **kw)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused for the
    life of the process: parsing keeps no state between calls, so main()
    may be called repeatedly.  The parser binds the cmd_* handlers when it
    is built; what a handler calls is looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="growthcomp",
        description="Growth analysis and comparison of weight sequences, "
                    "weights, and the function spaces they define.")
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="weight-sequence analyses")
    seq_sub = seq.add_subparsers(dest="subcommand", required=True)
    p = _add_command(seq_sub, "analyze", "seq analyze", cmd_seq_analyze,
                     help="growth conditions of one sequence")
    p.add_argument("source", help=SEQUENCE_SOURCES)
    p = _add_command(seq_sub, "compare", "seq compare", cmd_seq_compare,
                     help="comparison relations and bridges for a pair")
    p.add_argument("source_a", help=SEQUENCE_SOURCES)
    p.add_argument("source_b", help=SEQUENCE_SOURCES)

    weight = sub.add_parser("weight", help="weight-function analyses")
    weight_sub = weight.add_subparsers(dest="subcommand", required=True)
    p = _add_command(weight_sub, "analyze", "weight analyze", cmd_weight_analyze,
                     help="structure and growth of one weight")
    p.add_argument("source",
                   help=f"{SEQUENCE_SOURCES} (file: tabulated 't,omega' rows)")

    spaces = sub.add_parser("spaces", help="space-level decisions")
    spaces_sub = spaces.add_subparsers(dest="subcommand", required=True)
    p = _add_command(spaces_sub, "decide", "spaces decide", cmd_spaces_decide,
                     help="decide one inclusion between spaces")
    p.add_argument("--left", required=True, help="FLAVOR:SOURCE[:c=VALUE], c for single spaces")
    p.add_argument("--right", required=True, help="FLAVOR:SOURCE[:c=VALUE], c for single spaces")
    p = _add_command(spaces_sub, "system-equiv", "spaces system-equiv",
                     cmd_system_equiv,
                     help="dilation family vs power family")
    p.add_argument("--seq", required=True, dest="source", help=SEQUENCE_SOURCES)

    theta = sub.add_parser("theta", help="canonical series probes")
    theta_sub = theta.add_subparsers(dest="subcommand", required=True)
    p = _add_command(theta_sub, "eval", "theta eval", cmd_theta_eval,
                     help="certified evaluation of a probe")
    p.add_argument("source", help=SEQUENCE_SOURCES)
    p.add_argument("--kind", choices=THETA_KINDS, default="dila")
    p.add_argument("--c", type=float, default=1.0, metavar="C")
    p.add_argument("--t", required=True, metavar="T1,T2,...",
                   help="comma-separated evaluation points")

    p = _add_command(sub, "verify", "verify", cmd_verify,
                     help="run an end-to-end verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args.config, {k: getattr(args, k)
                                            for k in COMMAND_FIELDS[args.run_command]})
        return args.handler(cfg, args)
    except UsageError as exc:
        print(f"growthcomp: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
