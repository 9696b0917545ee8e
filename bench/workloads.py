"""The four benchmark workloads: seeded inputs, timed operations, output checks.

A workload's build() makes its inputs from the seed and returns the list of
operations of one round; every round of a run repeats the same operations.
check() runs after the timed body and compares the outputs against the
independent oracles in oracles.py or against properties the method must
have.  It returns the problems found, each with the operation whose output
failed, the operations whose expected failure it excused, and the verdict
digest entries.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

BATTERY_J = 512
PROBES = (("dila", 0.5), ("dila", 1.0), ("dila", 2.0), ("pow", 1.0), ("pow", 2.0))
MEMBERSHIP_SCALES = (0.5, 1.0, 2.0)
MONOMIAL_DEGREES = (0, 3)
THETA_POINTS = (0.5, 2.0, 10.0, 100.0)
ENTRY_POINT_PAIRS = 7
DUAL_ROUTE_ATOL = 1e-12
DIRECT_MAX_RTOL = 1e-9
HULL_RTOL = 1e-12
RECOVERY_RTOL = 1e-9
SERIES_RTOL = 1e-9
ORACLE_POINTS = 257


@dataclass
class Op:
    """One timed operation; key names it in checks and in the digest."""

    key: tuple
    run: object
    meta: dict = field(default_factory=dict)


@dataclass
class Checked:
    problems: list = field(default_factory=list)  # (op key, message)
    excused: set = field(default_factory=set)  # op keys of expected failures
    digest: list = field(default_factory=list)

    def fail(self, key: tuple, message: str) -> None:
        self.problems.append((key, message))

    @property
    def failed(self) -> int:
        """Operations whose output failed a check, excused ones included."""
        return len({key for key, _ in self.problems} | self.excused)


def _verdict_text(v) -> str:
    """State and witnesses of a verdict, floats written exactly."""
    wit = ",".join(f"{k}={float(x)!r}" for k, x in sorted(v.witnesses.items()))
    return f"{v.state.value}[{wit}]"


# ---------------------------------------------------------------------------
# bridge-sweep
# ---------------------------------------------------------------------------


def build_bridge(gc, seed: int, workdir: Path) -> list[Op]:
    battery = gc.standard_battery(BATTERY_J)
    pairs = [(M, N) for M in battery for N in battery if M is not N]
    random.Random(seed).shuffle(pairs)

    def op(M, N):
        def run():
            rt = gc.triangle_routes(M, N)
            rp = gc.pow_routes(M, N)
            return (rt, rp,
                    gc.fuse_unanimous(rt, note_prefix="strong comparison bridge"),
                    gc.fuse_unanimous(rp, note_prefix="power comparison bridge"))
        return run

    return [Op((M.label, N.label), op(M, N), {"M": M, "N": N}) for M, N in pairs]


def check_bridge(gc, ops: list[Op], results: list, seed: int) -> Checked:
    out = Checked()
    for o, (rt, rp, ft, fp) in zip(ops, results):
        want = oracles.bridge_expectation(*o.key)
        got = (ft.state.value, fp.state.value)
        if got != want:
            out.fail(o.key, f"{o.key}: fused {got}, leading-term rule says {want}")
        for routes in (rt, rp):
            states = {v.state.value for v in routes.values()}
            if "Holds" in states and "Fails" in states:
                out.fail(o.key, f"{o.key}: a route Holds while another Fails")
        out.digest.append(f"{o.key}|" + "|".join(
            f"{name}:{_verdict_text(v)}" for routes in (rt, rp) for name, v in routes.items())
            + f"|{_verdict_text(ft)}|{_verdict_text(fp)}")
    # the public entry points are exactly these fusions
    picks = random.Random(seed + 1).sample(range(len(ops)), ENTRY_POINT_PAIRS)
    for i in picks:
        M, N = ops[i].meta["M"], ops[i].meta["N"]
        _, _, ft, fp = results[i]
        if (repr(gc.bridge_triangle_seq(M, N).to_dict()) != repr(ft.to_dict())
                or repr(gc.bridge_pow_seq(M, N).to_dict()) != repr(fp.to_dict())):
            out.fail(ops[i].key, f"{ops[i].key}: bridge entry point differs from the fusion")
    return out


# ---------------------------------------------------------------------------
# series-membership
# ---------------------------------------------------------------------------


def build_series(gc, seed: int, workdir: Path) -> list[Op]:
    battery = gc.standard_battery(BATTERY_J)
    ops: list[Op] = []
    for M in battery:
        for flavor in gc.FLAVORS:
            S = gc.SpaceSpec(flavor, M, c=1.0 if flavor.startswith("Single") else None)
            for k in MONOMIAL_DEGREES:
                f = gc.monomial(k)
                ops.append(Op(("monomial", M.label, flavor, k),
                              (lambda f=f, S=S: gc.membership(f, S)), {"want": "Holds"}))
        for c in MEMBERSHIP_SCALES:
            f = gc.theta_series(gc.ThetaFunction(M, "dila", c))
            for flavor, want in (("InductiveDila", "Holds"), ("ProjectiveDila", "Fails")):
                S = gc.SpaceSpec(flavor, M)
                ops.append(Op(("probe", M.label, flavor, c),
                              (lambda f=f, S=S: gc.membership(f, S)), {"want": want}))
        for kind, c in PROBES:
            T = gc.ThetaFunction(M, kind, c)
            ops.append(Op(("bounds", M.label, kind, c),
                          (lambda T=T: gc.bounds_check(T)), {"want": "Holds"}))
            ts = [t for t in THETA_POINTS if math.log(t) < T.log_t_certified]
            ops.append(Op(("theta", M.label, kind, c),
                          (lambda T=T, ts=ts: [gc.theta_eval(T, t) for t in ts]),
                          {"points": ts, "M": M, "kind": kind, "c": c}))
    random.Random(seed).shuffle(ops)
    return ops


def check_series(gc, ops: list[Op], results: list, seed: int) -> Checked:
    out = Checked()
    log_m = {}
    for o, r in zip(ops, results):
        if o.key[0] != "theta":
            if r.state.value != o.meta["want"]:
                out.fail(o.key, f"{o.key}: {r.state.value}, want {o.meta['want']}")
            out.digest.append(f"{o.key}|{_verdict_text(r)}")
            continue
        label = o.key[1]
        if label not in log_m:
            log_m[label] = oracles.recipe_log_values(oracles.parse_recipe(label), BATTERY_J)
        coeffs = oracles.probe_log_coeffs(log_m[label], o.meta["kind"], o.meta["c"])
        for t, (partial, err) in zip(o.meta["points"], r):
            ref = oracles.log_partial_sum(coeffs, math.log(t))
            tol = SERIES_RTOL * max(1.0, abs(ref))
            if not (abs(partial - ref) <= tol and err >= 0.0 and math.isfinite(err)):
                out.fail(o.key, f"{o.key} t={t}: partial {partial!r}, mpmath {ref!r}, "
                                f"tail {err!r}")
            if label == "gevrey(1)" and o.meta["kind"] == "dila" and o.meta["c"] == 1.0:
                # the factorial probe sums to exp(t/2) exactly
                if not (partial - tol <= t / 2.0 <= partial + err + tol):
                    out.fail(o.key, f"{o.key} t={t}: t/2 outside "
                                    f"[{partial!r}, {partial + err!r}]")
        out.digest.append(f"{o.key}|" + ",".join(f"{p!r}:{e!r}" for p, e in r))
    return out


# ---------------------------------------------------------------------------
# sequence-recovery
# ---------------------------------------------------------------------------

WALK_SIZES = (512, 1024, 2048, 4096)
WALKS_PER_SIZE = 2
WALK_STEP_MEAN = 0.6
WALK_STEP_SD = 1.5
GEVREY_MEMBERS = ((1.0, 4096), (2.0, 2048), (0.5, 1024), (3.0, 512))
QGEVREY_MEMBERS = ((1.5, 4096), (2.0, 2048), (3.0, 1024), (1.25, 512))


def _recovery_inputs(gc, seed: int) -> list[tuple[str, float, object]]:
    rng = np.random.default_rng(seed)
    inputs = []
    for J in WALK_SIZES:
        for _ in range(WALKS_PER_SIZE):
            steps = rng.normal(WALK_STEP_MEAN, WALK_STEP_SD, size=J)
            y = np.concatenate(([0.0], np.cumsum(steps)))
            inputs.append(("walk", 0.0, gc.WeightSequence(y, label=f"walk{J}")))
    inputs += [("gevrey", s, gc.gevrey(s, J)) for s, J in GEVREY_MEMBERS]
    inputs += [("qgevrey", q, gc.q_gevrey(q, J)) for q, J in QGEVREY_MEMBERS]
    order = list(range(len(inputs)))
    random.Random(seed).shuffle(order)
    return [inputs[i] for i in order]


RECOVERY_CALLS = ("log_convex_minorant", "omega_closed_form", "omega_sup_scan",
                  "legendre_recover", "associated_sequence", "sandwich_check",
                  "is_LC", "check_mg", "check_mg_diag", "check_om1_index",
                  "check_strong_2j", "check_56_alternative", "check_om1_omega",
                  "check_om6_omega")


def build_recovery(gc, seed: int, workdir: Path) -> list[Op]:
    x = gc.default_grid().log_t
    ops: list[Op] = []
    for idx, (kind, param, M) in enumerate(_recovery_inputs(gc, seed)):
        # every call starts from the raw input, so no call reuses another's hull
        J = M.J
        calls = {
            "log_convex_minorant": lambda M=M: gc.log_convex_minorant(M),
            "omega_closed_form": lambda M=M: gc.AssociatedWeight(M).omega_log(
                x, mode="closed_form"),
            "omega_sup_scan": lambda M=M: gc.AssociatedWeight(M).omega_log(x, mode="sup_scan"),
            "legendre_recover": lambda M=M, J=J: gc.legendre_recover(gc.AssociatedWeight(M), J=J),
            "associated_sequence": lambda M=M, J=J: gc.associated_sequence(
                gc.from_sequence(M), J=J),
            "sandwich_check": lambda M=M, J=J: gc.sandwich_check(gc.from_sequence(M), J=J),
            "is_LC": lambda M=M: gc.is_LC(M),
            "check_mg": lambda M=M: gc.check_mg(M),
            "check_mg_diag": lambda M=M: gc.check_mg_diag(M),
            "check_om1_index": lambda M=M: gc.check_om1_index(M),
            "check_strong_2j": lambda M=M: gc.check_strong_2j(M),
            "check_56_alternative": lambda M=M: gc.check_56_alternative(M),
            "check_om1_omega": lambda M=M: gc.check_om1_omega(M),
            "check_om6_omega": lambda M=M: gc.check_om6_omega(M),
        }
        for name in RECOVERY_CALLS:
            ops.append(Op((idx, M.label, name), calls[name],
                          {"kind": kind, "param": param, "M": M, "x": x}))
    return ops


def check_recovery(gc, ops: list[Op], results: list, seed: int) -> Checked:
    out = Checked()
    by_input: dict[int, dict] = {}
    for o, r in zip(ops, results):
        by_input.setdefault(o.key[0], {"meta": o.meta, "label": o.key[1]})[o.key[2]] = r
    sub = slice(None, None, max(1, len(ops[0].meta["x"]) // ORACLE_POINTS))
    for idx in sorted(by_input):
        d = by_input[idx]
        meta, label = d["meta"], d["label"]
        M, kind, x = meta["M"], meta["kind"], meta["x"]
        tag = f"input {idx} ({label}, J={M.J})"

        def key(call: str) -> tuple:
            return (idx, label, call)

        hull = oracles.lower_hull(M.log_values)
        gap = oracles.max_rel_gap(d["log_convex_minorant"].log_values, hull)
        if gap > HULL_RTOL:
            out.fail(key("log_convex_minorant"),
                     f"{tag}: minorant off the independent hull by {gap:.3g}")
        cf, scan = d["omega_closed_form"], d["omega_sup_scan"]
        route_gap = float(np.max(np.abs(cf - scan)))
        if route_gap > DUAL_ROUTE_ATOL:
            for call in ("omega_closed_form", "omega_sup_scan"):
                out.fail(key(call), f"{tag}: omega routes differ by {route_gap:.3g}")
        if kind == "gevrey":
            ref = oracles.gevrey_omega(meta["param"], M.J, x[sub])
        elif kind == "qgevrey":
            ref = oracles.qgevrey_omega(meta["param"], M.J, x[sub])
        else:
            ref = None
        if ref is not None:
            gap = oracles.max_rel_gap(cf[sub], ref)
            if gap > DIRECT_MAX_RTOL:
                out.fail(key("omega_closed_form"),
                         f"{tag}: omega off the direct maximum by {gap:.3g}")
        R = d["legendre_recover"]
        cap = min(M.J, int(R.meta["reliable_max_index"]))
        gap = oracles.max_rel_gap(R.log_values[:cap + 1], hull[:cap + 1])
        if gap > RECOVERY_RTOL:
            out.fail(key("legendre_recover"),
                     f"{tag}: recovery off the minorant by {gap:.3g} on j<={cap}")
        mg = d["check_mg"].state.value
        if kind == "gevrey" and mg != "Holds":
            out.fail(key("check_mg"), f"{tag}: moderate growth {mg}, want Holds")
        if kind == "qgevrey" and mg != "Fails":
            out.fail(key("check_mg"), f"{tag}: moderate growth {mg}, want Fails")
        verdicts = [n for n in RECOVERY_CALLS if hasattr(d[n], "state")]
        out.digest.append(f"{label}|J={M.J}|" + "|".join(
            f"{n}:{_verdict_text(d[n])}" for n in verdicts))
    return out


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

CLI_GEVREY = ("0.5", "1", "1.5", "2", "3")
CLI_QGEVREY = ("1.25", "1.5", "2", "3")
CLI_SOURCES = tuple(f"gevrey:{s}" for s in CLI_GEVREY) + tuple(f"qgevrey:{q}" for q in CLI_QGEVREY)
CLI_COMPARE_J = ("256", "512")
CLI_ANALYZE_J = ("256", "512", "1024", "2048")
CLI_TABLE_GRID_N = ("1024", "2048", "4096")
CLI_SEEDED_REPEATS = 6
# q-Gevrey sources whose index-doubling witness overflows to inf; their
# reports are not valid JSON, so each is a failed operation in every round
CLI_OVERFLOWS = (
    ("seq", "analyze", "qgevrey:5", "--J", "2048"),
    ("seq", "analyze", "qgevrey:3", "--J", "4096"),
    ("spaces", "system-equiv", "--seq", "qgevrey:5", "--J", "2048"),
)


def _write_cli_inputs(workdir: Path, rng) -> tuple[list[str], list[str], str]:
    """Walk sequence CSVs, tabulated weight CSVs and a config file."""
    walks, tables = [], []
    for i, J in enumerate((512, 1024, 512)):
        y = np.concatenate(([0.0], np.cumsum(rng.normal(WALK_STEP_MEAN, WALK_STEP_SD, J))))
        p = workdir / f"walk{i}.csv"
        p.write_text("".join(f"{j},{float(v)!r}\n" for j, v in enumerate(y)))
        walks.append(str(p))
    t = np.geomspace(1e-3, 1e9, 400)
    x = np.log(t)
    for i in range(len(CLI_TABLE_GRID_N)):
        # quadratic growth in log t, the shape of a q-Gevrey weight
        a = float(rng.uniform(0.2, 1.0))
        w = np.where(x > 0.0, a * x * x, 0.0)
        p = workdir / f"table{i}.csv"
        p.write_text("".join(f"{float(ti)!r},{float(wi)!r}\n" for ti, wi in zip(t, w)))
        tables.append(str(p))
    config = workdir / "config.json"
    config.write_text(json.dumps({"J": 256, "margin": 0.05, "grid_n": 2048}))
    return walks, tables, str(config)


def build_cli(gc, seed: int, workdir: Path) -> list[Op]:
    """Every round runs the same command kinds in the same numbers.

    The costly parameters (source family, J, grid size) are laid out the same
    way for every seed, so the seed changes the input files, the compared
    pairs, the space specs, the probes and the order, not the amount of work.
    """
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    walks, tables, config = _write_cli_inputs(workdir, rng)
    walks512 = walks[::2]
    argvs: list[tuple[list[str], dict]] = []
    for i, src in enumerate(CLI_SOURCES):
        J = CLI_ANALYZE_J[i % len(CLI_ANALYZE_J)]
        argvs.append((["seq", "analyze", src, "--J", J], {}))
        argvs.append((["weight", "analyze", src, "--J", J], {}))
        argvs.append((["spaces", "system-equiv", "--seq", src,
                       "--config", config], {}))
    for q in CLI_QGEVREY:
        argvs.append((["weight", "analyze", f"qgevrey:{q}", "--J", "4096"], {}))
    for walk in walks:
        argvs.append((["seq", "analyze", "file:" + walk], {}))
        argvs.append((["theta", "eval", "file:" + walk, "--t", "0.25,0.5,1"], {}))
    for table, n in zip(tables, CLI_TABLE_GRID_N):
        argvs.append((["weight", "analyze", "file:" + table, "--grid-n", n], {}))
    for i in range(CLI_SEEDED_REPEATS):
        a, b = pick.sample(CLI_SOURCES, 2)
        argvs.append((["seq", "compare", a, b, "--J", CLI_COMPARE_J[i % 2]],
                      {"oracle": (a, b)}))
        argvs.append((["seq", "compare", "file:" + walks512[i % 2], pick.choice(CLI_SOURCES),
                       "--J", "512"], {}))
        s1, s2 = sorted(pick.sample(CLI_GEVREY, 2), key=float, reverse=True)
        axis = ("Dila", "Pow")[i % 2]
        argvs.append((["spaces", "decide", "--left", f"Inductive{axis}:gevrey:{s1}",
                       "--right", f"Projective{axis}:gevrey:{s2}"], {}))
        src = pick.choice(CLI_SOURCES)
        argvs.append((["spaces", "decide", "--left", f"InductiveDila:{src}",
                       "--right", f"InductivePow:{src}"], {}))
        argvs.append((["spaces", "decide", "--left", f"SingleO:gevrey:{s1}",
                       "--right", f"SingleO:gevrey:{s2}"], {}))
        kind = ("dila", "pow")[i % 2]
        c = pick.choice(("0.5", "1", "2")) if kind == "dila" else pick.choice(("1", "2"))
        argvs.append((["theta", "eval", pick.choice(CLI_SOURCES), "--kind", kind, "--c", c,
                       "--t", "0.5,2,10"], {}))
    for _ in range(2):
        # no characterization covers a single space against a system: exit 2
        argvs.append((["spaces", "decide", "--left", f"SingleO:{pick.choice(CLI_SOURCES)}",
                       "--right", f"ProjectivePow:{pick.choice(CLI_SOURCES)}"], {"rc": 2}))
    for argv in CLI_OVERFLOWS:
        argvs.append((list(argv), {"overflow": True}))
    pick.shuffle(argvs)

    def op(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = gc.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        return run

    return [Op(tuple(argv), op(argv), {**meta, "workdir": str(workdir)}) for argv, meta in argvs]


class NonFinite(ValueError):
    """A number in the output that strict JSON has no literal for."""


NON_FINITE_TOKENS = ("inf", "-inf", "nan", "Infinity", "-Infinity", "NaN")


def _strict_json(text: str):
    """Parse strict JSON; raise NonFinite when a non-finite number is why not."""
    def reject(token):
        raise NonFinite(f"non-finite number {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        token = re.match(r"-?[A-Za-z]+", text[exc.pos:])
        if token and token.group() in NON_FINITE_TOKENS:
            raise NonFinite(f"non-finite number {token.group()} at char {exc.pos}") from None
        raise


def check_cli(gc, ops: list[Op], results: list, seed: int) -> Checked:
    out = Checked()
    for o, (rc, stdout, stderr) in zip(ops, results):
        argv = " ".join(o.key)
        # input files live in a per-process directory; the digest must not see it
        out.digest.append(f"{argv}|rc={rc}|{stdout}".replace(o.meta["workdir"], ""))
        want_rc = o.meta.get("rc", 0)
        if rc != want_rc:
            out.fail(o.key, f"{argv}: exit code {rc}, want {want_rc}: {stderr.strip()[:120]}")
            continue
        if want_rc != 0:
            if stdout:
                out.fail(o.key, f"{argv}: usage error wrote to stdout")
            continue
        try:
            doc = _strict_json(stdout)
        except NonFinite as exc:
            if o.meta.get("overflow"):
                out.excused.add(o.key)
            else:
                out.fail(o.key, f"{argv}: stdout is not strict finite JSON ({exc})")
            continue
        except ValueError as exc:
            out.fail(o.key, f"{argv}: stdout is not JSON ({exc})")
            continue
        states = {r["check"]: r["state"] for r in doc.get("results", []) if "check" in r}
        if "oracle" in o.meta:
            la, lb = (_cli_label(s) for s in o.meta["oracle"])
            ab = oracles.bridge_expectation(la, lb)
            ba = oracles.bridge_expectation(lb, la)
            want = {"bridge_triangle_ab": ab[0], "bridge_pow_ab": ab[1],
                    "bridge_triangle_ba": ba[0], "bridge_pow_ba": ba[1]}
            for name, state in want.items():
                if states.get(name) != state:
                    out.fail(o.key, f"{argv}: {name} {states.get(name)}, "
                                    f"leading-term rule says {state}")
        if o.key[:2] == ("seq", "analyze") and not o.key[2].startswith("file:"):
            want_mg = "Holds" if o.key[2].startswith("gevrey") else "Fails"
            if states.get("mg") != want_mg:
                out.fail(o.key, f"{argv}: mg {states.get('mg')}, want {want_mg}")
    return out


def _cli_label(source: str) -> str:
    kind, _, value = source.partition(":")
    return f"{kind}({float(value):g})"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "bridge-sweep": (build_bridge, check_bridge),
    "series-membership": (build_series, check_series),
    "sequence-recovery": (build_recovery, check_recovery),
    "cli-mix": (build_cli, check_cli),
}
