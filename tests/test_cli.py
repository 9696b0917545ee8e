"""Command-line front end: determinism, exit codes, config layering."""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import growthcomp.associated_weight
import growthcomp.cli
import growthcomp.weight_functions
from growthcomp import from_table, holds, is_normalized
from growthcomp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_seq_analyze_report(capsys):
    code, out, err = run(capsys, "seq", "analyze", "gevrey:1", "--J", "64")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "seq analyze"
    states = {row["check"]: row["state"] for row in doc["results"]}
    assert states["mg"] == "Holds"
    assert states["strong_2j"] == "Fails"


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in the report")


def test_steep_qgevrey_report_is_strict_json(capsys):
    # the index-doubling witness of a steep q-Gevrey base overflows exp()
    code, out, _ = run(capsys, "seq", "analyze", "qgevrey:5", "--J", "2048")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    om1 = next(row for row in doc["results"] if row["check"] == "om1_index")
    assert om1["witnesses"]["log_liminf_ratio"] > 709.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_witness_exits_two(capsys, monkeypatch, fmt):
    monkeypatch.setattr(growthcomp.cli, "check_om1_index",
                        lambda *a, **k: holds(witnesses={"L": float("nan")}))
    code, out, err = run(capsys, "seq", "analyze", "gevrey:1", "--J", "64",
                         "--format", fmt)
    assert code == 2 and out == ""
    assert "not a finite number" in err


def test_seq_compare_report(capsys):
    code, out, _ = run(capsys, "seq", "compare", "gevrey:1", "gevrey:2",
                       "--J", "64")
    assert code == 0
    doc = json.loads(out)
    states = {row["check"]: row["state"] for row in doc["results"]}
    assert states["bridge_triangle_ab"] == "Holds"
    assert states["bridge_triangle_ba"] == "Fails"


def test_weight_analyze_from_table(capsys, tmp_path):
    p = tmp_path / "w.csv"
    xs = np.linspace(0.0, 14.0, 30)
    p.write_text("# t, omega\n" + "\n".join(
        f"{t:.9g},{w:.9g}" for t, w in zip(np.exp(xs), np.exp(xs / 2.0))))
    code, out, _ = run(capsys, "weight", "analyze", f"file:{p}", "--J", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["label"] == "w"
    assert {row["check"] for row in doc["results"]} >= {"om6_weight",
                                                        "sandwich"}
    assert doc["associated_sequence"]["J"] == 16


def test_weight_analyze_recovers_the_associated_sequence_once(capsys, monkeypatch):
    # the sandwich check reads the recovery that the report prints
    calls = []
    real = growthcomp.weight_functions.associated_sequence

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (growthcomp.cli, growthcomp.weight_functions):
        monkeypatch.setattr(module, "associated_sequence", counted)
    for source in ("gevrey:2", f"file:{GOLDEN / 'table.csv'}"):
        calls.clear()
        code, out, _ = run(capsys, "weight", "analyze", source, "--J", "64")
        assert code == 0 and len(calls) == 1, source
        assert "sandwich" in {row["check"] for row in json.loads(out)["results"]}


# the trend fits of the bridges still overflow on this input, with warnings
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_seq_compare_reads_a_walk_near_the_end_of_the_float_range(capsys, tmp_path):
    y = np.concatenate(([0.0], np.cumsum(np.random.default_rng(0).normal(0.6, 1.5, 64))))
    y[10] = -1.7e308
    p = tmp_path / "walk.csv"
    p.write_text("".join(f"{j},{v!r}\n" for j, v in enumerate(y.tolist())))
    code, out, _ = run(capsys, "seq", "compare", f"file:{p}", "gevrey:1", "--J", "64")
    assert code == 0
    assert len(json.loads(out)["results"]) > 0


def test_weight_analyze_abstains_on_normalization_before_t_one(capsys, tmp_path):
    # the table ends at t = 0.5, so omega on [t_min, 1] is not known
    p = tmp_path / "short.csv"
    p.write_text("0.1,0\n0.5,2\n")
    code, out, err = run(capsys, "weight", "analyze", f"file:{p}")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_reject_constant)
    normalized = doc["results"][0]
    assert normalized["check"] == "normalized"
    assert normalized["state"] == "Inconclusive"
    assert normalized["note"] == "faithful range ends before t = 1"
    assert len(doc["results"]) == 6


def test_weight_analyze_rejects_an_infinite_t(capsys, tmp_path):
    # 1e400 parses as inf; the table is refused before any grid sees it, so
    # nothing warns (pytest turns a RuntimeWarning into an error here, as
    # python -W error::RuntimeWarning does)
    p = tmp_path / "inf.csv"
    p.write_text("0.5,0\n1,0\n10,3\n1e400,9\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "weight", "analyze", f"file:{p}")
    assert caught == []
    assert (code, out) == (2, "")
    assert err == f"growthcomp: error: cannot build weight from 'file:{p}': t must be finite\n"


BUMP_ROWS = ((0.001, 0.0), (0.5, 0.0), (0.505, 1.0), (0.51, 0.0),
             (1.0, 0.0), (10.0, 5.0), (100.0, 20.0))


def test_weight_analyze_catches_a_bump_between_samples(capsys, tmp_path):
    # omega is 1 at t = 0.505 only, a bump that a sampled check of [t_min, 1]
    # can step over; the exact test reads it off the knots
    p = tmp_path / "bump.csv"
    p.write_text("\n".join(f"{t:g},{w:g}" for t, w in BUMP_ROWS) + "\n")
    code, out, err = run(capsys, "weight", "analyze", f"file:{p}")
    assert (code, err) == (0, "")
    normalized = json.loads(out)["results"][0]
    assert normalized["state"] == "Fails"
    assert normalized["evidence"] == [[0.505, 1.0]]
    exact = is_normalized(from_table(*zip(*BUMP_ROWS), label="bump"))
    assert normalized == growthcomp.cli._verdict_entry("normalized", exact)


def test_spaces_decide_report(capsys):
    code, out, _ = run(capsys, "spaces", "decide",
                       "--left", "InductiveDila:gevrey:2",
                       "--right", "ProjectiveDila:gevrey:1", "--J", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["state"] == "Holds"
    assert doc["route"]
    assert "sides" in doc and "preconditions" in doc


def test_system_equiv_report(capsys):
    code, out, _ = run(capsys, "spaces", "system-equiv",
                       "--seq", "qgevrey:1.5", "--J", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["check"] == "system_equiv"
    assert doc["results"][0]["state"] == "Fails"


def test_theta_eval_report(capsys):
    code, out, _ = run(capsys, "theta", "eval", "gevrey:1",
                       "--t", "1,10,100")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["certified_log_t"] > np.log(100.0)
    got = {row["t"]: row["log_value"] for row in doc["results"]}
    assert got[100.0] == pytest.approx(50.0, rel=1e-9)


def test_theta_eval_rejects_nan(capsys):
    code, out, err = run(capsys, "theta", "eval", "gevrey:1", "--t", "1,nan")
    assert code == 2 and out == ""
    assert "t must be a number, got nan" in err


def test_verify_exit_zero_on_pass(capsys):
    code, out, _ = run(capsys, "verify", "dual-routes", "--J", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["results"][0]["suite"] == "dual-routes"


def test_verify_exits_one_on_a_planted_defect(capsys, monkeypatch):
    # the sup-scan route of omega moved by 1e-9, above the 1e-12 tolerance
    real = growthcomp.associated_weight.conjugate
    monkeypatch.setattr(growthcomp.associated_weight, "conjugate",
                        lambda a, b, c: real(a, b, c) + 1e-9)
    code, out, _ = run(capsys, "verify", "dual-routes", "--J", "64")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False and doc["results"][0]["passed"] is False
    assert doc["results"][0]["detail"].startswith("max absolute gap 1e-09 over 4096")
    assert "tolerance 1e-12; worst member" in doc["results"][0]["detail"]


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(growthcomp.cli, "check_mg", interrupted)
    assert run(capsys, "seq", "analyze", "gevrey:1", "--J", "64") == (130, "", "")


# ---------------------------------------------------------------------------
# determinism and formats
# ---------------------------------------------------------------------------

def test_json_text_writes_none_as_null():
    text = growthcomp.cli._json_text
    assert text(None) == "null"
    assert text({"a": [None]}) == '{\n  "a": [\n    null\n  ]\n}'
    # one line, as the CSV comment lines write it
    doc = {"a": [None, 1, {"b": 0.5, "c": [True, "x"]}], "d": {}, "e": []}
    assert text(doc, None) == ('{"a": [null, 1, {"b": 0.5, "c": [true, "x"]}], '
                               '"d": {}, "e": []}')
    assert text({}, None) == "{}" and text([], None) == "[]"
    assert json.loads(text(doc, None)) == json.loads(text(doc)) == doc


def test_reports_are_byte_identical(capsys):
    argv = ("seq", "analyze", "gevrey:1", "--J", "64")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv_csv = argv + ("--format", "csv")
    _, c1, _ = run(capsys, *argv_csv)
    _, c2, _ = run(capsys, *argv_csv)
    assert c1 == c2


def test_csv_format_shape(capsys):
    code, out, _ = run(capsys, "seq", "analyze", "gevrey:1", "--J", "64",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# config:") for l in comments)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "check,state,witnesses,evidence,note"


def test_csv_float_cells_carry_the_json_digits(capsys):
    argv = ("theta", "eval", "gevrey:1", "--J", "64", "--t", "1,10")
    _, out, _ = run(capsys, *argv)
    rows = json.loads(out)["results"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("# ")]
    assert lines[0] == "t,log_value,tail_error"
    assert lines[1:] == [",".join(f"{row[k]:.17g}" for k in ("t", "log_value", "tail_error"))
                         for row in rows]


# ---------------------------------------------------------------------------
# each command offers and echoes only the settings it reads
# ---------------------------------------------------------------------------

WALK = Path(__file__).resolve().parent / "golden" / "walk.csv"

ECHOED = {
    ("seq", "analyze", "gevrey:1"): {"J", "margin", "fmt"},
    # a file keeps its own J, so --J goes unread and unechoed
    ("seq", "analyze", f"file:{WALK}"): {"margin", "fmt"},
    ("seq", "compare", "gevrey:1", "gevrey:2"): {"J", "margin", "fmt"},
    ("weight", "analyze", "gevrey:1"): {"t_min", "t_max", "grid_n", "J", "margin",
                                        "fmt"},
    ("spaces", "decide", "--left", "InductiveDila:gevrey:2",
     "--right", "ProjectiveDila:gevrey:1"): {"J", "margin", "fmt"},
    ("spaces", "system-equiv", "--seq", "qgevrey:1.5"): {"J", "margin", "fmt"},
    ("theta", "eval", "gevrey:1", "--t", "1"): {"J", "fmt"},
    ("verify", "dual-routes"): {"J", "fmt"},
}


@pytest.mark.parametrize("argv", list(ECHOED), ids=lambda a: " ".join(a[:2])
                         + (" file" if any(w.startswith("file:") for w in a) else ""))
def test_report_echoes_the_settings_its_command_reads(capsys, argv):
    code, out, _ = run(capsys, *argv, "--J", "64")
    assert code == 0
    assert set(json.loads(out)["config"]) == ECHOED[argv]


@pytest.mark.parametrize("left, right, echoed", [
    (f"file:{WALK}", f"file:{WALK}", False),
    (f"file:{WALK}", "gevrey:1", True),
], ids=["files only", "file and gevrey"])
def test_j_is_echoed_when_some_source_reads_it(capsys, left, right, echoed):
    for argv in (("seq", "compare", left, right),
                 ("spaces", "decide", "--left", f"InductiveDila:{left}",
                  "--right", f"ProjectiveDila:{right}")):
        code, out, _ = run(capsys, *argv, "--J", "300")
        assert code == 0
        assert ("J" in json.loads(out)["config"]) is echoed


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_flag_table_matches_the_parser():
    # the table under "flags besides `--config`": one row per command group
    text = README.read_text()
    start = text.index("| command | flags besides `--config` |")
    rows = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        commands, flags = line.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            assert command not in rows, f"{command} has two rows"
            rows[command] = re.findall(r"`([^`]+)`", flags)
    assert rows == {command: [growthcomp.cli._FLAGS[field][0] for field in fields]
                    for command, fields in growthcomp.cli.COMMAND_FIELDS.items()}


def test_unread_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "compare", "gevrey:1", "gevrey:2", "--grid-n", "256"])
    assert exc.value.code == 2
    assert "--grid-n" in capsys.readouterr().err


def test_grid_flag_changes_the_weight_report(capsys):
    argv = ("weight", "analyze", "gevrey:1", "--J", "64")
    _, plain, _ = run(capsys, *argv)
    _, coarse, _ = run(capsys, *argv, "--grid-n", "256")
    docs = [json.loads(out) for out in (plain, coarse)]
    assert docs[1]["config"]["grid_n"] == 256
    assert docs[0]["results"] != docs[1]["results"]


def test_config_file_may_set_unread_fields(capsys, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"J": 64, "margin": 0.05, "grid_n": 2048}))
    code, out, _ = run(capsys, "spaces", "system-equiv", "--seq", "gevrey:1",
                       "--config", str(p))
    assert code == 0
    assert json.loads(out)["config"] == {"J": 64, "margin": 0.05, "fmt": "json"}


# ---------------------------------------------------------------------------
# configuration layering
# ---------------------------------------------------------------------------

def test_config_file_feeds_the_run(capsys, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"J": 64, "fmt": "csv"}))
    code, out, _ = run(capsys, "seq", "analyze", "gevrey:1",
                       "--config", str(p))
    assert code == 0
    assert '"J": 64' in out and out.splitlines()[0].startswith("# command:")


def test_flags_override_the_config_file(capsys, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"J": 64}))
    code, out, _ = run(capsys, "seq", "analyze", "gevrey:1",
                       "--config", str(p), "--J", "32")
    assert code == 0
    assert json.loads(out)["config"]["J"] == 32


# the ladders, the knot grid and the recovery read library constants, so a
# config file that sets knot_augmented or the ladder and recovery keys is
# refused rather than run with a value it does not control
@pytest.mark.parametrize("key", ["bogus", "knot_augmented", "L_max", "C_max",
                                 "H_max", "safety", "cond_n"])
def test_unknown_config_key_rejected(capsys, tmp_path, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({key: 1}))
    code, out, err = run(capsys, "seq", "analyze", "gevrey:1",
                         "--config", str(p))
    assert (code, out) == (2, "")
    assert err == f"growthcomp: error: bad configuration: unknown config keys: {key}\n"


@pytest.mark.parametrize("fields, message", [
    ({"grid_n": 2048.5}, "grid_n must be int"),
    ({"J": 300.5}, "J must be int"),
    ({"fmt": 1}, "fmt must be str"),
    ({"J": 64, "margin": True}, "margin must be a finite number"),
    ({"t_max": float("inf")}, "t_max must be a finite number"),
])
def test_config_value_of_the_wrong_type_rejected(capsys, tmp_path, fields, message):
    # a float count was rounded or crashed numpy and an infinite grid end
    # crashed, while the report echoed the value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(fields))
    code, out, err = run(capsys, "weight", "analyze", "gevrey:1",
                         "--config", str(p))
    assert code == 2 and out == ""
    assert message in err


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_unknown_sequence_family(capsys):
    code, _, err = run(capsys, "seq", "analyze", "foo:1")
    assert code == 2
    assert "unknown sequence source" in err


def test_unrouted_spaces_exit_two(capsys):
    code, _, err = run(capsys, "spaces", "decide",
                       "--left", "ProjectiveDila:gevrey:2",
                       "--right", "InductiveDila:gevrey:1", "--J", "64")
    assert code == 2
    assert "no decision route" in err


def test_member_selector_on_a_system_exits_two(capsys):
    code, out, err = run(capsys, "spaces", "decide",
                         "--left", "InductiveDila:gevrey:2:c=64",
                         "--right", "ProjectiveDila:gevrey:1", "--J", "64")
    assert code == 2 and out == ""
    assert "applies to single spaces" in err



@pytest.mark.parametrize("argv", [
    ("seq", "compare", f"file:{WALK}", "gevrey:1"),
    ("spaces", "decide", "--left", f"InductiveDila:file:{WALK}",
     "--right", "ProjectiveDila:gevrey:1"),
    ("spaces", "decide", "--left", f"InductivePow:file:{WALK}",
     "--right", "ProjectivePow:gevrey:1"),
    ("spaces", "decide", "--left", f"SingleO:file:{WALK}",
     "--right", "SingleO:gevrey:1"),
], ids=["seq compare", "dilation crossing", "power crossing", "single spaces"])
def test_sequences_of_different_J_exit_two(capsys, argv):
    # walk.csv holds J = 300; gevrey:1 is built at --J 256
    code, out, err = run(capsys, *argv, "--J", "256")
    assert (code, out) == (2, "")
    assert "J = 300" in err and "J = 256" in err


def test_bad_theta_points(capsys):
    code, _, err = run(capsys, "theta", "eval", "gevrey:1", "--t", "1,x")
    assert code == 2
    assert "bad evaluation points" in err


def test_theta_beyond_radius_exits_two(capsys):
    code, _, err = run(capsys, "theta", "eval", "gevrey:1", "--J", "64",
                       "--t", "1e30")
    assert code == 2
    assert "certified" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


# both CSV readers (sequence rows 'j,logM', weight rows 't,omega'): exit 2, the
# message on stderr, nothing on stdout; a bad index is reported before the
# malformed row that follows it, since each row is converted as it is read
MALFORMED = {
    "three_fields": "0,0\n1,1,1\n2,3\n",
    "bad_index_first": "0,0\nx,1\n2,3,4\n",
    "one_row": "0,0\n",
}
MALFORMED_ERRORS = {
    ("seq", "three_fields"): "{p}:2: expected 'j,logM'",
    ("seq", "bad_index_first"): "invalid literal for int() with base 10: 'x'",
    ("seq", "one_row"): "need at least three entries (J >= 2)",
    ("weight", "three_fields"): "{p}:2: expected 't,omega'",
    ("weight", "bad_index_first"): "could not convert string to float: 'x'",
    ("weight", "one_row"): "{p}: need at least two data rows",
}


@pytest.mark.parametrize("reader, case", list(MALFORMED_ERRORS),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_csv_input_exits_two(capsys, tmp_path, reader, case):
    p = tmp_path / "bad.csv"
    p.write_text(MALFORMED[case])
    source = f"file:{p}"
    code, out, err = run(capsys, reader, "analyze", source)
    what = "sequence" if reader == "seq" else "weight"
    message = MALFORMED_ERRORS[reader, case].format(p=p)
    assert (code, out) == (2, "")
    assert err == f"growthcomp: error: cannot build {what} from {source!r}: {message}\n"


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_reuses_one_parser(capsys):
    argv = ("spaces", "decide", "--left", "InductivePow:gevrey:2",
            "--right", "ProjectivePow:gevrey:1", "--J", "64", "--format", "csv")
    first = run(capsys, *argv)
    assert first[0] == 0 and first[1]
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["seq", "analyze", "gevrey:1", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    # nothing of the failed parses (a missing command, an unknown flag)
    # carries over into the next report
    assert run(capsys, *argv) == first
    assert growthcomp.cli.build_parser() is growthcomp.cli.build_parser()


def _help(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_reads_the_same_after_a_report(capsys):
    before = _help(capsys, "seq", "compare")
    assert run(capsys, "seq", "compare", "gevrey:1", "gevrey:2", "--J", "64")[0] == 0
    assert _help(capsys, "seq", "compare") == before
    assert "--margin" in before
