"""Canonical series probes: certified evaluation and envelope bounds."""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import growthcomp.spaces
import growthcomp.special_functions
from growthcomp import (FLAVORS, PowerSeries, SpaceSpec, ThetaFunction,
                        bounds_check, default_grid, from_values, gevrey,
                        log_factorials, log_series_eval, membership, monomial,
                        q_gevrey, standard_battery, theta_eval, theta_series)
from growthcomp.acceptance import THETA_PROBES
from growthcomp.associated_weight import LOG2
from growthcomp.special_functions import (BOUNDS_RTOL, THETA_KINDS,
                                          _tail_log)
from growthcomp.verdicts import fails, holds, inconclusive

# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_kinds_and_guards(g1):
    assert THETA_KINDS == ("dila", "pow")
    with pytest.raises(ValueError, match="kind"):
        ThetaFunction(g1, "both", 1.0)
    with pytest.raises(ValueError, match="integer"):
        ThetaFunction(g1, "pow", 1.5)
    with pytest.raises(ValueError, match="positive"):
        ThetaFunction(g1, "dila", 0.0)


def test_probes_read_their_sequence_weight(g1):
    # one associated weight, with its one minorant, per sequence
    for kind, c in (("dila", 2.0), ("pow", 2.0)):
        assert ThetaFunction(g1, kind, c)._aw is g1.associated_weight


def test_dila_coefficients_are_halved_reciprocals():
    # a_j = c^j / (2^j M_j), logged
    M = gevrey(1.0, 8)
    lf = log_factorials(8)
    j = np.arange(9)
    f1 = theta_series(ThetaFunction(M, "dila", 1.0))
    np.testing.assert_array_equal(f1.log_abs_coeffs, -j * np.log(2.0) - lf)
    f2 = theta_series(ThetaFunction(M, "dila", 2.0))
    np.testing.assert_array_equal(f2.log_abs_coeffs,
                                  j * np.log(2.0) - j * np.log(2.0) - lf)


def test_pow_series_runs_to_the_compressed_top():
    M = gevrey(1.0, 8)
    f = theta_series(ThetaFunction(M, "pow", 2.0))
    assert f.truncation == 16
    assert not f.complete


# ---------------------------------------------------------------------------
# certified evaluation
# ---------------------------------------------------------------------------

def test_factorial_probe_is_half_exponential(g1):
    # sum (t/2)^j / j! = exp(t/2)
    T = ThetaFunction(g1, "dila", 1.0)
    for t in (1.0, 10.0, 100.0):
        val, err = theta_eval(T, t)
        assert val == pytest.approx(t / 2.0, rel=1e-9)
        assert err <= 1e-9


def test_evaluation_edges(g1):
    T = ThetaFunction(g1, "dila", 1.0)
    assert theta_eval(T, 0.0) == (0.0, 0.0)
    with pytest.raises(ValueError, match="t >= 0"):
        theta_eval(T, -1.0)
    with pytest.raises(ValueError, match="nan"):
        theta_eval(T, float("nan"))


def test_certified_radius_is_enforced():
    T = ThetaFunction(gevrey(1.0, 64), "dila", 1.0)
    t_bad = np.exp(T.log_t_certified) * 2.0
    with pytest.raises(ValueError, match="certified"):
        theta_eval(T, t_bad)


def test_tail_error_brackets_the_true_value(g1):
    T = ThetaFunction(g1, "dila", 1.0)
    val, err = theta_eval(T, 25.0)
    assert abs(val - 12.5) <= err + 1e-12


# ---------------------------------------------------------------------------
# envelope bounds
# ---------------------------------------------------------------------------

def test_bounds_hold_for_both_kinds(g1):
    for kind, c in (("dila", 0.5), ("dila", 2.0), ("pow", 2.0)):
        vd = bounds_check(ThetaFunction(g1, kind, c))
        assert vd.holds, (kind, c)


def test_bounds_hold_for_q_growth(q15):
    assert bounds_check(ThetaFunction(q15, "dila", 1.0)).holds


def test_bounds_abstain_without_certified_points(g1):
    # certified below log t = log mu_end - log c, under the grid start
    got = bounds_check(ThetaFunction(g1, "dila", 1e12))
    assert got.inconclusive
    assert got.note == "no certified grid points inside the faithful range"


def test_bounds_catch_a_series_kernel_that_misreports(monkeypatch):
    # the envelope holds for the true partial sum, so only a wrong series
    # value breaks it: one under by 1 fails the lower bound, one over by 1
    # the upper bound, near t = 0 where both bounds are within 1 of it.  A
    # dilation probe reads the window its sequence holds, evaluated by the
    # kernel of spaces on first read, so each shift takes a new sequence
    evaluate = growthcomp.spaces.log_series_eval
    for shift in (-1.0, 1.0):
        def shifted(f, x, *cut, shift=shift):
            vals, args = evaluate(f, x, *cut)
            return vals + shift, args

        monkeypatch.setattr(growthcomp.spaces, "log_series_eval", shifted)
        got = bounds_check(ThetaFunction(gevrey(1.0), "dila", 1.0))
        assert got.fails and len(got.evidence) == 1, shift
        assert got.note.startswith("envelope violated at "), shift


# ---------------------------------------------------------------------------
# held probes: one series and one window per (sequence, c)
# ---------------------------------------------------------------------------

WALK_CSV = Path(__file__).resolve().parent / "golden" / "walk.csv"
HELD_SCALES = (2.0 ** -10, 0.5, 1.0, 2.0, 3.0, 2.0 ** 10)


def _walk():
    _, log_m = np.loadtxt(WALK_CSV, delimiter=",", comments="#", unpack=True)
    return from_values(log_m, label="walk")


def _fresh_series(T):
    """The probe's coefficients as a new series, built as theta_series
    built them on every call."""
    P, J = T.source.log_values, T.source.J
    j = np.arange(J + 1, dtype=float)
    if T.kind == "dila":
        coeffs = j * (math.log(T.c) - LOG2) - P
    else:
        c = int(T.c)
        coeffs = np.full(c * J + 1, -np.inf)
        coeffs[c * np.arange(J + 1)] = -j * LOG2 - c * P
    return PowerSeries(coeffs, label=T.label, complete=False)


def _bounds_check_per_call(T):
    """bounds_check with the probe evaluated on its certified points per call."""
    g = default_grid()
    mask = g.log_t < T.log_t_certified
    if int(mask.sum()) < 2:
        return inconclusive("no certified grid points inside the faithful range")
    x = g.log_t[mask]
    vals, _ = log_series_eval(_fresh_series(T), x)
    aw = T.source.associated_weight
    if T.kind == "dila":
        lb = aw.omega_log(x + math.log(T.c) - LOG2)
        ub = LOG2 + aw.omega_log(x + math.log(T.c))
        upper_gap = (vals + np.log1p(np.exp(_tail_log(T, x) - vals))) - ub
    else:
        lb = T.c * aw.omega_log(x - LOG2 / T.c)
        upper_gap = None
    scale = np.maximum(1.0, np.abs(lb))
    lower_gap = lb - vals
    bad = lower_gap > BOUNDS_RTOL * scale
    if upper_gap is not None:
        bad |= upper_gap > BOUNDS_RTOL * np.maximum(1.0, np.abs(ub))
    n = len(x)
    if np.any(bad):
        k = int(np.argmax(np.where(bad, lower_gap, -np.inf)))
        return fails(evidence=((float(np.exp(x[k])), float(lower_gap[k])),),
                     note=f"envelope violated at {int(bad.sum())} of {n} certified points")
    w = {"points": float(n), "max_lower_slack": float(np.max(lower_gap))}
    if upper_gap is not None:
        w["max_upper_slack"] = float(np.max(upper_gap))
    return holds(witnesses=w, note=f"envelope verified at all {n} certified points")


@pytest.mark.parametrize("J", [64, 512, 4096])
def test_held_window_holds_the_certified_values_bit_for_bit(J):
    # the certified points are a prefix of the grid inside the held window,
    # and the kernel is pointwise: the window's prefix is the evaluation of
    # a new series on the certified points alone
    x = default_grid().log_t
    sequences = list(standard_battery(J))
    if J == 512:
        sequences += [_walk(), q_gevrey(16.0, J)]
    cases = 0
    for M in sequences:
        for c in HELD_SCALES:
            T = ThetaFunction(M, "dila", c)
            n = int(np.sum(x < T.log_t_certified))
            vals, inside = theta_series(T)._window
            assert n <= len(vals), (M.label, c)
            want, _ = log_series_eval(_fresh_series(T), x[:n])
            assert vals[:n].tobytes() == want.tobytes(), (M.label, c)
            cases += n > 0
    # only the widest dilation leaves a member with no certified point
    assert cases >= (len(HELD_SCALES) - 1) * len(sequences)


def test_bounds_read_the_held_window_bit_for_bit(small_battery, battery):
    for M in (*small_battery, *battery[::5], _walk()):
        probes = [("dila", c) for c in HELD_SCALES] + [("pow", c) for c in (1.0, 2.0, 3.0)]
        for kind, c in probes:
            T = ThetaFunction(M, kind, c)
            got = repr(bounds_check(T).to_dict())
            assert got == repr(_bounds_check_per_call(T).to_dict()), (M.label, kind, c)


def test_power_probe_one_has_the_dilation_probe_one_coefficients(small_battery):
    for M in (*small_battery, _walk()):
        pow_one = theta_series(ThetaFunction(M, "pow", 1.0))
        dila_one = theta_series(ThetaFunction(M, "dila", 1.0))
        assert pow_one.log_abs_coeffs.tobytes() == dila_one.log_abs_coeffs.tobytes()
        assert pow_one.label != dila_one.label


def test_dilation_probes_are_held_and_power_probes_new():
    M = gevrey(1.5, 64)
    held = theta_series(ThetaFunction(M, "dila", 2.0))
    assert theta_series(ThetaFunction(M, "dila", 2.0)) is held
    assert theta_series(ThetaFunction(M, "dila", 0.5)) is not held
    fresh = _fresh_series(ThetaFunction(M, "dila", 2.0))
    assert held.log_abs_coeffs.tobytes() == fresh.log_abs_coeffs.tobytes()
    assert held.label == fresh.label and not held.complete
    first = theta_series(ThetaFunction(M, "pow", 2.0))
    assert theta_series(ThetaFunction(M, "pow", 2.0)) is not first
    assert first.label == "theta[gevrey(1.5)|pow|c=2]"


def test_theta_eval_sums_the_held_coefficients_bit_for_bit(small_battery):
    def per_call(T, t):
        x = math.log(t)
        c = _fresh_series(T).log_abs_coeffs
        idx = np.nonzero(np.isfinite(c))[0]
        terms = np.sort(c[idx] + idx * x)[::-1]
        partial = float(terms[0] + np.log(np.exp(terms - terms[0]).sum()))
        return partial, float(np.log1p(np.exp(float(_tail_log(T, x)) - partial)))

    for M in (*small_battery[::3], _walk()):
        for kind, c in [("dila", c) for c in HELD_SCALES] + [("pow", 1.0), ("pow", 2.0)]:
            T = ThetaFunction(M, kind, c)
            for t in (1e-3, 0.5, 2.0, 10.0, 100.0):
                if math.log(t) < T.log_t_certified:
                    assert theta_eval(T, t) == per_call(T, t), (M.label, kind, c, t)


def test_a_membership_round_forms_one_window_per_member_and_scale(monkeypatch):
    # the series-membership round of the benchmark over a new battery: each
    # dilation probe forms its window once, and the envelope evaluates the
    # kernel only for power probes c >= 2
    windows, evaluated = Counter(), Counter()
    kernel = growthcomp.spaces.log_series_eval

    def in_spaces(f, x, *cut):
        if cut:
            windows[f.label] += 1
        return kernel(f, x, *cut)

    def in_special_functions(f, x, *cut):
        evaluated[f.label] += 1
        return kernel(f, x, *cut)

    monkeypatch.setattr(growthcomp.spaces, "log_series_eval", in_spaces)
    monkeypatch.setattr(growthcomp.special_functions, "log_series_eval", in_special_functions)
    battery = standard_battery(512)
    for _ in range(2):
        for M in battery:
            for flavor in FLAVORS:
                S = SpaceSpec(flavor, M, c=1.0 if flavor.startswith("Single") else None)
                for k in (0, 3):
                    assert membership(monomial(k), S).holds
            for c in (0.5, 1.0, 2.0):
                f = theta_series(ThetaFunction(M, "dila", c))
                assert membership(f, SpaceSpec("InductiveDila", M)).holds
                assert membership(f, SpaceSpec("ProjectiveDila", M)).fails
            for kind, c in THETA_PROBES:
                T = ThetaFunction(M, kind, c)
                assert bounds_check(T).holds, (M.label, kind, c)
                theta_eval(T, 2.0)
    assert sorted(windows) == sorted(ThetaFunction(M, "dila", c).label
                                     for M in battery for c in (0.5, 1.0, 2.0))
    assert set(windows.values()) == {1}
    assert sorted(evaluated) == sorted(ThetaFunction(M, "pow", 2.0).label for M in battery)
    assert set(evaluated.values()) == {2}
