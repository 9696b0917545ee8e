"""Canonical series probes: certified evaluation and envelope bounds."""

from __future__ import annotations

import numpy as np
import pytest

import growthcomp.special_functions
from growthcomp import (ThetaFunction, bounds_check, gevrey, log_factorials,
                        q_gevrey, theta_eval, theta_series)
from growthcomp.special_functions import THETA_KINDS

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


def test_bounds_catch_a_series_kernel_that_misreports(g1, monkeypatch):
    # the envelope holds for the true partial sum, so only a wrong series
    # value breaks it: one under by 1 fails the lower bound, one over by 1
    # the upper bound, near t = 0 where both bounds are within 1 of it
    evaluate = growthcomp.special_functions.log_series_eval
    for shift in (-1.0, 1.0):
        def shifted(f, x, shift=shift):
            vals, args = evaluate(f, x)
            return vals + shift, args

        monkeypatch.setattr(growthcomp.special_functions, "log_series_eval", shifted)
        got = bounds_check(ThetaFunction(g1, "dila", 1.0))
        assert got.fails and len(got.evidence) == 1, shift
        assert got.note.startswith("envelope violated at "), shift
