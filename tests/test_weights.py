"""Weight layer: algebra, normalization, structure checks, recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import (AssociatedWeight, associated_sequence,
                        check_om1_weight, check_om6_weight, from_log_quotients,
                        from_sequence, from_table, gevrey, is_convex_weight,
                        normalize, product, q_gevrey, rapidly_decreasing,
                        sandwich_check, strong_ratio_check, weight_preceq,
                        weight_preceq_dila, weight_preceq_pow, weight_triangle)
from growthcomp.associated_weight import LADDER_GRID_N
from growthcomp.weight_functions import (FORALL_LADDER, ForallSamples,
                                         _comparison_grid, _rung_samples)

# ---------------------------------------------------------------------------
# dilation and power algebra
# ---------------------------------------------------------------------------

def _xgrid():
    return np.linspace(-1.0, 8.0, 65)


@given(st.floats(0.25, 8.0))
@settings(max_examples=40, deadline=None)
def test_dilation_shifts_the_argument(c):
    u = from_sequence(gevrey(1.0, 64))
    x = _xgrid()
    np.testing.assert_allclose(u.dilate(c).omega_log(x),
                               u.omega_log(x + np.log(c)), rtol=0, atol=1e-12)


@given(st.floats(0.25, 8.0))
@settings(max_examples=40, deadline=None)
def test_power_scales_the_value(c):
    u = from_sequence(gevrey(1.0, 64))
    x = _xgrid()
    np.testing.assert_allclose(u.power(c).omega_log(x),
                               c * np.asarray(u.omega_log(x)), rtol=0,
                               atol=1e-12)


def test_dilations_compose():
    u = from_sequence(gevrey(1.0, 64))
    x = _xgrid()
    np.testing.assert_allclose(u.dilate(2.0).dilate(3.0).omega_log(x),
                               u.dilate(6.0).omega_log(x), rtol=0, atol=1e-9)


def test_unit_parameters_change_nothing():
    u = from_sequence(gevrey(1.0, 64))
    x = _xgrid()
    np.testing.assert_array_equal(u.dilate(1.0).omega_log(x), u.omega_log(x))
    np.testing.assert_array_equal(u.power(1.0).omega_log(x), u.omega_log(x))


def test_sequence_weight_matches_the_two_axes(g1):
    aw = AssociatedWeight(g1)
    x = _xgrid()
    np.testing.assert_array_equal(from_sequence(g1).dilate(2.0).omega_log(x),
                                  aw.omega_log(x + np.log(2.0)))
    np.testing.assert_array_equal(from_sequence(g1).power(2.0).omega_log(x),
                                  2.0 * aw.omega_log(x))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_sequence_weight_is_already_normalized(g1):
    u = from_sequence(g1)
    assert u.normalized
    assert normalize(u) is u


def test_normalize_pins_the_low_range():
    sh = from_table([0.1, 1.0, 10.0, 100.0], [0.3, 0.5, 2.0, 9.0])
    assert not sh.normalized
    ns = normalize(sh)
    np.testing.assert_array_equal(ns.omega_log(np.array([-2.0, 0.0])),
                                  [0.0, 0.0])
    assert normalize(ns) is ns


def test_transforms_of_a_normalized_weight_fold():
    ns = normalize(from_table([0.1, 1.0, 10.0, 100.0], [0.3, 0.5, 2.0, 9.0]))
    x = np.linspace(-2.0, 3.0, 41)
    np.testing.assert_allclose(ns.power(2.0).omega_log(x),
                               2.0 * ns.omega_log(x), rtol=0, atol=1e-12)
    dn = ns.dilate(4.0)
    assert not dn.normalized
    want = np.maximum(0.0, dn.omega_log(x) - dn.omega_log(0.0))
    np.testing.assert_allclose(normalize(dn).omega_log(x), want, rtol=0,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# tabulated weights
# ---------------------------------------------------------------------------

def test_table_evaluation_stops_at_the_end():
    tab = from_table([1.0, 10.0], [0.0, 2.0])
    assert tab.log_t_reliable == pytest.approx(np.log(10.0))
    with pytest.raises(ValueError, match="beyond the tabulated range"):
        tab.omega_log(np.array([np.log(100.0)]))


@pytest.mark.parametrize("ts,oms", [([1.0], [0.0]),
                                    ([1.0, 1.0], [0.0, 1.0]),
                                    ([10.0, 1.0], [0.0, 1.0])])
def test_table_guards(ts, oms):
    with pytest.raises(ValueError):
        from_table(ts, oms)


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def test_convexity_check_discriminates(g1):
    assert is_convex_weight(from_sequence(g1)).holds
    kink = from_table([1.0, 10.0, 100.0], [0.0, 10.0, 12.0])
    assert is_convex_weight(kink).fails


def test_rapid_decrease_needs_unbounded_omega(g1):
    assert rapidly_decreasing(from_sequence(g1)).holds
    xs = np.linspace(0.0, 20.0, 50)
    flat = from_table(np.exp(xs), np.minimum(xs, 5.0))
    assert rapidly_decreasing(flat).fails


def test_strong_ratio_inequality(g1):
    u = from_sequence(g1)
    assert strong_ratio_check(u, 2.0, 2.0).holds
    assert strong_ratio_check(u, 1.0, 2.0).fails
    with pytest.raises(ValueError):
        strong_ratio_check(u, -1.0, 1.0)


def test_strong_ratio_evidence_is_a_log_t_on_the_window():
    # the faithful span reaches log t ~ 1124, where exp overflows
    u = from_sequence(product(q_gevrey(1.5, 512), q_gevrey(2.0, 512)))
    r = strong_ratio_check(u, 2.0, 2.0)
    (x, gap), = r.evidence
    assert np.isfinite(x) and np.isfinite(gap)
    assert x in np.linspace(0.0, u.log_t_reliable - np.log(2.0), LADDER_GRID_N)


def test_weight_level_growth_chain(g1, q15):
    assert check_om6_weight(from_sequence(g1)).holds
    assert check_om1_weight(from_sequence(g1)).holds
    assert check_om6_weight(from_sequence(q15)).fails
    assert check_om1_weight(from_sequence(q15)).holds


def test_weight_comparison_orientation(g1, g2):
    u1, u2 = from_sequence(g1), from_sequence(g2)
    assert weight_preceq(u1, u1).holds
    assert weight_preceq(u2, u1).holds
    assert weight_preceq(u1, u2).fails


@pytest.mark.parametrize("J", [128, 512])
def test_weight_ladders_on_settled_pairs(J):
    # both sides settle inside the faithful window at either truncation
    u1 = from_sequence(gevrey(1.0, J))
    for v in (from_sequence(gevrey(2.0, J)), from_sequence(q_gevrey(1.5, J))):
        assert weight_triangle(v, u1).holds
        assert weight_triangle(u1, v).fails
        for ladder in (weight_preceq_dila, weight_preceq_pow):
            vd = ladder(v, u1)
            assert vd.holds and vd.witnesses["c"] == 1.0


def _table_weight():
    log_t = np.linspace(-2.0, 8.0, 200)
    return from_table(np.exp(log_t), 0.5 * np.maximum(log_t, 0.0) ** 2, label="table")


@pytest.mark.parametrize("kind", ["sequence", "normalized", "table", "shifted_scaled"])
@pytest.mark.parametrize("family", ["dilate", "power"])
def test_shared_forall_samples_equal_the_per_rung_samples(kind, family):
    # the shared rung arrays must be the per-rung ones bit for bit: the same
    # window, and the same rung values without re-evaluating the family; the
    # q-Gevrey pair spans past the grid top, so its window is resampled
    w = {"sequence": lambda: from_sequence(q_gevrey(1.5, 128)),
         "normalized": lambda: normalize(from_sequence(
             from_log_quotients(np.linspace(-1.0, 4.0, 128)))),
         "table": _table_weight,
         "shifted_scaled": lambda: normalize(_table_weight()).dilate(0.3).power(1.7),
         }[kind]()
    assert kind != "normalized" or w.offset
    assert kind != "shifted_scaled" or (w.shift != 0.0 and w.scale != 1.0)
    for v in (from_sequence(gevrey(2.0, 128)), from_sequence(q_gevrey(2.0, 128))):
        make_rung = getattr(w, family)
        base = make_rung(1.0)
        shared = ForallSamples(v, w, family)
        for c in FORALL_LADDER:
            rung = make_rung(c)
            np.testing.assert_array_equal(
                shared.x, _comparison_grid(None, v, rung, base).log_t)
            direct = rung.omega_log(shared.x)
            if family == "power":
                np.testing.assert_array_equal(c * w.omega_log(shared.x), direct)
            got = shared.rung(c)
            want = _rung_samples(v, rung, None, base)
            assert (got is None) == (want is None)
            for a, b in zip(got or (), want or ()):
                np.testing.assert_array_equal(a, b)
            if got is not None:
                awake = np.isin(shared.x, got[0])
                np.testing.assert_array_equal(got[2], direct[awake])


# ---------------------------------------------------------------------------
# recovery and the sandwich
# ---------------------------------------------------------------------------

def test_associated_sequence_roundtrip(g1):
    Mu = associated_sequence(from_sequence(g1), J=64)
    cap = min(int(Mu.meta["reliable_max_index"]), Mu.J)
    assert cap >= 30
    np.testing.assert_allclose(Mu.log_values[1:cap + 1],
                               g1.log_values[1:cap + 1], rtol=1e-9, atol=1e-12)
    assert Mu.meta["origin_shift"] == 0.0
    assert Mu.meta["projection_magnitude"] == 0.0


def test_sandwich_on_sequence_weight(g1):
    vd = sandwich_check(from_sequence(g1))
    assert vd.holds
    assert abs(vd.witnesses["A"] - 1.0) <= 1e-6


def test_sandwich_on_concave_table():
    xs = np.linspace(0.0, 20.0, 40)
    tab = from_table(np.exp(xs), np.sqrt(xs))
    assert sandwich_check(tab).holds
