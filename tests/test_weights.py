"""Weight layer: algebra, normalization, structure checks, recovery."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import (AssociatedWeight, Grid, Weight, associated_sequence,
                        check_om1_weight, check_om6_weight, default_grid,
                        from_log_quotients, from_sequence, from_table,
                        from_values, gevrey, is_convex_weight, is_normalized,
                        normalize, pow_routes, product, q_gevrey,
                        rapidly_decreasing,
                        sandwich_check, strong_ratio_check, triangle_routes,
                        weight_preceq, weight_preceq_all_dila,
                        weight_preceq_dila, weight_preceq_pow, weight_triangle,
                        weight_triangle_dila)
from growthcomp.associated_weight import LADDER_GRID_N, OM6_LADDER
from growthcomp.trend import DEFAULT_POLICY, MIN_WINDOW_POINTS, classify
from growthcomp import associated_weight, standard_battery, weight_functions
from growthcomp.verdicts import State, fails
from growthcomp.weight_functions import (FORALL_LADDER, PLATEAU_FLOOR,
                                         RungSamples, _awake, _comparison_grid,
                                         forall_ladder)

GOLDEN_TABLE = Path(__file__).resolve().parent / "golden" / "table.csv"

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
    assert is_normalized(u).holds
    assert normalize(u) is u


def test_normalize_pins_the_low_range():
    sh = from_table([0.1, 1.0, 10.0, 100.0], [0.3, 0.5, 2.0, 9.0])
    assert is_normalized(sh).fails
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
    assert is_normalized(dn).fails
    want = np.maximum(0.0, dn.omega_log(x) - dn.omega_log(0.0))
    np.testing.assert_allclose(normalize(dn).omega_log(x), want, rtol=0,
                               atol=1e-12)


def test_nested_normalization_vanishes_exactly():
    # the offset is max(offset, u0), not offset + omega(0): that sum rounds,
    # and left omega(1) of a nested normalization at a few 1e-16
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(600):
        log_t = np.sort(rng.uniform(-3.0, 4.0, int(rng.integers(3, 12))))
        om = np.cumsum(rng.uniform(0.0, 2.0, len(log_t))) + rng.uniform(-1.0, 1.0)
        if log_t[-1] < 0.0 or np.any(np.diff(log_t) <= 0.0):
            continue
        u = normalize(from_table(np.exp(log_t), om))
        for c in (0.3, 1.5, 2.0, 3.7, 10.0):
            v = u.dilate(c)
            if v.log_t_reliable < 0.0:
                continue
            w = normalize(v)
            assert is_normalized(w).holds
            x = np.linspace(-4.0, v.log_t_reliable, 50)
            want = np.maximum(0.0, v.omega_log(x) - v.omega_log(0.0))
            np.testing.assert_allclose(w.omega_log(x), want, rtol=0, atol=1e-9)
            checked += 1
    assert checked > 2000


def test_a_table_ending_before_one_is_not_known_normalized():
    for first in (1.0, 0.0):
        u = from_table([0.1, 0.5], [first, 2.0])
        vd = is_normalized(u)
        assert vd.inconclusive and vd.note == "faithful range ends before t = 1"
        with pytest.raises(ValueError, match="beyond the tabulated range"):
            normalize(u)


def _vanishes_densely(u: Weight) -> bool:
    """Oracle: omega == 0 at every knot at or below log t = 0, at their
    midpoints, and at 200 points on [min knot - 1, 0]."""
    k = u.knots_log
    low = k[k <= 0.0]
    x = np.concatenate((low, (low[1:] + low[:-1]) / 2.0,
                        np.linspace(min(float(k[0]), 0.0) - 1.0, 0.0, 200)))
    return bool(np.all(u.omega_log(x) == 0.0))


def _seeded_tables():
    """Tables that do not decrease (some with a zero prefix), non-monotone
    ones, ones with negative values, and ones with a knot at t = 1."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        log_t = np.sort(rng.uniform(-3.0, 3.0, 8))
        steps = rng.uniform(0.0, 1.0, 8) * (rng.random(8) < 0.6)
        yield log_t, np.cumsum(steps)
        yield log_t, rng.normal(1.0, 1.0, 8)
        yield log_t, rng.uniform(-2.0, 0.0, 8)
        at_one = np.concatenate((np.sort(rng.uniform(-3.0, -0.1, 3)), [0.0],
                                 np.sort(rng.uniform(0.1, 3.0, 4))))
        yield at_one, np.concatenate((np.zeros(4) if rng.random() < 0.5
                                      else rng.uniform(0.0, 1.0, 4),
                                      np.cumsum(rng.uniform(0.1, 1.0, 4))))


def test_is_normalized_matches_a_dense_oracle(small_battery, battery):
    weights = []
    for log_t, om in _seeded_tables():
        if log_t[-1] >= np.log(2.0) and np.all(np.diff(log_t) > 0.0):
            weights.append(from_table(np.exp(log_t), om))
    weights += [from_sequence(M) for M in list(small_battery) + list(battery)]
    states = {"Holds": 0, "Fails": 0}
    for u in weights:
        for v in (u, u.dilate(0.5), u.dilate(2.0), u.power(1.5), normalize(u),
                  normalize(u.dilate(2.0)), normalize(u).dilate(0.5)):
            vd = is_normalized(v)
            assert vd.holds == _vanishes_densely(v) and not vd.inconclusive
            states[vd.state.value] += 1
    assert min(states.values()) > 100


def test_is_normalized_agrees_with_the_exact_constructions(small_battery):
    # from_sequence flagged exactly the sequences with every log M_j >= 0, and
    # a dilation by c <= 1 kept that flag
    seqs = list(small_battery) + [from_log_quotients(np.linspace(q1, 4.0, 64))
                                  for q1 in (-2.0, -1.0, -0.1, 0.0, 0.5)]
    for M in seqs:
        flag = bool(np.all(M.log_values >= 0.0))
        u = from_sequence(M)
        assert is_normalized(u).holds == flag
        for c in (1.0, 0.5, 0.125):
            assert is_normalized(u.dilate(c)).holds or not flag


def test_only_omega_m_itself_has_a_sequence():
    # a dilation keeps M (the spaces read its shift); a power, a normalization
    # offset or a table leaves none
    M = from_log_quotients(np.linspace(-1.0, 4.0, 64))
    u = from_sequence(M)
    assert u.sequence is M and u.dilate(2.0).sequence is M
    assert u.power(2.0).sequence is None
    assert normalize(u).sequence is None
    assert from_table([0.1, 1.0, 10.0], [0.0, 0.5, 2.0]).sequence is None


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


@pytest.mark.parametrize("ts", [[1.0, np.inf], [0.5, 1.0, 10.0, float("1e400")],
                                [np.nan, 1.0], [-np.inf, 1.0]])
def test_table_rejects_a_non_finite_t(ts):
    # an infinite t would pass the order check and reach the grids as inf
    with pytest.raises(ValueError, match="t must be finite"):
        from_table(ts, np.arange(len(ts), dtype=float))


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def test_convexity_check_discriminates(g1):
    assert is_convex_weight(from_sequence(g1)).holds
    kink = from_table([1.0, 10.0, 100.0], [0.0, 10.0, 12.0])
    assert is_convex_weight(kink).fails


def test_structure_checks_abstain_on_a_short_range():
    narrow = from_table(np.exp(np.linspace(-2.0, -1.99, 20)), np.linspace(0.0, 1.0, 20))
    vd = rapidly_decreasing(narrow)
    assert vd.inconclusive
    assert vd.note == "faithful range leaves no window above t = e^0.5"
    tiny = from_table(np.geomspace(1e-4, 1.05e-3, 30), np.zeros(30))
    vd = is_convex_weight(tiny)
    assert vd.inconclusive and vd.note == "faithful range too short to sample convexity"
    vd = sandwich_check(tiny)
    assert vd.inconclusive and vd.note == "faithful range too short for the sandwich window"


def test_rapid_decrease_needs_unbounded_omega(g1):
    assert rapidly_decreasing(from_sequence(g1)).holds
    xs = np.linspace(0.0, 20.0, 50)
    flat = from_table(np.exp(xs), np.minimum(xs, 5.0))
    assert rapidly_decreasing(flat).fails


def test_strong_ratio_inequality(g1):
    u = from_sequence(g1)
    assert strong_ratio_check(u, 2.0).holds
    assert strong_ratio_check(u, 1.0).fails
    for c in (-1.0, 0.0):
        with pytest.raises(ValueError, match="positive c"):
            strong_ratio_check(u, c)


def test_strong_ratio_evidence_is_a_log_t_on_the_window():
    # the faithful span reaches log t ~ 1124, where exp overflows
    u = from_sequence(product(q_gevrey(1.5, 512), q_gevrey(2.0, 512)))
    r = strong_ratio_check(u, 2.0)
    (x, gap), = r.evidence
    assert np.isfinite(x) and np.isfinite(gap)
    assert x in np.linspace(0.0, u.log_t_reliable - np.log(2.0), LADDER_GRID_N)


def test_weight_level_growth_chain(g1, q15):
    assert check_om6_weight(from_sequence(g1)).holds
    assert check_om1_weight(from_sequence(g1)).holds
    assert check_om6_weight(from_sequence(q15)).fails
    assert check_om1_weight(from_sequence(q15)).holds


@pytest.mark.xfail(strict=True, reason=(
    "rung H is checked on log t in [0, x_hi - log H] only; at H = 64 this "
    "table's excess crosses 0 at log t ~ 16.66, past the window's end 14.26"))
def test_om6_does_not_hold_on_the_quadratic_golden_table():
    # omega = x^2/2 + x/4 in x = log t, so 2 omega(t) - omega(Ht) - H grows
    # like x^2/2 on every rung: (omega6) fails
    t, w = np.loadtxt(GOLDEN_TABLE, delimiter=",", comments="#", unpack=True)
    assert not check_om6_weight(from_table(t, w)).holds


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


def test_preceq_all_dila_on_a_settled_pair(g1, g2):
    u1, u2 = from_sequence(g1), from_sequence(g2)
    held = weight_preceq_all_dila(u2, u1)
    assert held.holds and held.witnesses["hardest_c"] == 0.0625
    failed = weight_preceq_all_dila(u1, u2)
    assert failed.fails and failed.evidence[0][0] == 1.0
    # the dilation-bounds route of the strong bridge is the same ladder
    assert held == triangle_routes(g1, g2)["dilation_bounds"]


def test_power_ladder_evaluates_each_weight_once(g1, g2, monkeypatch):
    # every power rung reads the pair's window, up to the rung c = 16 that
    # holds gevrey(1) against gevrey(2)
    calls = []
    evaluate = Weight.omega_log

    def counted(self, x):
        calls.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(Weight, "omega_log", counted)
    u1, u2 = from_sequence(g1), from_sequence(g2)
    for v, w, c in ((u2, u1, 1.0), (u1, u2, 16.0)):
        calls.clear()
        assert weight_preceq_pow(v, w).witnesses["c"] == c
        assert sorted(map(id, calls)) == sorted((id(v), id(w)))


def _table_weight():
    log_t = np.linspace(-2.0, 8.0, 200)
    return from_table(np.exp(log_t), 0.5 * np.maximum(log_t, 0.0) ** 2, label="table")


def _per_rung_samples(v, rung, base):
    """Samples (x, wv, ww, wb) of one rung on its own window, clipped to v,
    the rung and the family member base it was derived from, past the
    plateau; None to skip.  The sampler the shared rung samples replaced."""
    g = _comparison_grid(v, rung, base)
    if g is None or len(g) < MIN_WINDOW_POINTS:
        return None
    x = g.log_t
    wv = v.omega_log(x)
    ww = rung.omega_log(x)
    awake = _awake(wv, ww)
    if awake is None:
        return None
    x, wv, ww = x[awake], wv[awake], ww[awake]
    return x, wv, ww, base.omega_log(x)


@pytest.mark.parametrize("kind", ["sequence", "normalized", "table", "shifted_scaled"])
@pytest.mark.parametrize("family", ["dilate", "power"])
def test_shared_forall_samples_equal_the_per_rung_samples(kind, family):
    # the shared rung arrays must be the per-rung ones bit for bit, on both
    # ladders: the same window, and the same rung values without
    # re-evaluating the family; the q-Gevrey pair spans past the grid top,
    # so its window is resampled
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
        shared = RungSamples(v, w, family)
        for c in FORALL_LADDER + OM6_LADDER:
            rung = make_rung(c)
            got = shared.rung(c)
            want = _per_rung_samples(v, rung, base)
            assert (got is None) == (want is None)
            for a, b in zip(got or (), want or ()):
                np.testing.assert_array_equal(a, b)
            if family == "dilate" and c > 1.0:
                continue
            # every other rung reads the window of v against w itself
            x = shared.window[0]
            np.testing.assert_array_equal(x, _comparison_grid(v, rung, base).log_t)
            direct = rung.omega_log(x)
            if family == "power":
                np.testing.assert_array_equal(c * w.omega_log(x), direct)
            if got is not None:
                awake = np.isin(x, got[0])
                np.testing.assert_array_equal(got[2], direct[awake])


def _built_comparison_grid(*weights):
    """The comparison grid built from the default grid, as every comparison
    built it before the undilated sequence weights held theirs."""
    g = default_grid()
    x_hi = min(u.log_t_reliable for u in weights)
    if x_hi <= float(g.log_t[-1]):
        return g.clip(None, x_hi)
    return Grid.geometric_log(float(g.log_t[0]), x_hi, len(g))


def test_the_held_grid_is_the_built_comparison_grid(battery):
    # each member's weight holds the grid of its own span, and a pair samples
    # the grid of its shorter member; a table and a shortened dilation take
    # the build path
    weights = [from_sequence(M) for M in battery]
    for v in weights:
        g = _comparison_grid(v)
        assert g is v.base.grid is from_sequence(v.source).base.grid
        np.testing.assert_array_equal(g.log_t, _built_comparison_grid(v).log_t)
        # a dilation with c <= 1 only raises the end: the grid stays v's own
        for c in FORALL_LADDER:
            assert _comparison_grid(v, v.dilate(c)) is g
        # a dilation with c > 1 pulls the end in: built, never v's own
        for c in (2.0, 1024.0):
            built = _comparison_grid(v, v.dilate(c))
            assert built is not g
            np.testing.assert_array_equal(built.log_t,
                                          _built_comparison_grid(v.dilate(c)).log_t)
    for v, w in zip(weights, weights[1:]):
        low = v if v.log_t_reliable <= w.log_t_reliable else w
        assert _comparison_grid(v, w) is low.base.grid
    table = _table_weight()
    for others in ((), (weights[0],), (weights[-1],)):
        got = _comparison_grid(table, *others)
        np.testing.assert_array_equal(got.log_t,
                                      _built_comparison_grid(table, *others).log_t)
    # a window below the grid: neither route has a grid to give
    tiny = from_table([1e-5, 1e-4], [0.0, 1.0])
    assert _comparison_grid(tiny) is None and _built_comparison_grid(tiny) is None


def test_a_held_evaluation_is_the_evaluation_bit_for_bit():
    # omega on the held grid is read, not evaluated again, and the scale and
    # the clamp of a powered or normalized weight apply to it as before
    M = from_log_quotients(np.linspace(-1.0, 4.0, 128), label="lin")
    u = from_sequence(M)
    g = _comparison_grid(u)
    assert g is u.base.grid
    raw = u.base.omega_log(g.log_t + 0.0)
    ns = normalize(u)
    assert ns.offset
    for w, want in ((u, raw), (u.dilate(1.0), raw), (u.power(4.0), 4.0 * raw),
                    (ns, np.maximum(0.0, raw - ns.offset)),
                    (ns.power(0.5), np.maximum(0.0, 0.5 * raw - 0.5 * ns.offset))):
        got = w.omega_log(g.log_t)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        # the caller gets its own array: writing to it leaves the held values
        got[:] = -1.0
    np.testing.assert_array_equal(u.omega_log(g.log_t), raw)
    assert not u.base.grid_omega.flags.writeable
    # a dilation moves the points: evaluated, never read
    for c in (0.5, 2.0):
        d = u.dilate(c)
        np.testing.assert_array_equal(d.omega_log(g.log_t), u.base.omega_log(g.log_t + d.shift))
    # a copy of the grid's points is evaluated as before
    calls = []
    real = associated_weight._closed_form

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(associated_weight, "_closed_form", counted)
        u.omega_log(g.log_t)
        assert calls == []
        np.testing.assert_array_equal(u.omega_log(g.log_t.copy()), raw)
        assert calls == [len(g)]


def test_a_sequence_holds_one_associated_weight(monkeypatch):
    # fresh sequences: a session fixture may have built its minorant already
    walk = from_values(np.concatenate(([0.0], np.cumsum(
        np.random.default_rng(7).normal(0.6, 1.5, 128)))), label="walk")
    M, N = gevrey(1.0, 128), walk
    assert from_sequence(M).base is from_sequence(M).base is M.associated_weight
    assert M.associated_weight.source is M
    built = []
    real = associated_weight.log_convex_minorant

    def counted(S):
        built.append(S.label)
        return real(S)

    monkeypatch.setattr(associated_weight, "log_convex_minorant", counted)
    triangle_routes(M, N)
    pow_routes(M, N)
    triangle_routes(N, M)
    pow_routes(N, M)
    assert sorted(built) == sorted([M.label, N.label])


def _gathered_rung(samples, c):
    """(x, wv, ww, wb) of rung c past the plateau, gathered by the awake mask:
    the sampler before the rung arrays became views."""
    if samples.family == "dilate" and c > 1.0:
        g = _built_comparison_grid(samples.v, samples.w, samples.w.dilate(c))
        window = None if g is None or len(g) < MIN_WINDOW_POINTS else (
            g.log_t, samples.v.omega_log(g.log_t), samples.w.omega_log(g.log_t))
    else:
        window = samples.window
    if window is None:
        return None
    x, wv, wb = window
    if c == 1.0:
        ww = wb
    elif samples.family == "power":
        ww = c * wb
    else:
        ww = samples.w.dilate(c).omega_log(x)
    awake = _awake(wv, ww)
    if awake is None:
        return None
    return x[awake], wv[awake], ww[awake], wb[awake]


def _decreasing_table(a: float) -> Weight:
    # omega is a on log t in [-4, -2], 0 on [-1, 5] and rises past 5, so the
    # awake mask has a hole: the rung arrays are gathered
    log_t = np.array([-6.0, -4.0, -2.0, -1.0, 5.0, 10.0, 15.0, 20.0])
    om = np.array([0.0, a, a, 0.0, 0.0, 25.0 * a, 100.0 * a, 225.0 * a])
    return from_table(np.exp(log_t), om, label=f"dip{a:g}")


@pytest.mark.parametrize("family", ["dilate", "power"])
def test_rung_samples_are_the_gathered_samples(family):
    # sequence weights: the awake mask is a suffix and the rungs are views of
    # the window; a decreasing table keeps the gather
    seqs = (from_sequence(gevrey(2.0, 128)), from_sequence(q_gevrey(1.5, 128)),
            from_sequence(product(gevrey(1.0, 128), q_gevrey(2.0, 128))))
    cases = [(v, w, True) for v in seqs for w in seqs if v is not w]
    cases.append((_decreasing_table(1.0), _decreasing_table(2.0), False))
    viewed = gathered = 0
    for v, w, suffix in cases:
        samples = RungSamples(v, w, family)
        for c in FORALL_LADDER + OM6_LADDER:
            got = samples.rung(c)
            want = _gathered_rung(samples, c)
            assert (got is None) == (want is None), (v.label, w.label, c)
            if got is None:
                continue
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
            if family == "dilate" and c > 1.0:
                continue
            x = samples.window[0]
            shared = np.shares_memory(got[0], x) and np.shares_memory(got[1],
                                                                     samples.window[1])
            assert shared == suffix, (v.label, w.label, c)
            viewed += shared
            gathered += not shared
    assert viewed and gathered


# every rung window-limited: each comparison abstains with its own note
WINDOW_LIMITED = "window-limited: the gap has not settled inside the faithful range"


def test_a_window_below_the_grid_leaves_every_rung_skipped():
    # the table ends at t = 1e-4, below the grid's first point
    tiny = from_table([1e-5, 1e-4], [0.0, 1.0])
    v = from_sequence(gevrey(1.0, 64))
    for family in ("dilate", "power"):
        samples = RungSamples(v, tiny, family)
        assert samples.window is None
        assert all(samples.rung(c) is None for c in FORALL_LADDER + OM6_LADDER)
    for check in (weight_preceq, weight_triangle):
        vd = check(v, tiny)
        assert vd.inconclusive and vd.note == WINDOW_LIMITED
        assert vd.witnesses == {} and vd.evidence == ()
    vd = weight_triangle_dila(v, tiny)
    assert vd.inconclusive and vd.note == "every rung window-limited"
    vd = weight_preceq_all_dila(v, tiny)
    assert vd.inconclusive and vd.note == "every rung window-limited"


def test_a_dormant_rung_is_skipped():
    # omega of the table rises above the plateau on fewer than
    # MIN_WINDOW_POINTS grid points: the rung is dormant, not decided
    late = from_table([0.5, 1.0, 1.01], [0.0, 0.0, 1.0])
    v = from_sequence(gevrey(1.0, 64))
    samples = RungSamples(v, late, "power")
    assert samples.window is not None and samples.rung(1.0) is None
    x, wv, ww = samples.window
    assert 0 < int(np.count_nonzero(ww > 1e-9)) < MIN_WINDOW_POINTS
    assert _awake(wv, ww) is None
    for check in (weight_preceq, weight_triangle):
        vd = check(v, late)
        assert vd.inconclusive and vd.note == WINDOW_LIMITED


# ---------------------------------------------------------------------------
# rung arrays against the sampler that masked every rung over its window
# ---------------------------------------------------------------------------

def _ref_awake(wv, ww):
    """The awake mask: every point where either side has left the plateau;
    None when the dominating side rises on too few points."""
    if int(np.count_nonzero(ww > PLATEAU_FLOOR)) < MIN_WINDOW_POINTS:
        return None
    return (wv > PLATEAU_FLOOR) | (ww > PLATEAU_FLOOR)


def _ref_race_kind(x, d, ref, policy):
    """The race fit on bare arrays, the live stretch found by its mask."""
    live = ref > 1.0
    if int(live.sum()) >= MIN_WINDOW_POINTS:
        x, d, ref = x[live], d[live], ref[live]
    q = d / np.maximum(ref, 1.0)
    return classify(x, q, policy, margin=policy.ratio_margin).kind


def _ref_escape_kind(x, d, policy):
    """The escape fit on bare arrays, the positive depths found by their mask."""
    u = x - x[0]
    keep = u > 0.0
    return classify(np.log(u[keep]), d[keep] / u[keep], policy,
                    margin=policy.ratio_margin).kind


class _RefRungs:
    """Rung samples as formed before rungs started where the pair leaves the
    plateau: each window evaluated afresh (on a copy of the grid's points,
    so nothing held is read), each dilation rung through a dilated Weight
    over the whole window, and the awake part found by the mask.  Every
    trend is fitted on the bare arrays."""

    def __init__(self, v, w, family):
        self.v, self.w, self.family = v, w, family
        self.window = self._window(v, w)
        self.rungs = {}

    @staticmethod
    def _window(v, w, *others):
        g = _comparison_grid(v, w, *others)
        if g is None or len(g) < MIN_WINDOW_POINTS:
            return None
        x = g.log_t.copy()
        return x, v.omega_log(x), w.omega_log(x)

    def rung(self, c):
        if c not in self.rungs:
            self.rungs[c] = self._sample(c)
        return self.rungs[c]

    def _sample(self, c):
        if self.family == "dilate" and c > 1.0:
            window = self._window(self.v, self.w, self.w.dilate(c))
        else:
            window = self.window
        if window is None:
            return None
        x, wv, wb = window
        if c == 1.0:
            ww = wb
        elif self.family == "power":
            ww = c * wb
        else:
            ww = self.w.dilate(c).omega_log(x)
        awake = _ref_awake(wv, ww)
        if awake is None:
            return None
        k = int(awake.argmax())
        if awake[k:].all():
            return x[k:], wv[k:], ww[k:], wb[k:]
        return x[awake], wv[awake], ww[awake], wb[awake]

    def trend(self, c, name):
        x, wv, ww, wb = self.rungs[c]
        if name == "gap":
            return classify(x, ww - wv, DEFAULT_POLICY)
        if name == "race":
            return _ref_race_kind(x, ww - wv, wb - wv, DEFAULT_POLICY)
        if name == "escape":
            return _ref_escape_kind(x, ww - wv, DEFAULT_POLICY)
        return classify(x, wb - wv, DEFAULT_POLICY).kind

    def point(self, claim, c):
        """The witness point of rung c, from the whole gap."""
        x, wv, ww, _ = self.rungs[c]
        if claim == "preceq":
            d = wv - ww
            k = int(np.argmax(d))
        else:
            d = ww - wv
            k = len(d) - 1
        return float(x[k]), float(d[k])


def _same_rungs(v, w, family):
    """Assert every rung of RungSamples(v, w, family) and its four trends
    equal the reference, bit for bit; returns the sample set."""
    samples, ref = RungSamples(v, w, family), _RefRungs(v, w, family)
    for c in FORALL_LADDER + OM6_LADDER:
        got, want = samples.rung(c), ref.rung(c)
        assert (got is None) == (want is None), (v.label, w.label, family, c)
        if got is None:
            continue
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        for name in ("gap", "race", "escape", "base"):
            assert repr(samples.trend(c, name)) == repr(ref.trend(c, name)), (c, name)
    return samples


@pytest.mark.parametrize("J", [64, 512, 1024])
def test_rungs_from_where_the_pair_leaves_the_plateau_are_the_masked_rungs(J):
    # every 21st ordered battery pair, oriented as the bridges orient it;
    # on every 4th of those, a powered and a normalized (clamped) weight
    battery = standard_battery(J)
    pairs = [(M, N) for M in battery for N in battery if M is not N][::21]
    lin = normalize(from_sequence(from_log_quotients(np.linspace(-1.0, 4.0, J))))
    assert lin.offset
    for i, (M, N) in enumerate(pairs):
        v, w = from_sequence(N), from_sequence(M)
        for family in ("dilate", "power"):
            _same_rungs(v, w, family)
            if i % 4 == 0:
                _same_rungs(lin, w.power(0.75), family)
                _same_rungs(v.power(1.5), lin, family)


@pytest.mark.parametrize("family", ["dilate", "power"])
def test_a_decreasing_table_keeps_the_masked_rungs(family):
    # omega of the tables dips back to 0: the awake part has a hole, so the
    # rungs are gathered by the mask, as the reference gathers them
    v, w = _decreasing_table(1.0), _decreasing_table(2.0)
    samples = _same_rungs(v, w, family)
    holes = [c for c, got in samples.rungs.items() if got is not None
             and not np.shares_memory(got[0], samples.window[0])]
    assert holes


@pytest.mark.parametrize("claim", ["preceq", "triangle"])
@pytest.mark.parametrize("family", ["dilate", "power"])
def test_a_failing_rung_reports_the_reference_witness(claim, family, monkeypatch):
    # gevrey(1) against gevrey(0.5) holds on every rung of either ladder; a
    # failure planted at one rung below 1 reports the point the reference
    # forms from that rung's whole gap, and no other rung forms a witness
    v, w = from_sequence(gevrey(1.0, 256)), from_sequence(gevrey(0.5, 256))
    planted = 0.25
    real_classify, real_witness = weight_functions._classify_rung, weight_functions._witness
    formed = []

    def classified(claim, samples, c):
        state = real_classify(claim, samples, c)
        return State.FAILS if c == planted else state

    def witness(claim, samples, c):
        formed.append(c)
        return real_witness(claim, samples, c)

    monkeypatch.setattr(weight_functions, "_classify_rung", classified)
    monkeypatch.setattr(weight_functions, "_witness", witness)
    samples = RungSamples(v, w, family)
    ref = _RefRungs(v, w, family)
    assert ref.rung(planted) is not None
    point = ref.point(claim, planted)
    got = forall_ladder(claim, samples)
    assert got == fails(evidence=((planted, point[0]), point),
                        note=f"rung c={planted:g} fails at log t={point[0]:.4g}")
    assert formed == [planted]
    # an unplanted ladder that holds forms no witness at all
    monkeypatch.setattr(weight_functions, "_classify_rung", real_classify)
    formed.clear()
    assert forall_ladder(claim, RungSamples(v, w, family)).holds
    assert formed == []


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


def test_sandwich_fails_on_either_side():
    log_t = np.linspace(-2.0, 8.0, 200)
    half_square = 0.5 * np.maximum(log_t, 0.0) ** 2
    vd = sandwich_check(from_table(np.exp(log_t), half_square - 1.0))
    assert vd.fails and vd.note.startswith("recovered weight exceeds the input")
    holed = half_square.copy()
    holed[::10] = 0.0
    vd = sandwich_check(from_table(np.exp(log_t), holed))
    assert vd.fails and vd.note.startswith("no finite sandwich constant")


def test_sandwich_on_concave_table():
    xs = np.linspace(0.0, 20.0, 40)
    tab = from_table(np.exp(xs), np.sqrt(xs))
    assert sandwich_check(tab).holds
