"""Associated weight: dual evaluation routes, recovery, growth ladders."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import (AssociatedWeight, WeightSequence, associated_sequence,
                        check_om1_omega, check_om6_omega, counting,
                        default_grid, from_log_quotients, from_sequence,
                        from_values, gevrey, is_log_convex, legendre_recover,
                        log_convex_minorant, omega_eval, q_gevrey,
                        standard_battery)
from growthcomp.associated_weight import (OM1_LADDER, OM6_LADDER, OMEGA_MODES,
                                          SCAN_CHUNK, om1_ladder, om6_ladder)

# ---------------------------------------------------------------------------
# counting route
# ---------------------------------------------------------------------------

def test_counting_factorial_quotients(g1):
    assert counting(g1, 3.5) == 3
    assert counting(g1, 0.5) == 0
    np.testing.assert_array_equal(counting(g1, np.array([0.5, 1.0, 3.5])),
                                  [0, 1, 3])


def test_counting_saturates_at_top_index():
    M = gevrey(1.0, 16)
    assert counting(M, 1e12) == 16


# ---------------------------------------------------------------------------
# dual evaluation routes against a reference maximum
# ---------------------------------------------------------------------------

def _brute_omega(log_values: np.ndarray, x: float) -> float:
    return max(j * x - log_values[j] for j in range(len(log_values)))


@st.composite
def _convex_log_quotients(draw):
    # non-decreasing log quotients, stored as given, make the sequence
    # log-convex; values rebuilt from cumulative sums would not keep them so
    n = draw(st.integers(min_value=3, max_value=24))
    start = draw(st.floats(-2.0, 2.0))
    gaps = draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
    return start + np.cumsum(np.asarray(gaps))


@given(_convex_log_quotients(),
       st.lists(st.floats(-4.0, 12.0), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_evaluation_routes_agree_exactly(mu, xs):
    M = from_log_quotients(mu)
    assert is_log_convex(M).holds
    aw = AssociatedWeight(M)
    x = np.asarray(xs)
    closed = aw.omega_log(x, mode="closed_form")
    scanned = aw.omega_log(x, mode="sup_scan")
    np.testing.assert_array_equal(closed, scanned)
    for xi, got in zip(xs, closed):
        assert got == pytest.approx(_brute_omega(M.log_values, xi), abs=1e-12)


def test_evaluation_routes_agree_along_a_long_run_of_tied_quotients():
    # forty equal quotients: at x on the run every index ties in exact
    # arithmetic, and rounding may put the float maximum anywhere in the run
    M = from_log_quotients(np.concatenate(([0.0], np.full(40, 0.3))))
    aw = AssociatedWeight(M)
    x = np.array([0.3, np.nextafter(0.3, 0.0), np.nextafter(0.3, 1.0), 0.0])
    np.testing.assert_array_equal(aw.omega_log(x, mode="closed_form"),
                                  aw.omega_log(x, mode="sup_scan"))
    assert aw.omega_log(0.3) == 0.3000000000000025


def test_closed_form_window_reaches_both_ends_of_every_tie_run():
    # runs of 1..12 equal quotients, probed on each quotient, one float step
    # to either side and half way between quotients: a window that drops
    # either end of the run, or keeps only the counting index, misses the
    # float maximum the scan finds
    rng = np.random.default_rng(20240817)
    seqs = list(standard_battery(512))
    for _ in range(300):
        mu = np.sort(rng.normal(0.0, 2.0, rng.integers(3, 40)))
        seqs.append(from_log_quotients(np.repeat(mu, rng.integers(1, 13, len(mu)))))
    for M in seqs:
        aw = AssociatedWeight(M)
        q = aw.knots[1:]
        x = np.concatenate((q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf),
                            (q[1:] + q[:-1]) / 2.0))
        np.testing.assert_array_equal(aw.omega_log(x, mode="closed_form"),
                                      aw.omega_log(x, mode="sup_scan"),
                                      err_msg=M.label)


def test_sorted_points_give_the_shuffled_points_bit_for_bit():
    # sorted points that outnumber the quotients are counted by placing the
    # quotients among them, everything else by one search per point; both
    # counts must give the same omega to the last bit, signed zeros included
    rng = np.random.default_rng(20241018)
    seqs = [M for J in (64, 512, 4096) for M in standard_battery(J)]
    for _ in range(40):
        mu = np.sort(rng.normal(0.0, 2.0, rng.integers(3, 40)))
        seqs.append(from_log_quotients(np.repeat(mu, rng.integers(1, 13, len(mu)))))
    for M in seqs:
        aw = AssociatedWeight(M)
        q = aw.knots[1:]
        x = np.sort(np.concatenate((q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf),
                                    (q[1:] + q[:-1]) / 2.0,
                                    np.linspace(q[0] - 1.0, q[-1] + 1.0, 97))))
        for xs in (x, x[::len(x) // len(q) + 1]):
            perm = rng.permutation(len(xs))
            shuffled = np.empty(len(xs))
            shuffled[perm] = aw.omega_log(xs[perm])
            np.testing.assert_array_equal(aw.omega_log(xs).view(np.int64),
                                          shuffled.view(np.int64), err_msg=M.label)


@pytest.mark.parametrize("mode", OMEGA_MODES)
def test_omega_rejects_non_finite_points(g1, mode):
    aw = AssociatedWeight(g1)
    for x in ([np.nan, 2.0], [1.0, np.inf], -np.inf):
        with pytest.raises(ValueError, match="finite"):
            aw.omega_log(x, mode=mode)
    for t in ([np.nan, 2.0], np.inf):
        with pytest.raises(ValueError, match="finite"):
            aw.omega(t, mode=mode)
    with pytest.raises(ValueError, match="finite"):
        omega_eval(g1, [np.nan, 2.0], mode=mode)
    assert aw.omega(0.0, mode=mode) == 0.0


def test_evaluation_routes_agree_on_non_convex_input():
    # near-zero values whose re-derived quotients are not monotone in float:
    # the routes see different sequences, so they agree only closely
    M = from_values([0, 1.11636729e-78, 2.23273457e-78, 3.34910186e-78])
    assert is_log_convex(M).fails
    aw = AssociatedWeight(M)
    x = np.array([1.1163672872229164e-78])
    np.testing.assert_allclose(aw.omega_log(x, mode="closed_form"),
                               aw.omega_log(x, mode="sup_scan"), rtol=0, atol=1e-12)


def test_degenerate_equal_quotients_hit_the_cap():
    # every quotient is 2, so at t = 8 each of the J steps contributes log 4
    M = from_values(np.arange(65) * np.log(2.0))
    aw = AssociatedWeight(M)
    for mode in OMEGA_MODES:
        got = aw.omega_log(np.array([np.log(8.0)]), mode=mode)[0]
        assert got == pytest.approx(64.0 * np.log(4.0), rel=1e-14)


def test_omega_vanishes_up_to_first_quotient(g1):
    aw = AssociatedWeight(g1)
    np.testing.assert_array_equal(aw.omega_log(np.array([-5.0, -1.0, 0.0])),
                                  [0.0, 0.0, 0.0])


def test_omega_monotone_and_convex_in_log_t(g1):
    x = np.linspace(-1.0, 6.0, 257)
    w = AssociatedWeight(g1).omega_log(x)
    assert np.all(np.diff(w) >= 0.0)
    assert np.all(np.diff(w, 2) >= -1e-9)


def test_unknown_mode_rejected(g1):
    with pytest.raises(ValueError, match="mode"):
        AssociatedWeight(g1).omega_log(np.array([1.0]), mode="bogus")


def test_omega_eval_wraps_the_class(g1):
    t = np.array([1.0, 7.5, 100.0])
    np.testing.assert_array_equal(omega_eval(g1, t),
                                  AssociatedWeight(g1).omega_log(np.log(t)))


def test_minorant_shares_the_weight():
    M = from_values(np.log([1.0, 10.0, 20.0, 200.0]))
    x = np.linspace(-1.0, 8.0, 101)
    w_raw = AssociatedWeight(M).omega_log(x, mode="sup_scan")
    w_env = AssociatedWeight(log_convex_minorant(M)).omega_log(x,
                                                               mode="sup_scan")
    np.testing.assert_allclose(w_env, w_raw, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def test_recovery_roundtrip_factorials():
    M = gevrey(1.0, 50)
    with pytest.warns(UserWarning, match="grid only supports"):
        R = legendre_recover(AssociatedWeight(M), J=50)
    cap = int(R.meta["reliable_max_index"])
    # the default safety factor halves the grid-supported index range
    assert cap == 25
    np.testing.assert_allclose(R.log_values[1:cap + 1],
                               M.log_values[1:cap + 1], rtol=1e-9)
    full = legendre_recover(AssociatedWeight(M), J=50, safety=1.0)
    assert int(full.meta["reliable_max_index"]) == 50
    np.testing.assert_allclose(full.log_values[1:], M.log_values[1:],
                               rtol=1e-9)


def test_recovery_of_non_convex_input_is_the_minorant():
    M = from_values(np.log([1.0, 10.0, 20.0, 200.0]))
    R = legendre_recover(AssociatedWeight(M), J=3, safety=1.0)
    np.testing.assert_allclose(R.log_values,
                               log_convex_minorant(M).log_values,
                               rtol=0, atol=1e-9)


def test_recovery_warns_past_grid_support():
    aw = AssociatedWeight(gevrey(1.0, 64))
    with pytest.warns(UserWarning, match="grid only supports"):
        R = legendre_recover(aw, J=500)
    assert int(R.meta["reliable_max_index"]) < 500


# ---------------------------------------------------------------------------
# the blocked conjugate kernel behind the scan route and both recoveries
# ---------------------------------------------------------------------------

def _dense_sup(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a[:, None] * b[None, :] - c[None, :]).max(axis=1)


def _with_knots(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    return np.union1d(x, knots[(knots >= x[0]) & (knots <= x[-1])])


def test_suprema_across_kernel_blocks_match_a_dense_reference():
    # J = 1100 spans three blocks of the kernel, with a partial last block
    J = 1100
    assert J + 1 > 2 * SCAN_CHUNK
    rng = np.random.default_rng(11)
    walk = np.concatenate(([0.0], np.cumsum(rng.normal(0.5, 2.0, J))))
    M = WeightSequence(walk, label="walk")
    aw = AssociatedWeight(M)
    j = np.arange(J + 1, dtype=float)

    xs = np.linspace(-5.0, 12.0, J)
    np.testing.assert_array_equal(aw.omega_log(xs, mode="sup_scan"),
                                  _dense_sup(xs, j, M.log_values))

    x = _with_knots(default_grid().log_t, aw.knots[1:])
    want = _dense_sup(j, x, aw.omega_log(x))
    want[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        R = legendre_recover(aw, J=J)
    np.testing.assert_array_equal(R.log_values, want)

    u = from_sequence(M)
    x = _with_knots(default_grid().clip(None, u.log_t_reliable).log_t, u.knots_log)
    vals = _dense_sup(j, x, u.omega_log(x))
    shift = vals[0]
    vals = vals - shift
    vals[0] = 0.0
    q = np.maximum.accumulate(np.diff(vals))
    Mu = associated_sequence(u, J=J)
    assert Mu.meta["origin_shift"] == shift
    np.testing.assert_array_equal(Mu.log_values,
                                  np.concatenate(([0.0], np.cumsum(q))))


def test_large_recovery_stays_within_a_memory_bound():
    # one dense (J+1) x n term matrix here would take about 0.5 GiB
    M = gevrey(1.0, 4096)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            legendre_recover(AssociatedWeight(M), J=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20


# ---------------------------------------------------------------------------
# growth ladders
# ---------------------------------------------------------------------------

def test_ladders_on_square_root_weight():
    # omega(t) = sqrt(t): doubling inequality settles at H = 4, ratio at L = 2
    sq = lambda x: np.exp(np.asarray(x, dtype=float) / 2.0)
    v6 = om6_ladder(sq, 20.0)
    assert v6.holds and v6.witnesses["H"] == 4.0
    v1 = om1_ladder(sq, 20.0)
    assert v1.holds and v1.witnesses["L"] == 2.0


def test_ladder_failures_enumerate_every_rung():
    lin = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, None)
    v6 = om6_ladder(lin, 2000.0)
    assert v6.fails
    assert [H for H, _ in v6.evidence] == list(OM6_LADDER)
    ee = lambda x: np.exp(np.exp(np.asarray(x, dtype=float)))
    v1 = om1_ladder(ee, 3.0)
    assert v1.fails
    assert [L for L, _ in v1.evidence] == list(OM1_LADDER)


def test_sequence_level_ladder_checks(g1, q15):
    assert check_om6_omega(g1).holds
    assert check_om1_omega(g1).holds
    assert check_om6_omega(q15).fails
    assert check_om1_omega(q15).holds
