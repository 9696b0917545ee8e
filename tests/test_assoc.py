"""Associated weight: dual evaluation routes, recovery, growth ladders."""

from __future__ import annotations

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import (AssociatedWeight, WeightSequence, associated_sequence,
                        check_om1_omega, check_om6_omega, default_grid,
                        from_log_quotients, from_sequence, from_table,
                        from_values, gevrey,
                        is_log_convex, legendre_recover, log_convex_minorant,
                        normalize, q_gevrey, standard_battery)
from growthcomp import associated_weight
from growthcomp._kernel import SCAN_CELLS, SCAN_ROWS
from growthcomp.associated_weight import (MIN_WINDOW_SPAN, OM1_LADDER,
                                          OM6_LADDER, OMEGA_MODES, conjugate,
                                          om1_ladder, om6_ladder, recover)
from growthcomp.weight_functions import FORALL_LADDER

# ---------------------------------------------------------------------------
# counting route
# ---------------------------------------------------------------------------

def test_counting_factorial_quotients(g1):
    aw = AssociatedWeight(g1)
    assert aw.counting(3.5) == 3
    assert aw.counting(0.5) == 0
    np.testing.assert_array_equal(aw.counting(np.array([0.5, 1.0, 3.5])),
                                  [0, 1, 3])


def test_counting_saturates_at_top_index():
    assert AssociatedWeight(gevrey(1.0, 16)).counting(1e12) == 16


def test_counting_rejects_nan_and_negative_t():
    aw = AssociatedWeight(gevrey(1.0, 64))
    for bad in ([np.nan, 2.0], [-3.0, 2.0], -1.0, np.nan):
        with pytest.raises(ValueError, match="non-negative"):
            aw.counting(bad)
    # t = 0 counts nothing and t = inf every quotient (an overflowed exp)
    np.testing.assert_array_equal(aw.counting([0.0, 2.0, np.inf]), [0, 2, 64])


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


def _two_expansion_closed_form(P, knots, xs):
    """The closed form that counted a and b in two full expansions over the
    sorted points; returns omega and the number of points with b > a."""
    J = len(P) - 1
    q = knots[1:]
    n = len(xs)
    tie = 4.0 * np.finfo(float).eps * (J * float(np.abs(xs).max(initial=0.0))
                                       + float(np.abs(P).max()))
    if n > J and not (xs[1:] < xs[:-1]).any():
        a = np.bincount((xs - tie).searchsorted(q, "right"), minlength=n + 1)[:n].cumsum()
        b = np.bincount((xs + tie).searchsorted(q, "left"), minlength=n + 1)[:n].cumsum()
    else:
        a = q.searchsorted(xs - tie, "left")
        b = q.searchsorted(xs + tie, "right")
    out = a.astype(float) * xs - P[a]
    wide = np.flatnonzero(b > a)
    if len(wide):
        width = b[wide] - a[wide]
        i = np.repeat(wide, width)
        j = np.arange(len(i)) - np.repeat(np.cumsum(width) - width, width) + a[i] + 1
        np.maximum.at(out, i, j.astype(float) * xs[i] - P[j])
    return out, len(wide)


def _tie_run_sequences(rng, count):
    for _ in range(count):
        mu = np.sort(rng.normal(0.0, 2.0, rng.integers(3, 40)))
        yield from_log_quotients(np.repeat(mu, rng.integers(1, 13, len(mu))))


def _points_near_quotients(aw, base):
    """Sorted base points, and the same points shifted so that one lands on
    each of a few quotients, with points a few float steps to either side."""
    q = aw.knots[1:]
    yield base
    for k in np.unique(np.linspace(0, len(q) - 1, 5).astype(int)):
        shifted = base + (q[k] - base[len(base) // 2])
        near = q[k] + np.arange(-3, 4) * np.spacing(max(abs(q[k]), 1.0))
        yield np.unique(np.concatenate((shifted, near, q)))


def test_closed_form_is_the_two_expansion_kernel_bit_for_bit():
    # one expansion counts a, and each quotient within tie of a point folds
    # into the points of its range; omega must be the two-expansion kernel's
    # in the int64 view, signed zeros included, on points where b > a
    rng = np.random.default_rng(20261020)
    seqs = [M for J in (64, 512, 4096) for M in standard_battery(J)]
    seqs += list(_tie_run_sequences(rng, 40))
    seqs.append(from_log_quotients(np.concatenate(([0.0], np.full(40, 0.3)))))
    wide = 0
    for M in seqs:
        aw = AssociatedWeight(M)
        P, knots = aw.hull.log_values, aw.knots
        bases = [default_grid().log_t]
        if aw.grid is not None:
            bases.append(aw.grid.log_t)
        for base in bases:
            for xs in _points_near_quotients(aw, base):
                for pts in (xs, xs[::-1]):
                    want, n_wide = _two_expansion_closed_form(P, knots, pts)
                    got = aw.omega_log(pts)
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                                  err_msg=M.label)
                    if pts is xs and len(xs) > M.J:
                        wide += n_wide
    # the sorted route met points within tie of a quotient
    assert wide > 0


@st.composite
def _tie_run_quotients(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    mu = np.sort(np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))))
    runs = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    return np.repeat(mu, runs)


@given(_tie_run_quotients(), st.lists(st.integers(-4, 4), min_size=1, max_size=8),
       st.integers(0, 64))
@settings(max_examples=150, deadline=None)
def test_closed_form_equals_the_two_expansion_kernel_near_tie_runs(mu, steps, extra):
    # sorted points on the quotients, a few float steps off them, and enough
    # filler points that the sorted route runs
    M = from_log_quotients(mu)
    aw = AssociatedWeight(M)
    q = aw.knots[1:]
    near = np.concatenate([q + s * np.spacing(np.maximum(np.abs(q), 1.0)) for s in steps])
    xs = np.sort(np.concatenate((near, np.linspace(q[0] - 1.0, q[-1] + 1.0, M.J + extra))))
    for pts in (xs, xs[::-1]):
        want, _ = _two_expansion_closed_form(aw.hull.log_values, aw.knots, pts)
        np.testing.assert_array_equal(aw.omega_log(pts).view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# counting runs: a replay is the evaluation, byte for byte
# ---------------------------------------------------------------------------

WALK_CSV = Path(__file__).resolve().parent / "golden" / "walk.csv"


def _assert_replays(aw):
    """Every rung c < 1 on aw's own grid from its start, its middle, a
    suffix of at most J points (the search per point) and its end, and a
    partner grid: each read of a held slot, and the expansion of the runs
    of any sorted points, is omega_log there in tobytes(), signed zeros
    included."""
    J, P = len(aw.knots) - 1, aw.hull.log_values
    n = len(aw.grid)
    for s in (0, n // 2, max(0, n - J), n):
        for c in FORALL_LADDER[1:]:
            xs = aw.grid.log_t[s:] + float(np.log(c))
            want = aw.omega_log(xs).tobytes()
            for _ in range(2):
                assert aw._rung(c, s).tobytes() == want, (c, s)
            held = vars(aw).get("_rungs", {}).get(c)
            assert held[0] == s and held[1][0].sum() == len(xs)
            assert associated_weight._expand(P, xs, aw._runs_on(xs)).tobytes() == want
    partner = default_grid().clip(None, float(aw.grid.log_t[n // 3])).log_t
    want = aw.omega_log(partner + 0.0).tobytes()
    aw._hold_on(partner)
    width, i, j = vars(aw)["_partner"][1]
    assert width.dtype == np.uint16 and width.sum() == len(partner)
    for _ in range(2):
        assert aw._held(partner).tobytes() == want


@pytest.mark.parametrize("J", [64, 512, 4096])
def test_held_runs_replay_closed_form_omega_on_the_battery(J):
    # fresh associated weights: the session's sequences may hold slots
    for M in standard_battery(J):
        _assert_replays(AssociatedWeight(M))


def test_held_runs_replay_closed_form_omega_on_a_walk_hull():
    _, log_m = np.loadtxt(WALK_CSV, delimiter=",", comments="#", unpack=True)
    aw = AssociatedWeight(from_values(log_m, label="walk"))
    assert not np.array_equal(aw.hull.log_values, log_m)
    _assert_replays(aw)


@given(_tie_run_quotients(), st.lists(st.integers(-4, 4), min_size=1, max_size=8),
       st.integers(0, 64))
@settings(max_examples=150, deadline=None)
def test_runs_replay_closed_form_omega_near_tie_runs(mu, steps, extra):
    # the points of the two-expansion near-tie test, all of them, a suffix
    # moved by a shift, and a suffix of at most J points
    M = from_log_quotients(mu)
    aw = AssociatedWeight(M)
    P, knots = aw.hull.log_values, aw.knots
    q = knots[1:]
    near = np.concatenate([q + s * np.spacing(np.maximum(np.abs(q), 1.0)) for s in steps])
    xs = np.sort(np.concatenate((near, np.linspace(q[0] - 1.0, q[-1] + 1.0, M.J + extra))))
    for pts in (xs, xs[len(xs) // 3:] + float(np.log(0.5)), xs[-M.J:]):
        runs = associated_weight._runs(P, knots, pts)
        want = aw.omega_log(pts).tobytes()
        for _ in range(2):
            assert associated_weight._expand(P, pts, runs).tobytes() == want


@pytest.mark.parametrize("mode", OMEGA_MODES)
def test_omega_rejects_non_finite_points(g1, mode):
    aw = AssociatedWeight(g1)
    for x in ([np.nan, 2.0], [1.0, np.inf], -np.inf):
        with pytest.raises(ValueError, match="finite"):
            aw.omega_log(x, mode=mode)
    for t in ([np.nan, 2.0], np.inf):
        with pytest.raises(ValueError, match="finite"):
            aw.omega(t, mode=mode)
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
    # omega(t) is omega_log(log t), and 0 at t = 0
    np.testing.assert_array_equal(aw.omega(np.array([0.0, 0.5, 1.0, 7.5])),
                                  [0.0, 0.0, 0.0, aw.omega_log(np.log(7.5))])


def test_omega_monotone_and_convex_in_log_t(g1):
    x = np.linspace(-1.0, 6.0, 257)
    w = AssociatedWeight(g1).omega_log(x)
    assert np.all(np.diff(w) >= 0.0)
    assert np.all(np.diff(w, 2) >= -1e-9)


def test_unknown_mode_rejected(g1):
    with pytest.raises(ValueError, match="mode"):
        AssociatedWeight(g1).omega_log(np.array([1.0]), mode="bogus")


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

def test_recovery_roundtrip_factorials(monkeypatch):
    M = gevrey(1.0, 50)
    with pytest.warns(UserWarning, match="grid only supports"):
        R = legendre_recover(AssociatedWeight(M), J=50)
    cap = int(R.meta["reliable_max_index"])
    # RELIABLE_FRACTION halves the grid-supported index range
    assert cap == 25
    np.testing.assert_allclose(R.log_values[1:cap + 1],
                               M.log_values[1:cap + 1], rtol=1e-9)
    # the recovery reads the constant when it runs
    monkeypatch.setattr(associated_weight, "RELIABLE_FRACTION", 1.0)
    full = legendre_recover(AssociatedWeight(M), J=50)
    assert int(full.meta["reliable_max_index"]) == 50
    np.testing.assert_allclose(full.log_values[1:], M.log_values[1:],
                               rtol=1e-9)


def test_recovery_of_non_convex_input_is_the_minorant(monkeypatch):
    monkeypatch.setattr(associated_weight, "RELIABLE_FRACTION", 1.0)
    M = from_values(np.log([1.0, 10.0, 20.0, 200.0]))
    R = legendre_recover(AssociatedWeight(M), J=3)
    np.testing.assert_allclose(R.log_values,
                               log_convex_minorant(M).log_values,
                               rtol=0, atol=1e-9)


def test_recovery_warns_past_grid_support():
    aw = AssociatedWeight(gevrey(1.0, 64))
    with pytest.warns(UserWarning, match="grid only supports"):
        R = legendre_recover(aw, J=500)
    assert int(R.meta["reliable_max_index"]) < 500


# ---------------------------------------------------------------------------
# the dense conjugate kernel behind the scan route, against a dense reference
# ---------------------------------------------------------------------------

def _dense_sup(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a[:, None] * b[None, :] - c[None, :]).max(axis=1)


def _with_knots(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    return np.union1d(x, knots[(knots >= x[0]) & (knots <= x[-1])])


def test_suprema_across_kernel_blocks_match_a_dense_reference():
    # the J points of the scan over J + 1 indices are its rows: they span
    # three or more blocks of SCAN_ROWS rows, with a partial last block
    J = 1100
    assert J > 2 * SCAN_ROWS and J % SCAN_ROWS
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


def _traced_peak(recovery) -> int:
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            recovery()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# the peak may exceed the work array and the output by the few small arrays
# of one block (a block's row maxima, views)
KERNEL_SLACK = 16 * 2 ** 10


def test_conjugate_work_array_stays_within_its_cell_budget():
    P = gevrey(1.0, 4096).log_values
    b = np.arange(4097.0)
    for a in (default_grid().log_t, np.linspace(-3.0, 9.0, 7)):
        np.testing.assert_array_equal(conjugate(a, b, P), _dense_sup(a, b, P))
        bound = 8 * SCAN_CELLS + 8 * len(a) + KERNEL_SLACK
        assert _traced_peak(lambda: conjugate(a, b, P)) < bound


def test_conjugate_takes_one_row_per_block_past_the_cell_budget():
    # one row of more than SCAN_CELLS terms per block, and a single row (the
    # row 0 that recover takes from the dense kernel)
    rng = np.random.default_rng(18)
    b = np.sort(rng.normal(0.0, 8.0, SCAN_CELLS + 1000))
    c = rng.normal(0.0, 50.0, len(b))
    for a in (np.linspace(-2.0, 2.0, 3), np.zeros(1)):
        np.testing.assert_array_equal(conjugate(a, b, c).view(np.int64),
                                      _dense_sup(a, b, c).view(np.int64))
        bound = 8 * len(b) + 8 * len(a) + KERNEL_SLACK
        assert _traced_peak(lambda: conjugate(a, b, c)) < bound


def _dense_kernel(a, b, c):
    # the dense kernel the banded one replaced: every column of every row,
    # in blocks of SCAN_CELLS // len(b) rows
    rows = max(1, SCAN_CELLS // len(b))
    out = np.empty(len(a))
    for lo in range(0, len(a), rows):
        terms = np.multiply.outer(a[lo:lo + rows], b)
        terms -= c
        out[lo:lo + rows] = terms.max(axis=1)
    return out


def _assert_dense_kernel(a, b, c, label=""):
    np.testing.assert_array_equal(conjugate(a, b, c).view(np.int64),
                                  _dense_kernel(a, b, c).view(np.int64), err_msg=label)


def _walk(rng, J):
    return WeightSequence(np.concatenate(([0.0], np.cumsum(rng.normal(0.6, 1.5, J)))),
                          label=f"walk{J}")


@pytest.mark.parametrize("J", [64, 512, 4096])
def test_banded_conjugate_is_the_dense_kernel_bit_for_bit(J):
    # the scan route's shape: points for rows, indices for columns
    rng = np.random.default_rng(J)
    x = np.union1d(default_grid().log_t, [0.0])
    b = np.arange(J + 1, dtype=float)
    for M in list(standard_battery(J)) + [_walk(rng, J), _walk(rng, J)]:
        for a in (x, x[::-1], rng.permutation(x), x[:0]):
            _assert_dense_kernel(a, b, M.log_values, M.label)


def test_banded_conjugate_keeps_the_dense_recovery_of_a_weight():
    # the recovery's shape: indices for rows, points for columns.  omega is 0
    # on a stretch of t <= 1 on all three, so row 0 ties at zero.  On the
    # table it ties -0.0 (x < 0) with +0.0 (x = 0) past a first column that
    # the band drops, and the band alone reduces to the other sign
    t = np.union1d(np.geomspace(1e-2, 1e6, 198), [1.0])
    x = np.log(t)
    table = from_table(t, np.where(x < -1.0, (x + 1.0) ** 2, 0.5 * np.maximum(x, 0.0) ** 2),
                       label="well")
    M = from_log_quotients(np.concatenate(([0.0], np.linspace(-3.0, 8.0, 200))))
    J = 512
    a = np.arange(J + 1, dtype=float)
    for v in (from_sequence(gevrey(1.0, J)).power(2.0), normalize(from_sequence(M)), table):
        x = default_grid().clip(None, v.log_t_reliable).augment(v.knots_log).log_t
        w = v.omega_log(x)
        _assert_dense_kernel(a, x, w, v.label)
        assert (0.0 * x - w == 0.0).sum() > 1
    row0 = 0.0 * x - w
    assert np.signbit(row0[row0 == 0.0]).any() and not np.signbit(row0[row0 == 0.0]).all()
    assert row0[0] < 0.0


def test_banded_conjugate_needs_its_rounding_margin():
    # two lines one ulp apart in slope and intercept: column 1's float term
    # is the higher at both ends of the block, column 0's in the middle row,
    # so a band cut at bound >= 0 instead of >= -rho drops that row's maximum
    a, b, c = (np.array([float.fromhex(h) for h in hexes]) for hexes in (
        ["-0x1.95770f9951ec5p+5"] + ["-0x1.3a83b3c7ed6dbp+5"] * 3 + ["-0x1.40e84eaf7e90cp+4"],
        ["0x1.6134bba21ffd6p+1", "0x1.6134bba21ffd7p+1"],
        ["-0x1.c072f65ad3261p+6", "-0x1.c072f65ad3262p+6"]))
    terms = np.multiply.outer(a, b) - c
    assert (terms[:, 1] > terms[:, 0]).tolist() == [True, False, False, False, True]
    _assert_dense_kernel(a, b, c)


def test_banded_conjugate_forms_a_small_share_of_the_terms(monkeypatch):
    # a band as wide as every column would still be bit for bit the dense
    # kernel; the bands hold about 1/32 of the terms here
    cells = []
    band = associated_weight.band

    def counted(a_lo, a_hi, *args):
        k0, k1 = band(a_lo, a_hi, *args)
        cells.extend(k1 - k0)
        return k0, k1

    monkeypatch.setattr(associated_weight, "band", counted)
    x = default_grid().log_t
    P = gevrey(1.0, 4096).log_values
    b = np.arange(4097.0)
    np.testing.assert_array_equal(conjugate(x, b, P), _dense_kernel(x, b, P))
    rows = np.minimum(len(x) - SCAN_ROWS * np.arange(len(cells)), SCAN_ROWS)
    assert rows.sum() == len(x)
    assert (rows * np.array(cells)).sum() <= len(x) * len(b) / 8


def test_banded_conjugate_at_the_edge_of_the_float_range():
    # j x overflows at |x| = 1e306, so rho is inf and every column stays (a
    # bound there would difference inf ends into NaN, which compares false
    # and would cut the band by accident); in the last case rho is finite and
    # the bound overflows to -inf
    P = gevrey(1.0, 512).log_values
    b = np.arange(513.0)
    x = default_grid().log_t
    cases = [(np.array([1e306, -1e306, 0.0, 3.0]), b, P),
             (np.concatenate(([-1e306], x, [1e306, 1e300, -1e303]))[::-1], b, P),
             (np.array([1e306]), b, P),
             (np.linspace(0.9, 1.0, 5), np.array([-1.5e308, 1.5e308]), np.zeros(2))]
    for a, bb, c in cases:
        with warnings.catch_warnings(record=True) as dense_warned:
            warnings.simplefilter("always")
            want = _dense_kernel(a, bb, c)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = conjugate(a, bb, c)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert ({(w.category, str(w.message)) for w in warned}
                <= {(w.category, str(w.message)) for w in dense_warned})


@st.composite
def _conjugate_inputs(draw):
    """The scan's shape (rows of points, columns of indices, a non-convex
    walk) or the recovery's (rows of indices, columns of sorted points, a
    noisy function, 0 on [wall, 0] and rising on both sides), in sizes past
    one block of rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # sizes from the seeded generator: hypothesis favours small integers
    n, m = int(rng.integers(1, 700)), int(rng.integers(1, 700))
    pts = draw(st.floats(-30.0, 30.0)) + draw(st.floats(1e-6, 20.0)) * rng.standard_normal(m)
    pts[rng.random(m) < draw(st.floats(0.0, 0.2))] = 0.0
    if draw(st.booleans()):
        walk = np.cumsum(rng.normal(draw(st.floats(-1.0, 3.0)), draw(st.floats(0.0, 5.0)), n))
        a = np.sort(pts) if draw(st.booleans()) else pts
        return a, np.arange(n, dtype=float), walk - walk[0]
    x = np.sort(pts[:n] if m >= n else np.concatenate((pts, rng.normal(0.0, 5.0, n - m))))
    wall = draw(st.floats(-10.0, 0.0))
    w = (np.maximum(x, 0.0) ** draw(st.floats(1.0, 3.0))
         + draw(st.floats(0.0, 50.0)) * np.maximum(wall - x, 0.0)
         + rng.normal(0.0, draw(st.floats(0.0, 2.0)), n))
    w[(x <= 0.0) & (x >= wall)] = 0.0
    return np.arange(m, dtype=float), x, w


@given(_conjugate_inputs())
@settings(max_examples=80, deadline=None)
def test_banded_conjugate_is_the_dense_kernel_on_random_input(case):
    _assert_dense_kernel(*case)


def test_large_recovery_stays_within_a_memory_bound():
    # one dense (J+1) x n term matrix here would take about 0.5 GiB, and one
    # block of the dense kernel 16-32 MiB; the windows hold about n + J terms
    M = gevrey(1.0, 4096)
    assert _traced_peak(lambda: legendre_recover(AssociatedWeight(M), J=4096)) < 8 * 2 ** 20


def test_large_weight_recovery_stays_within_a_memory_bound():
    M = gevrey(1.0, 4096)
    assert _traced_peak(lambda: associated_sequence(from_sequence(M), J=4096)) < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# the windowed recovery of a sequence weight
# ---------------------------------------------------------------------------

def _recover_without_margin(J, x, w, q):
    # recover with m = 0: each window is exactly the span [q_j, q_{j+1}]
    ends = np.full(J + 1, x[-1])
    ends[:min(J + 1, len(q))] = np.clip(q[:J + 1], x[0], x[-1])
    lo = x.searchsorted(ends[:-1], "left")
    hi = x.searchsorted(ends[1:], "right")
    width = hi - lo
    start = np.cumsum(width) - width
    i = np.arange(width.sum()) - np.repeat(start - lo, width)
    js = np.repeat(np.arange(1, J + 1, dtype=float), width)
    out = np.empty(J + 1)
    out[0] = conjugate(np.zeros(1), x, w)[0]
    out[1:] = np.maximum.reduceat(js * x[i] - w[i], start)
    return out


def _sequence_recovery_inputs(M: WeightSequence):
    """(x, omega_log, knots) as legendre_recover and associated_sequence form them."""
    aw = AssociatedWeight(M)
    yield default_grid().augment(aw.knots[1:]).log_t, aw.omega_log, aw.knots[1:]
    u = from_sequence(M)
    for v in (u, u.dilate(3.0), u.dilate(0.01)):
        g = default_grid().clip(None, v.log_t_reliable)
        if g is not None:
            yield g.augment(v.knots_log).log_t, v.omega_log, v.knots_log


def _tie_run_on_a_grid_point(k: int, run: int) -> WeightSequence:
    # half the run has its quotient on default grid point k, half one float
    # step above it: two knots within rounding of each other, both grid points
    g = float(default_grid().log_t[k])
    q = np.concatenate(([-1.0, 0.5], np.full(run, g), np.full(run, np.nextafter(g, np.inf)),
                        [g + 1.0]))
    return from_log_quotients(q)


def test_windowed_recovery_is_the_dense_conjugate_bit_for_bit(battery):
    rng = np.random.default_rng(243)
    seqs = list(battery)
    seqs += [WeightSequence(np.concatenate(([0.0], np.cumsum(rng.normal(0.6, 1.5, J)))),
                            label=f"walk{J}") for J in (512, 1024, 2048, 4096) for _ in range(2)]
    seqs += [gevrey(1.0, 4096), gevrey(2.0, 2048), gevrey(0.5, 1024), gevrey(3.0, 512),
             q_gevrey(1.5, 4096), q_gevrey(2.0, 2048), q_gevrey(3.0, 1024), q_gevrey(1.25, 512)]
    for _ in range(40):
        mu = np.sort(rng.normal(0.0, 2.0, rng.integers(3, 40)))
        seqs.append(from_log_quotients(np.repeat(mu, rng.integers(1, 13, len(mu)))))
    seqs.append(_tie_run_on_a_grid_point(2048, 20))
    for M in seqs:
        for x, omega_log, q in _sequence_recovery_inputs(M):
            w = omega_log(x)
            # J at, below and above the hull's
            for J in (M.J, 300, 700):
                want = conjugate(np.arange(J + 1, dtype=float), x, w)
                got = recover(J, x, w, q)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                              err_msg=f"{M.label} J={J}")


def test_windowed_recovery_needs_its_margin():
    # at m = 0 the window of a row inside the run starts on the knot one float
    # step above the grid point, and rounding can put the maximum on the point
    M = _tie_run_on_a_grid_point(2048, 20)
    aw = AssociatedWeight(M)
    x = default_grid().augment(aw.knots[1:]).log_t
    w = aw.omega_log(x)
    want = conjugate(np.arange(M.J + 1, dtype=float), x, w)
    np.testing.assert_array_equal(recover(M.J, x, w, aw.knots[1:]), want)
    assert (_recover_without_margin(M.J, x, w, aw.knots[1:]) != want).any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        R = legendre_recover(aw, J=M.J)
    assert np.array_equal(R.log_values[1:], want[1:])


def test_normalized_weight_keeps_the_dense_recovery():
    # the clamp adds a slope-0 piece below t = 1; with knots below it, row j
    # can peak at the clamp point, outside [q_j, q_{j+1}], so a window misses it
    M = from_log_quotients(np.concatenate(([0.0], np.linspace(-3.0, 8.0, 200))))
    u = normalize(from_sequence(M))
    x = default_grid().clip(None, u.log_t_reliable).augment(u.knots_log).log_t
    w = u.omega_log(x)
    J = 250
    dense = conjugate(np.arange(J + 1, dtype=float), x, w)
    assert (recover(J, x, w, u.knots_log) != dense).any()
    vals = dense - dense[0]
    vals[0] = 0.0
    q = np.maximum.accumulate(np.diff(vals))
    Mu = associated_sequence(u, J=J)
    assert Mu.meta["origin_shift"] == dense[0]
    np.testing.assert_array_equal(Mu.log_values.view(np.int64),
                                  np.concatenate(([0.0], np.cumsum(q))).view(np.int64))


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


def test_ladders_abstain_where_the_window_is_too_short():
    lin = lambda x: 1e3 * np.clip(np.asarray(x, dtype=float), 0.0, None)
    # H = 1, 2 leave a window, every H >= 4 is skipped, and lin fails on both
    v6 = om6_ladder(lin, np.log(4.0) + MIN_WINDOW_SPAN / 2.0)
    assert v6.fails
    assert [H for H, _ in v6.evidence] == [1.0, 2.0]
    assert v6.note == ("violation on every evaluable rung; evidence is (H, log t) "
                       "(window too short for H >= 4)")
    v6 = om6_ladder(lin, MIN_WINDOW_SPAN)
    assert v6.inconclusive
    assert v6.note == "faithful range too short for any rung"
    v1 = om1_ladder(lin, np.log(2.0) + MIN_WINDOW_SPAN / 2.0)
    assert v1.inconclusive
    assert v1.note == "faithful range too short for the doubling window"


def test_sequence_level_ladder_checks(g1, q15):
    assert check_om6_omega(g1).holds
    assert check_om1_omega(g1).holds
    assert check_om6_omega(q15).fails
    assert check_om1_omega(q15).holds
