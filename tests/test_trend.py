"""Windowed trend classification: slices of a sorted abscissa, bare or held."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import trend
from growthcomp.trend import (DEFAULT_POLICY, Abscissa, Trend, TrendPolicy, TrendReport,
                              classify, index_abscissa)

# ---------------------------------------------------------------------------
# a mask-based reference: every window selected by comparing each point
# against the window threshold, every mean taken by ndarray.mean
# ---------------------------------------------------------------------------


def _ref_slope(x, y):
    if len(x) < 2:
        return 0.0
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xm, y - y.mean()) / denom)


def _ref_classify(x, y, policy, margin=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = policy.margin if margin is None else margin
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if len(x) < 2:
        return TrendReport(Trend.FLAT, 0.0, False)
    lo, hi = float(x[0]), float(x[-1])
    if hi <= lo:
        mask = np.ones(len(x), dtype=bool)
    else:
        mask = x >= hi - policy.window_fraction * (hi - lo)
    xw, yw = x[mask], y[mask]
    if len(xw) < 2:
        xw, yw = x, y
    slope = _ref_slope(xw, yw)
    mid = xw[0] + 0.5 * (xw[-1] - xw[0])
    first = xw <= mid
    second = ~first
    s1 = _ref_slope(xw[first], yw[first]) if first.sum() >= 2 else slope
    s2 = _ref_slope(xw[second], yw[second]) if second.sum() >= 2 else slope
    qmask = xw >= xw[0] + 0.75 * (xw[-1] - xw[0])
    sq = _ref_slope(xw[qmask], yw[qmask]) if qmask.sum() >= 2 else s2
    if slope > m:
        kind = Trend.RISING
    elif slope < -m:
        kind = Trend.FALLING
    else:
        kind = Trend.FLAT
    peak = ((kind is Trend.RISING and sq <= 0)
            or (kind is Trend.FALLING and sq >= 0))
    return TrendReport(kind, slope, peak)


def _cases(rng):
    """Seeded (x, y) pairs with a non-decreasing finite part of x."""
    for n in (0, 1, 2, 3, 16, 4096):
        x = np.sort(rng.uniform(-3.0, 9.0, n))
        yield x, rng.normal(0.0, 1.0, n)
        yield x, 0.3 * x + 1e-3 * rng.normal(0.0, 1.0, n)
        yield np.full(n, 2.5), rng.normal(0.0, 1.0, n)
        # duplicate abscissae: a few distinct values, each repeated
        xd = np.sort(rng.choice(np.linspace(0.0, 5.0, 7), n))
        yield xd, np.sqrt(np.abs(xd)) + rng.normal(0.0, 1e-2, n)
        # grid-like abscissae whose thresholds land on points
        yield np.log1p(np.arange(n, dtype=float)), rng.normal(0.0, 1.0, n).cumsum()
    for n in (16, 300, 4096):
        x = np.sort(rng.uniform(0.0, 7.0, n))
        y = np.sin(x) + rng.normal(0.0, 0.1, n)
        for bad in (np.nan, np.inf, -np.inf):
            xb, yb = x.copy(), y.copy()
            xb[rng.integers(0, n, max(1, n // 10))] = bad
            yield xb, y
            yb[rng.integers(0, n, max(1, n // 10))] = bad
            yield x, yb
            yield xb, yb


@pytest.mark.parametrize("fraction", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("margin", (None, 1e-4))
def test_classify_matches_the_mask_reference(fraction, margin):
    policy = TrendPolicy(window_fraction=fraction)
    rng = np.random.default_rng(20241018)
    for x, y in _cases(rng):
        got = classify(x, y, policy, margin=margin)
        assert repr(got) == repr(_ref_classify(x, y, policy, margin=margin)), (len(x), x[:4])
    # finite points whose sum overflows fall back to the filter, which keeps
    # them all; a NaN is dropped there (the fits overflow alike on both sides)
    x = np.linspace(0.0, 5.0, 64)
    nan = rng.normal(0.0, 1.0, 64)
    nan[40] = np.nan
    for y in (np.repeat([1e308, -1e308, 1e308, -1e308], 16), nan):
        with np.errstate(over="ignore", invalid="ignore"):
            got = classify(x, y, policy, margin=margin)
            want = _ref_classify(x, y, policy, margin=margin)
        assert repr(got) == repr(want)


def test_classify_rejects_a_decreasing_abscissa():
    x = np.array([0.0, 1.0, np.nan, 0.5, 2.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        classify(x, np.ones(5), DEFAULT_POLICY)
    # non-finite points drop out before the order is checked
    x = np.array([0.0, np.nan, 1.0, -np.inf, 1.0, np.inf, 2.0])
    rep = classify(x, x, DEFAULT_POLICY)
    # the window is the finite points 1.0, 1.0, 2.0: y = x has slope 1
    assert rep.kind is Trend.RISING and rep.slope == 1.0
    assert classify(x, -x, DEFAULT_POLICY).kind is Trend.FALLING


def test_classify_reads_the_trend_off_the_trailing_window():
    x = np.linspace(0.0, 4.0, 401)
    # flat, then rising over the trailing half
    y = np.where(x < 2.0, 0.0, x - 2.0)
    rep = classify(x, y, DEFAULT_POLICY)
    assert rep.kind is Trend.RISING and not rep.peak_inside
    # the fit sees only the rising part: the flat part would pull it below 1
    assert rep.slope == pytest.approx(1.0)
    assert classify(x, -y, DEFAULT_POLICY).kind is Trend.FALLING
    assert classify(x, np.zeros_like(x), DEFAULT_POLICY).kind is Trend.FLAT


def test_classify_fits_the_quarter_only_on_a_rising_or_falling_trend(monkeypatch):
    calls = []
    real = trend.ls_slope

    def counted(x, y, mean, ss):
        calls.append(len(x))
        return real(x, y, mean, ss)

    monkeypatch.setattr(trend, "ls_slope", counted)
    x = np.linspace(0.0, 4.0, 401)
    # flat: the window only
    assert classify(x, np.zeros_like(x), DEFAULT_POLICY).kind is Trend.FLAT
    assert calls == [201]
    # falling: the window, then its final quarter
    calls.clear()
    rep = classify(x, -x, DEFAULT_POLICY)
    assert rep.kind is Trend.FALLING and not rep.peak_inside
    assert calls == [201, 51]
    # falling to a trough inside the final quarter
    calls.clear()
    assert classify(x, (x - 3.6) ** 2, DEFAULT_POLICY).peak_inside
    assert calls == [201, 51]
    # rising: the window, then its final quarter
    calls.clear()
    rep = classify(x, x, DEFAULT_POLICY)
    assert rep.kind is Trend.RISING and not rep.peak_inside
    assert calls == [201, 51]
    # rising to a peak inside the final quarter
    calls.clear()
    assert classify(x, -(x - 3.6) ** 2, DEFAULT_POLICY).peak_inside
    assert calls == [201, 51]


def test_classify_reads_a_nan_slope_as_flat(monkeypatch):
    monkeypatch.setattr(trend, "ls_slope", lambda x, y, mean, ss: float("nan"))
    x = np.linspace(0.0, 4.0, 401)
    rep = classify(x, x, DEFAULT_POLICY)
    assert rep.kind is Trend.FLAT and not rep.peak_inside


# ---------------------------------------------------------------------------
# the report of -y is the report of y negated, bit for bit
# ---------------------------------------------------------------------------

SWAPPED = {Trend.RISING: Trend.FALLING, Trend.FALLING: Trend.RISING,
           Trend.FLAT: Trend.FLAT}


def _assert_negated(x, y, margin=None):
    rep = classify(x, y, DEFAULT_POLICY, margin=margin)
    neg = classify(x, -y, DEFAULT_POLICY, margin=margin)
    assert neg.kind is SWAPPED[rep.kind]
    assert neg.peak_inside == rep.peak_inside
    # the int64 view tells -0.0 from 0.0 and any last-bit difference
    want = np.array([-rep.slope]).view(np.int64)[0]
    assert np.array([neg.slope]).view(np.int64)[0] == want
    return rep


def test_classify_commutes_with_negation():
    rng = np.random.default_rng(20261019)
    x = np.linspace(0.0, 6.0, 601)
    kinds = set()
    for y in (x ** 1.5 + rng.normal(0.0, 0.2, x.size),     # rising
              np.sin(x) + rng.normal(0.0, 1e-3, x.size),   # peak inside
              -(x - 5.5) ** 2,                             # turns inside the quarter
              np.log1p(x) * 1e-3,                          # flat
              rng.normal(0.0, 1.0, x.size).cumsum()):      # a walk
        kinds.add(_assert_negated(x, y).kind)
        # exact zeros: a plateau at 0 over the first third of the window
        _assert_negated(x, np.where(x < 4.0, 0.0, y))
    assert kinds == set(Trend)
    # a slope of exactly zero decides no kind and may keep its sign
    for y in (np.zeros_like(x), np.full_like(x, 2.5)):
        rep = classify(x, y, DEFAULT_POLICY)
        neg = classify(x, -y, DEFAULT_POLICY)
        assert rep.kind is neg.kind is Trend.FLAT and rep.slope == neg.slope == 0.0


def test_classify_commutes_with_negation_on_non_finite_points():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 6.0, 301)
    y = 0.4 * x + rng.normal(0.0, 0.05, x.size)
    for bad in (np.nan, np.inf, -np.inf):
        yb = y.copy()
        yb[rng.integers(0, x.size, 30)] = bad
        assert _assert_negated(x, yb).kind is Trend.RISING
        xb = x.copy()
        xb[rng.integers(0, x.size, 30)] = bad
        _assert_negated(xb, y)


def test_classify_commutes_with_negation_on_a_short_quarter():
    # the final quarter holds one point, the second half two: the quarter
    # slope falls back to the second half
    x = np.array([0.0, 1.0, 2.0, 3.2, 3.4, 4.0])
    y = np.array([0.0, 0.0, 0.0, 3.0, 2.5, 2.0])
    rep = _assert_negated(x, y)
    assert rep.kind is Trend.RISING and rep.peak_inside
    # the trailing window holds two points: the fallback is the window
    rep = _assert_negated(np.array([0.0, 0.1, 3.9, 4.0]),
                          np.array([0.0, 0.0, 3.0, 3.5]))
    assert rep.kind is Trend.RISING and not rep.peak_inside


def test_classify_commutes_with_negation_under_a_margin_override():
    x = np.linspace(0.0, 4.0, 401)
    y = 0.03 * x
    assert _assert_negated(x, y).kind is Trend.FLAT
    assert _assert_negated(x, y, margin=DEFAULT_POLICY.ratio_margin).kind is Trend.RISING


# ---------------------------------------------------------------------------
# a held abscissa fits as the bare array does, bit for bit
# ---------------------------------------------------------------------------

FRACTIONS = (0.25, 0.5, 1.0)


def _bits(rep):
    return rep.kind, rep.peak_inside, np.array([rep.slope]).view(np.int64)[0]


def _assert_held_is_bare(x, ys, margin=None):
    """One Abscissa of x, read by every y under every fraction in turn (so
    its scalars are formed by the first fit and read by the rest), against
    classify on a fresh copy of x; the negated y too, whose held fit is the
    held fit of y with the kind swapped and the slope negated (bar a NaN
    slope, and the sign of a zero one)."""
    axis = Abscissa(x)
    for fraction in FRACTIONS:
        policy = TrendPolicy(window_fraction=fraction)
        for y in ys:
            held = []
            for sign in (1.0, -1.0):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = classify(axis, sign * y, policy, margin=margin)
                    want = classify(np.array(x), sign * y, policy, margin=margin)
                assert _bits(got) == _bits(want), (fraction, len(x), sign)
                held.append(got)
            rep, neg = held
            if rep.slope != 0.0 and not np.isnan(rep.slope):
                assert _bits(neg) == (SWAPPED[rep.kind], rep.peak_inside,
                                      np.array([-rep.slope]).view(np.int64)[0])


_sorted_x = st.lists(st.sampled_from((-2.0, -0.5, 0.0, 0.25, 1.0, 1.5, 3.0, 7.5)),
                     min_size=2, max_size=40).map(lambda v: np.sort(np.array(v)))


@given(_sorted_x, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_held_fits_equal_bare_fits_on_repeated_abscissae(x, seed):
    rng = np.random.default_rng(seed)
    n = len(x)
    _assert_held_is_bare(x, (rng.normal(0.0, 1.0, n), 0.4 * x + rng.normal(0.0, 1e-3, n),
                             np.where(x < x[-1], 0.0, 1.0)))
    _assert_held_is_bare(x, (0.03 * x,), margin=DEFAULT_POLICY.ratio_margin)


def test_held_fits_equal_bare_fits_on_edge_windows():
    rng = np.random.default_rng(32)
    cases = [
        np.full(5, 2.5),                        # constant x: sum of squares 0
        np.array([0.0, 1.0]),                   # n = 2
        np.array([0.0, 1.0, 2.0]),              # n = 3
        np.array([0.0, 0.1, 3.9, 4.0]),         # trailing window of 2 points
        np.array([0.0, 0.1, 0.2, 4.0]),         # trailing window of 1 point
        np.array([0.0, 1.0, 2.0, 3.2, 3.4, 4.0]),  # quarter falls back to the half
        np.array([0.0, 3.0, 3.0, 3.0, 4.0]),    # the half holds one point too
        np.linspace(0.0, 6.0, 601),
        np.log(np.arange(129, 257, dtype=float)),
    ]
    for x in cases:
        n = len(x)
        _assert_held_is_bare(x, (x, -(x - x[-1] * 0.9) ** 2, rng.normal(0.0, 1.0, n),
                                 np.zeros(n), np.array([0.0, 0.0, *([3.0] * (n - 2))])))


def test_held_fits_take_the_filter_on_non_finite_or_overflowing_y():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 5.0, 64)
    ys = [np.repeat([1e308, -1e308, 1e308, -1e308], 16), 0.4 * x + 1e308 * (x > 4.9)]
    for bad in (np.nan, np.inf, -np.inf):
        y = 0.4 * x + rng.normal(0.0, 0.05, x.size)
        y[rng.integers(0, x.size, 8)] = bad
        ys.append(y)
    y = rng.normal(0.0, 1.0, x.size)
    y[-60:] = np.nan    # fewer than two points survive
    ys.append(y)
    _assert_held_is_bare(x, ys)


def test_a_held_abscissa_checks_the_shape_of_y():
    with pytest.raises(ValueError, match="equal shape"):
        classify(Abscissa(np.linspace(0.0, 1.0, 8)), np.ones(7), DEFAULT_POLICY)


def test_index_abscissae_are_held_read_only_and_equal_the_bare_log():
    a = index_abscissa(129, 256)
    assert index_abscissa(129, 256) is a and not a.x.flags.writeable
    np.testing.assert_array_equal(a.x.view(np.int64),
                                  np.log(np.arange(129, 257, dtype=float)).view(np.int64))
