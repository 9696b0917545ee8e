"""Windowed trend classification: slices of a sorted abscissa."""

from __future__ import annotations

import numpy as np
import pytest

from growthcomp.trend import DEFAULT_POLICY, Trend, TrendPolicy, TrendReport, classify

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
        return TrendReport(Trend.FLAT, 0.0, 0.0, 0.0, 0.0,
                           float(x[0]) if len(x) else 0.0,
                           float(x[-1]) if len(x) else 0.0, len(x))
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
    return TrendReport(kind, slope, s1, s2, sq, float(xw[0]), float(xw[-1]), len(xw))


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


def test_classify_rejects_a_decreasing_abscissa():
    x = np.array([0.0, 1.0, np.nan, 0.5, 2.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        classify(x, np.ones(5), DEFAULT_POLICY)
    # non-finite points drop out before the order is checked
    x = np.array([0.0, np.nan, 1.0, -np.inf, 1.0, np.inf, 2.0])
    assert classify(x, x, DEFAULT_POLICY).n_points == 3


def test_classify_reads_the_trend_off_the_trailing_window():
    x = np.linspace(0.0, 4.0, 401)
    # flat, then rising over the trailing half
    y = np.where(x < 2.0, 0.0, x - 2.0)
    rep = classify(x, y, DEFAULT_POLICY)
    assert rep.kind is Trend.RISING and rep.x_lo == 2.0 and rep.n_points == 201
    assert rep.slope == pytest.approx(1.0)
    assert classify(x, -y, DEFAULT_POLICY).kind is Trend.FALLING
    assert classify(x, np.zeros_like(x), DEFAULT_POLICY).kind is Trend.FLAT
