"""Windowed trend classification for asymptotic diagnostics.

Finite data cannot certify a limit; every asymptotic decision in this package
is an explicit windowed heuristic: take the trailing part of a diagnostic
sequence, fit a least-squares slope against the log-abscissa, and classify as
rising / falling / flat with a stated margin.  The regression abscissa is
log j for index-based diagnostics and log t for grid-based ones: bounded
diagnostics then have slope near 0 while logarithmically divergent ones keep a
slope of order one, so a single margin separates them at any window length.

Alongside the half-window slope the classifier reports the slopes of the two
half-window halves and of the final quarter; ladder deciders read the final
quarter (peak_inside) to detect late turnarounds; the two half-window slopes
record the curvature of the trend for diagnostics.

The abscissa is non-decreasing, so every window (the trailing window, its
two halves and its final quarter) is a contiguous slice that starts where
searchsorted places the window's threshold; the threshold is the same float
expression a mask comparison would use, so each fit sees the same elements
in the same order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Trend(enum.Enum):
    RISING = "rising"
    FALLING = "falling"
    FLAT = "flat"


@dataclass(frozen=True)
class TrendPolicy:
    """Margins for trend classification.

    margin        -- slope threshold (per unit of log-abscissa) for the primary
                     rising/falling/flat call.
    ratio_margin  -- finer threshold used for dominance (log-ratio) trends and
                     curvature comparisons inside ladder deciders.
    window_fraction -- trailing fraction of the abscissa range used for the fit.
    """

    margin: float = 0.05
    ratio_margin: float = 0.025
    window_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not (self.margin > 0 and self.ratio_margin > 0):
            raise ValueError("margins must be positive")
        if not (0 < self.window_fraction <= 1):
            raise ValueError("window_fraction must lie in (0, 1]")


DEFAULT_POLICY = TrendPolicy()
# fewest grid points a windowed decision rests on; shorter windows abstain
MIN_WINDOW_POINTS = 16


@dataclass(frozen=True)
class TrendReport:
    kind: Trend
    slope: float
    slope_first: float
    slope_second: float
    slope_quarter: float
    x_lo: float
    x_hi: float
    n_points: int

    @property
    def peak_inside(self) -> bool:
        """Rising on the window but no longer rising in the final quarter."""
        return self.kind is Trend.RISING and self.slope_quarter <= 0


def ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x; 0.0 for degenerate windows."""
    n = len(x)
    if n < 2:
        return 0.0
    # np.add.reduce(x) / n is the arithmetic of x.mean() and xm.dot that of
    # np.dot, each without its Python wrapper
    xm = x - np.add.reduce(x) / n
    denom = float(xm.dot(xm))
    if denom == 0.0:
        return 0.0
    return float(xm.dot(y - np.add.reduce(y) / n) / denom)


def classify(x: np.ndarray, y: np.ndarray, policy: TrendPolicy,
             margin: float | None = None) -> TrendReport:
    """Classify the trailing-window trend of diagnostic y over abscissa x.

    x must be non-decreasing once non-finite points are dropped.  The window
    is the trailing `window_fraction` of the abscissa range (not count); the
    classification margin defaults to policy.margin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("abscissa and diagnostic must have equal shape")
    m = policy.margin if margin is None else margin
    keep = np.isfinite(x) & np.isfinite(y)
    if not keep.all():
        x, y = x[keep], y[keep]
    if (x[1:] < x[:-1]).any():
        raise ValueError("abscissa must be non-decreasing")
    if len(x) < 2:
        return TrendReport(Trend.FLAT, 0.0, 0.0, 0.0, 0.0,
                           float(x[0]) if len(x) else 0.0,
                           float(x[-1]) if len(x) else 0.0, len(x))
    lo, hi = float(x[0]), float(x[-1])
    k = x.searchsorted(hi - policy.window_fraction * (hi - lo), "left")
    xw, yw = (x[k:], y[k:]) if len(x) - k >= 2 else (x, y)
    slope = ls_slope(xw, yw)
    n = len(xw)
    lo, hi = xw[0], xw[-1]
    k = xw.searchsorted(lo + 0.5 * (hi - lo), "right")
    s1 = ls_slope(xw[:k], yw[:k]) if k >= 2 else slope
    s2 = ls_slope(xw[k:], yw[k:]) if n - k >= 2 else slope
    k = xw.searchsorted(lo + 0.75 * (hi - lo), "left")
    sq = ls_slope(xw[k:], yw[k:]) if n - k >= 2 else s2
    if slope > m:
        kind = Trend.RISING
    elif slope < -m:
        kind = Trend.FALLING
    else:
        kind = Trend.FLAT
    return TrendReport(kind, slope, s1, s2, sq, float(lo), float(hi), n)


def index_window(j_lo: int, j_hi: int) -> tuple[int, int]:
    """Trailing half-window of a valid index range [j_lo, j_hi] (inclusive)."""
    if j_hi < j_lo:
        raise ValueError("empty index range")
    start = j_lo + (j_hi - j_lo) // 2
    return start, j_hi
