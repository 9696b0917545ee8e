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
    if len(x) < 2:
        return 0.0
    xm = x - x.mean()
    denom = float(np.dot(xm, xm))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xm, y - y.mean()) / denom)


def trailing_mask(x: np.ndarray, fraction: float) -> np.ndarray:
    """Mask selecting the trailing `fraction` of the abscissa RANGE (not count)."""
    if len(x) == 0:
        return np.zeros(0, dtype=bool)
    lo, hi = float(x[0]), float(x[-1])
    if hi <= lo:
        return np.ones(len(x), dtype=bool)
    return x >= hi - fraction * (hi - lo)


def classify(x: np.ndarray, y: np.ndarray, policy: TrendPolicy,
             margin: float | None = None) -> TrendReport:
    """Classify the trailing-window trend of diagnostic y over abscissa x.

    x must be non-decreasing.  The window is the trailing `window_fraction` of
    the abscissa range; the classification margin defaults to policy.margin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("abscissa and diagnostic must have equal shape")
    m = policy.margin if margin is None else margin
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if len(x) < 2:
        return TrendReport(Trend.FLAT, 0.0, 0.0, 0.0, 0.0,
                           float(x[0]) if len(x) else 0.0,
                           float(x[-1]) if len(x) else 0.0, len(x))
    mask = trailing_mask(x, policy.window_fraction)
    xw, yw = x[mask], y[mask]
    if len(xw) < 2:
        xw, yw = x, y
    slope = ls_slope(xw, yw)
    mid = xw[0] + 0.5 * (xw[-1] - xw[0])
    first = xw <= mid
    second = ~first
    s1 = ls_slope(xw[first], yw[first]) if first.sum() >= 2 else slope
    s2 = ls_slope(xw[second], yw[second]) if second.sum() >= 2 else slope
    qmask = xw >= xw[0] + 0.75 * (xw[-1] - xw[0])
    sq = ls_slope(xw[qmask], yw[qmask]) if qmask.sum() >= 2 else s2
    if slope > m:
        kind = Trend.RISING
    elif slope < -m:
        kind = Trend.FALLING
    else:
        kind = Trend.FLAT
    return TrendReport(kind, slope, s1, s2, sq, float(xw[0]), float(xw[-1]), len(xw))


def index_window(j_lo: int, j_hi: int) -> tuple[int, int]:
    """Trailing half-window of a valid index range [j_lo, j_hi] (inclusive)."""
    if j_hi < j_lo:
        raise ValueError("empty index range")
    start = j_lo + (j_hi - j_lo) // 2
    return start, j_hi
