"""Windowed trend classification for asymptotic diagnostics.

Finite data cannot certify a limit; every asymptotic decision in this package
is an explicit windowed heuristic: take the trailing part of a diagnostic
sequence, fit a least-squares slope against the log-abscissa, and classify as
rising / falling / flat with a stated margin.  The regression abscissa is
log j for index-based diagnostics and log t for grid-based ones: bounded
diagnostics then have slope near 0 while logarithmically divergent ones keep a
slope of order one, so a single margin separates them at any window length.

A rising or falling trend is fitted once more, on the final quarter of the
window: ladder deciders read that slope (peak_inside) to detect late
turnarounds.  A flat trend needs no second fit.  So the report of -y is the
report of y with RISING and FALLING swapped and the slope negated, bit for
bit: IEEE negation commutes with every subtraction, sum, dot and division
in ls_slope (a slope of exactly zero may keep its sign, and decides no
kind).  A ladder that bounds -y reads the trends it fitted to y.

The abscissa is non-decreasing, so every window (the trailing window, its
second half and its final quarter) is a contiguous slice that starts where
searchsorted places the window's threshold; the threshold is the same float
expression a mask comparison would use, so each fit sees the same elements
in the same order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

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
    window_fraction -- trailing fraction of the abscissa range used for the fit.
    """

    margin: float = 0.05
    window_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if not (0 < self.window_fraction <= 1):
            raise ValueError("window_fraction must lie in (0, 1]")

    @cached_property
    def _full_window(self) -> "TrendPolicy":
        """This policy fitted on the whole window (window_fraction 1), built
        once per policy: the index trends take their window themselves."""
        return replace(self, window_fraction=1.0)

    @property
    def ratio_margin(self) -> float:
        """Finer threshold, half the margin, for dominance (log-ratio) trends
        and curvature comparisons inside ladder deciders."""
        return self.margin / 2


DEFAULT_POLICY = TrendPolicy()
# fewest grid points a windowed decision rests on; shorter windows abstain
MIN_WINDOW_POINTS = 16


@dataclass(frozen=True)
class TrendReport:
    """kind and slope of the trailing window; peak_inside: rising or falling
    on the window, but the final quarter does not continue that direction."""

    kind: Trend
    slope: float
    peak_inside: bool


def ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x (two or more points); 0.0 for constant x."""
    n = len(x)
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
    # a finite sum means every point is finite; a sum that is not (a NaN, an
    # infinity, or finite points whose sum overflows) takes the filter
    if not (math.isfinite(np.add.reduce(x)) and math.isfinite(np.add.reduce(y))):
        keep = np.isfinite(x) & np.isfinite(y)
        x, y = x[keep], y[keep]
    if (x[1:] < x[:-1]).any():
        raise ValueError("abscissa must be non-decreasing")
    if len(x) < 2:
        return TrendReport(Trend.FLAT, 0.0, False)
    lo, hi = float(x[0]), float(x[-1])
    k = x.searchsorted(hi - policy.window_fraction * (hi - lo), "left")
    xw, yw = (x[k:], y[k:]) if len(x) - k >= 2 else (x, y)
    slope = ls_slope(xw, yw)
    # a NaN slope clears neither margin and stays FLAT
    if not (slope > m or slope < -m):
        return TrendReport(Trend.FLAT, slope, False)
    n = len(xw)
    lo, hi = xw[0], xw[-1]
    k = xw.searchsorted(lo + 0.75 * (hi - lo), "left")
    if n - k < 2:
        # the quarter is too short: fall back to the second half, then the window
        k = xw.searchsorted(lo + 0.5 * (hi - lo), "right")
    sq = ls_slope(xw[k:], yw[k:]) if n - k >= 2 else slope
    if slope > m:
        return TrendReport(Trend.RISING, slope, sq <= 0)
    return TrendReport(Trend.FALLING, slope, sq >= 0)


def index_window(j_lo: int, j_hi: int) -> tuple[int, int]:
    """Trailing half-window of a valid index range [j_lo, j_hi] (inclusive)."""
    if j_hi < j_lo:
        raise ValueError("empty index range")
    start = j_lo + (j_hi - j_lo) // 2
    return start, j_hi
