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

Many fits share one abscissa: every rung of a comparison ladder is a suffix
of its window's grid, and every index trend of a given range regresses
against the same log j.  An Abscissa holds such an x (finite and
non-decreasing, which its maker guarantees) and, per window_fraction,
formed on first use, only scalars: the window's start, mean and centred sum
of squares, and the same three for its final quarter (or the half it falls
back to).  A grid holds the abscissa of each suffix it is read from
(grids.Grid.axis), and index_abscissa the index ranges in use.  classify
takes a bare array through the filter and the order check and then makes a
one-use Abscissa of it, so every fit runs through ls_slope.  The y side
stays per call, and so does x minus its held mean: each fit forms the same
expressions on the same slices as a fit on the bare array, into fresh
arrays, so a held abscissa gives the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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


class Abscissa:
    """A regression abscissa x, finite and non-decreasing, held for many
    fits, with the scalars of each window_fraction's two fits formed on
    first use (window, quarter).  x is not copied or checked."""

    __slots__ = ("x", "_fits")

    def __init__(self, x: np.ndarray):
        self.x = x
        # window_fraction -> (window scalars, quarter scalars: None when the
        # quarter has no fit, Ellipsis until formed)
        self._fits: dict[float, tuple] = {}

    def window(self, fraction: float) -> tuple[int, float, float]:
        """(start, mean, centred sum of squares) of the trailing window:
        the trailing `fraction` of the range, or all of x when that holds
        fewer than two points.  x holds two or more points."""
        fits = self._fits.get(fraction)
        if fits is None:
            x = self.x
            lo, hi = float(x[0]), float(x[-1])
            k = int(x.searchsorted(hi - fraction * (hi - lo), "left"))
            fits = self._fits[fraction] = (_moments(x, k if len(x) - k >= 2 else 0), ...)
        return fits[0]

    def quarter(self, fraction: float) -> tuple[int, float, float] | None:
        """(start, mean, centred sum of squares) of the window's final
        quarter, or of its second half when the quarter holds fewer than
        two points; None when that too holds fewer."""
        window = self.window(fraction)
        quarter = self._fits[fraction][1]
        if quarter is ...:
            k = window[0]
            xw = self.x[k:]
            lo, hi = xw[0], xw[-1]
            q = int(xw.searchsorted(lo + 0.75 * (hi - lo), "left"))
            if len(xw) - q < 2:
                q = int(xw.searchsorted(lo + 0.5 * (hi - lo), "right"))
            quarter = _moments(self.x, k + q) if len(xw) - q >= 2 else None
            self._fits[fraction] = (window, quarter)
        return quarter


def _moments(x: np.ndarray, k: int) -> tuple[int, float, float]:
    """(k, mean, centred sum of squares) of x[k:]: np.add.reduce(x) / n is
    the arithmetic of x.mean() and xm.dot that of np.dot, each without its
    Python wrapper."""
    xw = x[k:]
    mean = float(np.add.reduce(xw) / len(xw))
    xm = xw - mean
    return k, mean, float(xm.dot(xm))


def ls_slope(x: np.ndarray, y: np.ndarray, mean: float, ss: float) -> float:
    """Least-squares slope of y against x (two or more points), given the
    mean of x and its centred sum of squares ss; 0.0 for constant x."""
    if ss == 0.0:
        return 0.0
    return float((x - mean).dot(y - np.add.reduce(y) / len(y)) / ss)


def classify(x: np.ndarray | Abscissa, y: np.ndarray, policy: TrendPolicy,
             margin: float | None = None) -> TrendReport:
    """Classify the trailing-window trend of diagnostic y over abscissa x.

    x is an Abscissa or an array that must be non-decreasing once
    non-finite points are dropped.  The window is the trailing
    `window_fraction` of the abscissa range (not count); the
    classification margin defaults to policy.margin.
    """
    axis = x if isinstance(x, Abscissa) else None
    x = np.asarray(x, dtype=float) if axis is None else axis.x
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("abscissa and diagnostic must have equal shape")
    m = policy.margin if margin is None else margin
    # a finite sum means every point is finite; a sum that is not (a NaN, an
    # infinity, or finite points whose sum overflows) takes the filter
    if not ((axis is not None or math.isfinite(np.add.reduce(x)))
            and math.isfinite(np.add.reduce(y))):
        keep = np.isfinite(x) & np.isfinite(y)
        x, y, axis = x[keep], y[keep], None
    if axis is None:
        if (x[1:] < x[:-1]).any():
            raise ValueError("abscissa must be non-decreasing")
        axis = Abscissa(x)
    if len(x) < 2:
        return TrendReport(Trend.FLAT, 0.0, False)
    k, mean, ss = axis.window(policy.window_fraction)
    slope = ls_slope(x[k:], y[k:], mean, ss)
    # a NaN slope clears neither margin and stays FLAT
    if not (slope > m or slope < -m):
        return TrendReport(Trend.FLAT, slope, False)
    quarter = axis.quarter(policy.window_fraction)
    sq = slope
    if quarter is not None:
        k, mean, ss = quarter
        sq = ls_slope(x[k:], y[k:], mean, ss)
    if slope > m:
        return TrendReport(Trend.RISING, slope, sq <= 0)
    return TrendReport(Trend.FALLING, slope, sq >= 0)


def index_window(j_lo: int, j_hi: int) -> tuple[int, int]:
    """Trailing half-window of a valid index range [j_lo, j_hi] (inclusive)."""
    if j_hi < j_lo:
        raise ValueError("empty index range")
    start = j_lo + (j_hi - j_lo) // 2
    return start, j_hi


@lru_cache(maxsize=64)
def index_abscissa(j_lo: int, j_hi: int) -> Abscissa:
    """The abscissa log j of the index range [j_lo, j_hi] (j_lo >= 1), read-only,
    held for the 64 ranges last asked for."""
    x = np.log(np.arange(j_lo, j_hi + 1, dtype=float))
    x.flags.writeable = False
    return Abscissa(x)
