"""Evaluation grids for weights, stored in the log-t domain.

All weight evaluation in this package happens at log t: the interesting
sequences have knots up to 2^1023, far beyond linear-domain float range, and
geometric grids are uniform in log t, which is also the natural regression
abscissa for the trend tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trend import Abscissa

# the default sampling grid: every comparison, inclusion, membership and
# probe check samples it
T_MIN = 1e-3
T_MAX = 1e9
GRID_N = 4096


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing finite evaluation points in log t."""

    log_t: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.log_t, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("grid points must be strictly increasing")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_t", arr)

    def __len__(self) -> int:
        return len(self.log_t)

    def axis(self, start: int = 0) -> Abscissa:
        """The regression abscissa log_t[start:], held on this grid from its
        first use, so every fit on that suffix shares its window scalars."""
        held = vars(self).setdefault("_axes", {})
        axis = held.get(start)
        if axis is None:
            axis = held[start] = Abscissa(self.log_t[start:])
        return axis

    @staticmethod
    def geometric(t_min: float, t_max: float, n: int) -> "Grid":
        # checked here so that log never sees t <= 0
        if not (t_min > 0 and t_max > t_min):
            raise ValueError("need 0 < t_min < t_max")
        return Grid.geometric_log(np.log(t_min), np.log(t_max), n)

    @staticmethod
    def geometric_log(x_lo: float, x_hi: float, n: int) -> "Grid":
        return Grid(np.linspace(x_lo, x_hi, n))

    def augment(self, knots_log: np.ndarray) -> "Grid":
        """Union with the given log-knots that lie in [log_t[0], log_t[-1]].

        Knot augmentation makes suprema over the grid exact at the points where
        a sequence-backed weight attains its Legendre extremes.
        """
        knots = np.asarray(knots_log, dtype=float)
        knots = knots[(knots >= self.log_t[0]) & (knots <= self.log_t[-1])]
        return Grid(np.union1d(self.log_t, knots))

    def clip(self, x_lo: float | None = None, x_hi: float | None = None) -> "Grid | None":
        """Sub-grid inside [x_lo, x_hi]; None if fewer than two points remain."""
        pts = self.log_t
        if x_lo is not None:
            pts = pts[pts >= x_lo]
        if x_hi is not None:
            pts = pts[pts <= x_hi]
        if len(pts) < 2:
            return None
        return Grid(pts)


_DEFAULT_GRID = Grid.geometric(T_MIN, T_MAX, GRID_N)


def default_grid() -> Grid:
    """The default grid, built once: a Grid is frozen and its points read-only."""
    return _DEFAULT_GRID


def _span_grid(x_hi: float) -> Grid | None:
    """The comparison grid of a faithful span that ends at x_hi.

    The faithful span of a sequence-backed weight routinely extends far past
    the default grid's top (log mu grows linearly in the index for q-type
    sequences), and the decisive crossovers of slowly separating pairs live
    out there.  So past the top the span is sampled in full at the default
    grid's resolution, GRID_N points from its first point to x_hi; below
    the top, it is the default grid clipped at x_hi.  None when fewer than
    two points remain.  Its points are linspace points, so none is -0.0.
    """
    g = default_grid()
    if x_hi <= float(g.log_t[-1]):
        return g.clip(None, x_hi)
    return Grid.geometric_log(float(g.log_t[0]), x_hi, len(g))
