"""Associated weight of a sequence: evaluation, counting, recovery, conditions.

The associated weight of M at t > 0 is sup_j log(t^j / M_j), taken as 0 at
t = 0.  Two independent evaluation routes are kept deliberately distinct:

* sup_scan:    the literal supremum of j*x - log M_j over all stored indices;
* closed_form: the counting-function form, the same terms over the indices
  whose quotients lie within rounding of x: the counting index alone except
  where x ties with a run of (nearly) equal quotients, then the whole run.

Both routes share the bit-identical term expression j*x - P[j], so on
log-convex input they agree to the last bit, bar the sign of a zero where
terms tie at 0; they must never be collapsed into one implementation,
since their agreement is itself a checked invariant.

The scan route and both recoveries (legendre_recover here,
associated_sequence for a weight) are one discrete Legendre conjugate run in
two directions, so they share the blocked kernel ``conjugate``.  The scan
forms its terms as x*j where the closed form forms j*x; IEEE multiplication
is commutative and max is exact, so the two routes still agree bit for bit.

For non-log-convex input the closed-form route works on the log-convex
minorant (the associated weight cannot see the difference); the scan route
keeps the raw values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Grid, default_grid
from .sequence_core import WeightSequence, log_convex_minorant
from .verdicts import Verdict, fails, holds, inconclusive

OMEGA_MODES = ("closed_form", "sup_scan")
# the 2^k rungs of every exists-ladder: H in the shift-doubling condition, c in
# the dilation and power comparison ladders and in inductive membership
OM6_LADDER = tuple(float(2 ** k) for k in range(11))
OM1_LADDER = OM6_LADDER[1:]
LADDER_GRID_N = 2048
LADDER_ATOL = 1e-9
MIN_WINDOW_SPAN = 0.05

SCAN_CHUNK = 512


# ---------------------------------------------------------------------------
# associated weight object
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AssociatedWeight:
    """Associated weight of a sequence, evaluated in the log domain."""

    source: WeightSequence

    @cached_property
    def hull(self) -> WeightSequence:
        return log_convex_minorant(self.source)

    @cached_property
    def knots(self) -> np.ndarray:
        """log mu_j of the log-convex minorant; non-decreasing for j >= 1."""
        return self.hull.quotient_array

    @property
    def log_mu_max(self) -> float:
        """End of the faithful range: beyond the last quotient the truncated
        supremum freezes at the top index while the true weight keeps growing."""
        return float(self.knots[-1])

    def omega_log(self, x, mode: str = "closed_form") -> np.ndarray:
        """Associated weight at t = exp(x), for scalar or array x."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(xs).all():
            raise ValueError("associated weight needs finite log t")
        if mode == "sup_scan":
            P = self.source.log_values
            out = conjugate(xs, np.arange(len(P), dtype=float), P)
        elif mode == "closed_form":
            out = _closed_form(self.hull.log_values, self.knots, xs)
        else:
            raise ValueError(f"unknown mode {mode!r}; expected one of {OMEGA_MODES}")
        return out if np.ndim(x) else out[0]

    def omega(self, t, mode: str = "closed_form") -> np.ndarray:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((ts >= 0) & (ts < np.inf)):
            raise ValueError("t must be finite and non-negative")
        out = np.zeros_like(ts)
        pos = ts > 0
        if np.any(pos):
            out[pos] = self.omega_log(np.log(ts[pos]), mode=mode)
        return out if np.ndim(t) else out[0]

    def counting(self, t) -> np.ndarray:
        """Number of quotients mu_j <= t (j >= 1); the local growth exponent.

        t = inf counts every quotient: legendre_recover passes exp of a grid
        end that may overflow."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all(ts >= 0):
            raise ValueError("t must be non-negative")
        out = np.zeros(ts.shape, dtype=int)
        pos = ts > 0
        if np.any(pos):
            out[pos] = np.searchsorted(self.knots[1:], np.log(ts[pos]), side="right")
        return out if np.ndim(t) else out[0]


def conjugate(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Discrete Legendre conjugate: out[i] = max_k (a[i] * b[k] - c[k]).

    The rows of a go through in blocks of SCAN_CHUNK in one reused work
    array of at most SCAN_CHUNK * len(b) terms (a fresh array per block
    would be mapped and faulted in anew once it outgrows the heap).
    """
    out = np.empty(len(a))
    buf = np.empty((min(SCAN_CHUNK, len(a)), len(b)))
    for lo in range(0, len(a), SCAN_CHUNK):
        blk = a[lo:lo + SCAN_CHUNK]
        terms = np.multiply.outer(blk, b, out=buf[:len(blk)])
        terms -= c
        out[lo:lo + SCAN_CHUNK] = terms.max(axis=1)
    return out


def _closed_form(P: np.ndarray, knots: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Max of j*x - P[j] over the indices that can win it in float.

    Rounding of the term expression (and of the quotients against the
    differences of P) stays below tie = 4 eps (J max|x| + max|P|).  With q
    the log quotients, the terms rise by more than that up to
    a = #{q < x - tie} and fall by more than that past b = #{q <= x + tie},
    so the float maximum over all indices is the maximum over [a, b].  The
    counting index lies in that window, and b = a unless a quotient lies
    within tie of x; those few points fold in a+1..b in one ragged gather.

    a and b are counted by one search per point, or, when the points are
    sorted and outnumber the quotients, by placing each quotient among the
    points (xs - tie and xs + tie stay sorted, since rounding is monotone)
    and summing the placements: the same comparisons, so the same integers.
    """
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
    return out


def omega_eval(M: WeightSequence, t, mode: str = "closed_form"):
    return AssociatedWeight(M).omega(t, mode=mode)


def counting(M: WeightSequence, t):
    return AssociatedWeight(M).counting(t)


# ---------------------------------------------------------------------------
# Legendre-type recovery
# ---------------------------------------------------------------------------

def legendre_recover(omega: AssociatedWeight, J: int, grid: Grid | None = None,
                     safety: float = 0.5) -> WeightSequence:
    """Recover M_j = sup_t t^j / exp(omega(t)) on the grid, for j = 0..J.

    The grid is augmented with the quotient knots, which makes the recovery
    exact on the faithful range.  Indices beyond safety * (counting at the
    grid end) are grid-limited underestimates; a warning is emitted when J
    exceeds that cap.  (A Weight recovers its sequence through
    weight_functions.associated_sequence.)
    """
    if grid is None:
        grid = default_grid()
    x = grid.augment(omega.knots[1:]).log_t
    k_end = float(omega.counting(np.exp(x[-1])))
    label = f"recovered({omega.source.label})" if omega.source.label else "recovered"
    j_reliable = int(np.floor(max(0.0, k_end) * safety))
    if J > j_reliable:
        warnings.warn(f"recovery requested up to j={J} but the grid only "
                      f"supports j<={j_reliable}; higher indices are "
                      f"grid-limited underestimates", stacklevel=2)
    vals = conjugate(np.arange(J + 1, dtype=float), x, omega.omega_log(x))
    clamped = bool(vals[0] != 0.0)
    vals[0] = 0.0
    return WeightSequence(vals, label=label,
                          meta={"reliable_max_index": j_reliable,
                                "origin_clamped": clamped})


# ---------------------------------------------------------------------------
# doubling-condition ladders (shared by sequence and weight front ends)
# ---------------------------------------------------------------------------

def om6_ladder(omega_log, x_hi: float, H_values=OM6_LADDER,
               n: int = LADDER_GRID_N, atol: float = LADDER_ATOL) -> Verdict:
    """Exists H >= 1 with 2*omega(t) <= omega(H t) + H on t >= 1.

    Each rung is checked on the geometric window [1, t_hi / H] so every
    evaluation stays inside the faithful range [0, x_hi] in the log domain.
    Holds at the smallest clean rung; Fails when every evaluable rung shows a
    violation, with one witness point per rung.
    """
    violations: list[tuple[float, float]] = []
    skipped: list[float] = []
    evaluated = 0
    for H in H_values:
        span = x_hi - np.log(H)
        if span <= MIN_WINDOW_SPAN:
            skipped.append(H)
            continue
        evaluated += 1
        x = np.linspace(0.0, span, n)
        excess = 2.0 * omega_log(x) - omega_log(x + np.log(H)) - H
        k = int(np.argmax(excess))
        if excess[k] <= atol:
            return holds(witnesses={"H": float(H), "max_excess": float(excess[k])},
                         evidence=((float(x[k]), float(excess[k])),),
                         note=f"clean at H={H:g}; evidence is (log t, excess) "
                              f"for log t in [0,{span:.6g}]")
        violations.append((float(H), float(x[k])))
    if evaluated == 0:
        return inconclusive("faithful range too short for any rung")
    note = "violation on every evaluable rung; evidence is (H, log t)"
    if skipped:
        note += f" (window too short for H >= {min(skipped):g})"
    return fails(evidence=tuple(violations), note=note)


def om1_ladder(omega_log, x_hi: float, L_values=OM1_LADDER,
               n: int = LADDER_GRID_N, atol: float = LADDER_ATOL) -> Verdict:
    """Exists L with omega(2t) <= L * (omega(t) + 1) on t >= 1."""
    span = x_hi - np.log(2.0)
    if span <= MIN_WINDOW_SPAN:
        return inconclusive("faithful range too short for the doubling window")
    x = np.linspace(0.0, span, n)
    violations: list[tuple[float, float]] = []
    w_x = None
    w_2x = None
    for L in L_values:
        if w_x is None:
            w_x = omega_log(x)
            w_2x = omega_log(x + np.log(2.0))
        excess = w_2x - L * (w_x + 1.0)
        k = int(np.argmax(excess))
        if excess[k] <= atol:
            return holds(witnesses={"L": float(L), "max_excess": float(excess[k])},
                         evidence=((float(x[k]), float(excess[k])),),
                         note=f"clean at L={L:g}; evidence is (log t, excess) "
                              f"for log t in [0,{span:.6g}]")
        violations.append((float(L), float(x[k])))
    return fails(evidence=tuple(violations),
                 note=f"violation at every L <= {L_values[-1]:g}; "
                      "evidence is (L, log t)")


def check_om6_omega(M: WeightSequence, n: int = LADDER_GRID_N) -> Verdict:
    """Doubling-with-shift condition read off the associated weight of M."""
    aw = AssociatedWeight(M)
    return om6_ladder(aw.omega_log, aw.log_mu_max, n=n)


def check_om1_omega(M: WeightSequence, n: int = LADDER_GRID_N) -> Verdict:
    """Multiplicative doubling condition read off the associated weight of M."""
    aw = AssociatedWeight(M)
    return om1_ladder(aw.omega_log, aw.log_mu_max, n=n)
