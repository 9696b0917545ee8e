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
two directions.  The scan, and the recovery of a weight that is not a
(dilated) sequence weight, take ``conjugate``: the dense maximum over every
index, formed over the bands of the kernel it shares with the series sum
(_kernel), about 3% of the dense terms for gevrey(1, 4096) on the default
grid.  The bands read only the call's own arrays (no hull, quotient,
counting or closed form), so the two routes stay independent.  The scan
forms its terms as x*j where the closed form forms j*x; IEEE multiplication
is commutative and max is exact, so the two routes still agree bit for bit.
A sequence weight is recovered by ``recover``: the same terms over one
window per index, where only the knots of omega can win, bit for bit the
dense kernel (the discrete, exact form of Lucet's linear-time Legendre
transform).

For non-log-convex input the closed-form route works on the log-convex
minorant (the associated weight cannot see the difference); the scan route
keeps the raw values.

On sorted points the closed form comes in two stages: its counting runs
(_runs: for each index j, how many consecutive points have j as their
counting index, plus the few near-tie folds; integers only) and their
expansion (_expand: j*x - P[j] run by run, then the folds).  The runs fix
every index of every term, so a replay of held runs on the same points
forms the same terms in the same order: the same bits, signed zeros
included.  The partner slot and the dilation-rung slots of an
AssociatedWeight hold runs, about 2 (J + 1) bytes each, against 8 bytes per
point for floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernel import SCAN_CELLS, SCAN_ROWS, _ranges, band, margin
from .grids import Grid, _span_grid, default_grid
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
LOG2 = float(np.log(2))
# share of the grid-supported index range a recovery reports as reliable
RELIABLE_FRACTION = 0.5

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

    @cached_property
    def grid(self) -> Grid | None:
        """Comparison grid of the faithful span (grids._span_grid), built on
        first use: every comparison whose shortest span is this undilated
        weight's samples it (weight_functions._comparison_grid)."""
        return _span_grid(self.log_mu_max)

    @cached_property
    def grid_omega(self) -> np.ndarray:
        """Closed-form omega on grid, evaluated once; read-only."""
        out = self.omega_log(self.grid.log_t)
        out.flags.writeable = False
        return out

    def _runs_on(self, xs: np.ndarray) -> tuple:
        """The runs (_runs) of closed-form omega at the points xs of a grid
        (or a suffix of one, moved by a shift), width held as uint16: a run
        holds at most len(xs) <= GRID_N points."""
        width, i, j = _runs(self.hull.log_values, self.knots, xs)
        return width.astype(np.uint16), i, j

    def _hold_on(self, xs: np.ndarray) -> None:
        """Hold the runs of closed-form omega on xs, the held grid of a
        partner sequence, in this sequence's one partner slot, unless the
        slot holds xs already; the next partner's grid replaces it.  Only a
        comparison window fills it (weight_functions._window), so both
        bridges of a pair form their window's runs once."""
        held = vars(self).get("_partner")
        if held is None or held[0] is not xs:
            # the dataclass is frozen: the slot goes where cached properties go
            vars(self)["_partner"] = (xs, self._runs_on(xs))

    def _held(self, xs: np.ndarray) -> np.ndarray | None:
        """Closed-form omega held on the points xs (the same array), or None:
        grid_omega on this sequence's own grid once built (read-only), the
        expansion of the partner slot's runs on the grid it was filled on
        (a new array; a grid holds no -0.0, so it is omega at xs + 0.0, as
        Weight.omega_log evaluates an undilated weight, bit for bit)."""
        grid = vars(self).get("grid")
        if grid is not None and xs is grid.log_t:
            return self.grid_omega
        held = vars(self).get("_partner")
        if held is None or held[0] is not xs:
            return None
        return _expand(self.hull.log_values, xs, held[1])

    def _rung(self, c: float, start: int) -> np.ndarray:
        """Closed-form omega at grid.log_t[start:] + log c (the dilation
        rung c < 1 of the undilated weight on its own grid), bit for bit
        omega_log there, in a new array.  Each rung's slot holds the runs
        of its points from the start last asked for, formed on first use
        and expanded on every read; a new start replaces them."""
        xs = self.grid.log_t[start:] + float(np.log(c))
        slots = vars(self).setdefault("_rungs", {})
        held = slots.get(c)
        if held is None or held[0] != start:
            held = slots[c] = (start, self._runs_on(xs))
        return _expand(self.hull.log_values, xs, held[1])

    def _probe(self, c: float, make):
        """The dilation probe c of this sequence (special_functions.theta_series),
        made by make() on first use and held in its slot, with the window
        it holds once read (spaces.PowerSeries._window)."""
        slots = vars(self).setdefault("_probes", {})
        f = slots.get(c)
        if f is None:
            f = slots[c] = make()
        return f

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
        """Number of quotients mu_j <= t (j >= 1); the local growth exponent."""
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

    Bit for bit the dense maximum over every column, formed over one band
    of columns per block of SCAN_ROWS rows (_kernel.band under the rho of
    _kernel.margin, whose proof says that no column outside it holds a row
    maximum, not even a tied one).  max is exact, so each row maximum is
    the dense one, bar the sign of a zero where terms tie at 0: a row whose
    banded maximum is +-0.0 and ties with another zero of its band is taken
    again over its full row, as the dense kernel reduces it.  Every column
    is kept when rho or a block's bound is not finite (a term that
    overflows, say), when four bound rows do not fit the work array, and on
    at most four rows, where the bound rows cost what the terms do.

    One work array of max(SCAN_CELLS // 2, len(b)) cells holds the bound
    rows of as many blocks as fit, and then the terms of a block, in runs of
    as many rows as fit beside the band's width; numpy may buffer the terms
    of a narrow band in up to about 128 KB more.
    """
    n = len(b)
    out = np.empty(len(a))
    rho = margin(a, b, c)
    work = np.empty(max(SCAN_CELLS // 2, n))
    starts = np.arange(0, len(a), SCAN_ROWS)
    cols = np.repeat([[0], [n]], len(starts), axis=1)
    if len(a) > 4 and 4 * n <= len(work) and np.isfinite(rho):
        a_lo, a_hi = np.minimum.reduceat(a, starts), np.maximum.reduceat(a, starts)
        group = len(work) // (4 * n)
        for g in range(0, len(starts), group):
            cols[:, g:g + group] = band(a_lo[g:g + group], a_hi[g:g + group], b, c, rho, work)
    for lo, k0, k1 in zip(starts.tolist(), *cols.tolist()):
        blk = a[lo:lo + SCAN_ROWS]
        rows = max(1, len(work) // (k1 - k0))
        for r in range(0, len(blk), rows):
            sub = blk[r:r + rows]
            m = out[lo + r:lo + r + len(sub)]
            terms = work[:len(sub) * (k1 - k0)].reshape(len(sub), k1 - k0)
            np.multiply.outer(sub, b[k0:k1], out=terms)
            terms -= c[k0:k1]
            terms.max(axis=1, out=m)
            if k1 - k0 < n and (m == 0.0).any():
                # zeros that tie give either sign, by the order of reduction
                tied = (m == 0.0) & (np.count_nonzero(terms == 0.0, axis=1) > 1)
                for i in np.flatnonzero(tied).tolist():
                    row = np.multiply(sub[i], b, out=work[:n])
                    row -= c
                    m[i] = row.max()
    return out


def _closed_form(P: np.ndarray, knots: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Max of j*x - P[j] over the indices that can win it in float.

    Rounding of the term expression (and of the quotients against the
    differences of P) stays below tie = 4 eps (J max|x| + max|P|).  With q
    the log quotients, the terms rise by more than that up to
    a = #{q < x - tie} and fall by more than that past b = #{q <= x + tie},
    so the float maximum over all indices is the maximum over [a, b].  The
    counting index lies in that window, and b = a unless a quotient lies
    within tie of x; those few points fold in a+1..b in one ragged gather,
    each point's indices in rising order.

    When the points are sorted and outnumber the quotients, a and the folds
    come as counting runs (_runs) and omega is their expansion (_expand);
    otherwise a and b are counted by one search per point.
    """
    J = len(P) - 1
    if len(xs) > J and not (xs[1:] < xs[:-1]).any():
        return _expand(P, xs, _runs(P, knots, xs))
    q = knots[1:]
    tie = 4.0 * np.finfo(float).eps * (J * float(np.abs(xs).max(initial=0.0))
                                       + float(np.abs(P).max()))
    a = q.searchsorted(xs - tie, "left")
    b = q.searchsorted(xs + tie, "right")
    near = np.flatnonzero(b > a)
    out = a.astype(float) * xs - P[a]
    if len(near):
        width = b[near] - a[near]
        i, j = np.repeat(near, width), _ranges(a[near] + 1, width)
        np.maximum.at(out, i, j.astype(float) * xs[i] - P[j])
    return out


def _runs(P: np.ndarray, knots: np.ndarray, xs: np.ndarray) -> tuple:
    """The counting runs of closed-form omega at the sorted points xs:
    (width, i, j), with width[j] the number of points whose counting index
    a is j (j = 0..J, so the runs lie end to end in index order), and the
    folds (i, j): index j folds into point i, for the few points within tie
    of quotient j.  _expand(P, xs, runs) is _closed_form(P, knots, xs) bit
    for bit, for any number of sorted points.

    The runs come from where each quotient falls among the points:
    quotient k lies in the windows of the points [pb_k, pa_k), with
    pb_k = #{xs + tie < q_k} and pa_k = #{xs - tie <= q_k} (xs - tie and
    xs + tie stay sorted, since rounding is monotone).  a at point i counts
    the k with pa_k <= i: the same comparisons as the search per point, so
    the same integers, and run j spans the points [pa_j, pa_{j+1}) (pa_0 = 0,
    pa_{J+1} = len(xs)).  b - a at point i counts the k with
    pb_k <= i < pa_k, which are a+1..b since q is sorted; so b is never
    formed, and each quotient with pb_k < pa_k folds into its points
    instead, each point's indices in rising order as the search folds them.
    The largest |x| of sorted points is at one of the two ends, so tie is
    the search's.
    """
    J = len(P) - 1
    q = knots[1:]
    x_abs = max(abs(xs[0]), abs(xs[-1])) if len(xs) else 0.0
    tie = 4.0 * np.finfo(float).eps * (J * float(x_abs) + float(np.abs(P).max()))
    pa = (xs - tie).searchsorted(q, "right")
    pb = (xs + tie).searchsorted(q, "left")
    width = np.append(pa, len(xs))
    width[1:] -= pa
    near = np.flatnonzero(pb < pa)
    if not len(near):
        return width, near, near
    fold = pa[near] - pb[near]
    return width, _ranges(pb[near], fold), np.repeat(near + 1, fold)


def _expand(P: np.ndarray, xs: np.ndarray, runs: tuple) -> np.ndarray:
    """Closed-form omega at the sorted points xs from their runs (_runs):
    j*x - P[j] at each point of run j, formed in place as the search forms
    a*x - P[a] (the same two roundings), then the folds, in a new array."""
    width, i, j = runs
    out = np.arange(len(P), dtype=float).repeat(width)
    out *= xs
    out -= P.repeat(width)
    if len(i):
        np.maximum.at(out, i, j.astype(float) * xs[i] - P[j])
    return out


def recover(J: int, x: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Legendre conjugate of a sequence's omega, bit for bit the dense
    conjugate(arange(J + 1), x, w): out[j] = max_i (j*x[i] - w[i]).

    x is sorted, w = omega(x), and q holds the non-decreasing log quotients
    q_1..q_{J_hull} of the log-convex minorant behind omega, in the
    coordinates of x; x holds every q_k that lies in [x[0], x[-1]].  Omega
    has slope k on [q_k, q_{k+1}], so f_j = j*x - omega rises at least 1
    per unit left of q_j and falls at least 1 per unit right of q_{j+1}:
    over the points, its exact maximum sits in the span [q_j, q_{j+1}]
    clipped to [x[0], x[-1]], and at each clipped end of that span there is
    a point (a knot or a grid end).  Rounding of a term (of j*x, of w and of
    the difference), and the gap between a stored quotient and the breakpoint
    of the float omega, stay below rho = 4 eps (max(J, J_hull) max|x| +
    max|w|).  A point more than m = 4 rho outside the span thus lies more
    than 2 rho under the exact maximum, so its float term is under the float
    term of a point in the span: out[j] is the maximum over the points within
    m of the span, one searchsorted window.  Rows past J_hull rise
    everywhere; their span is the grid end.

    The windows of consecutive rows meet only at a shared knot (and within
    m of it), so the ragged gather holds about len(x) + J terms, reduced by
    np.maximum.reduceat, against (J + 1) * len(x) for the dense kernel.
    Row 0 keeps the full row: a window gives the same zero maximum there,
    but may give it as -0.0 where the full row gives 0.0.
    """
    eps = np.finfo(float).eps
    rho = 4.0 * eps * (max(J, len(q)) * float(np.abs(x).max())
                       + float(np.abs(w).max()))
    m = 4.0 * rho
    ends = np.full(J + 1, x[-1])
    ends[:min(J + 1, len(q))] = np.clip(q[:J + 1], x[0], x[-1])
    lo = x.searchsorted(ends[:-1] - m, "left")
    hi = x.searchsorted(ends[1:] + m, "right")
    width = hi - lo
    i = _ranges(lo, width)
    js = np.repeat(np.arange(1, J + 1, dtype=float), width)
    out = np.empty(J + 1)
    out[0] = conjugate(np.zeros(1), x, w)[0]
    out[1:] = np.maximum.reduceat(js * x[i] - w[i], np.cumsum(width) - width)
    return out


# ---------------------------------------------------------------------------
# Legendre-type recovery
# ---------------------------------------------------------------------------

def legendre_recover(omega: AssociatedWeight, J: int) -> WeightSequence:
    """Recover M_j = sup_t t^j / exp(omega(t)) on the default grid, for j = 0..J.

    The grid is augmented with the quotient knots, which makes the recovery
    exact on the faithful range.  Indices beyond RELIABLE_FRACTION *
    (counting at the grid end) are grid-limited underestimates; a warning is
    emitted when J exceeds that cap.  (A Weight recovers its sequence through
    weight_functions.associated_sequence.)
    """
    x = default_grid().augment(omega.knots[1:]).log_t
    k_end = float(omega.counting(np.exp(x[-1])))
    label = f"recovered({omega.source.label})" if omega.source.label else "recovered"
    j_reliable = int(np.floor(max(0.0, k_end) * RELIABLE_FRACTION))
    if J > j_reliable:
        warnings.warn(f"recovery requested up to j={J} but the grid only "
                      f"supports j<={j_reliable}; higher indices are "
                      f"grid-limited underestimates", stacklevel=2)
    vals = recover(J, x, omega.omega_log(x), omega.knots[1:])
    vals[0] = 0.0
    return WeightSequence(vals, label=label, meta={"reliable_max_index": j_reliable})


# ---------------------------------------------------------------------------
# doubling-condition ladders (shared by sequence and weight front ends)
# ---------------------------------------------------------------------------

def om6_ladder(omega_log, x_hi: float) -> Verdict:
    """Exists H >= 1 with 2*omega(t) <= omega(H t) + H on t >= 1.

    Each rung is checked on the geometric window [1, t_hi / H] so every
    evaluation stays inside the faithful range [0, x_hi] in the log domain.
    Holds at the smallest clean rung; Fails when every evaluable rung shows a
    violation, with one witness point per rung.
    """
    violations: list[tuple[float, float]] = []
    skipped: list[float] = []
    evaluated = 0
    for H in OM6_LADDER:
        span = x_hi - np.log(H)
        if span <= MIN_WINDOW_SPAN:
            skipped.append(H)
            continue
        evaluated += 1
        x = np.linspace(0.0, span, LADDER_GRID_N)
        excess = 2.0 * omega_log(x) - omega_log(x + np.log(H)) - H
        k = int(np.argmax(excess))
        if excess[k] <= LADDER_ATOL:
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


def om1_ladder(omega_log, x_hi: float) -> Verdict:
    """Exists L with omega(2t) <= L * (omega(t) + 1) on t >= 1."""
    span = x_hi - LOG2
    if span <= MIN_WINDOW_SPAN:
        return inconclusive("faithful range too short for the doubling window")
    x = np.linspace(0.0, span, LADDER_GRID_N)
    w_x = omega_log(x)
    w_2x = omega_log(x + LOG2)
    violations: list[tuple[float, float]] = []
    for L in OM1_LADDER:
        excess = w_2x - L * (w_x + 1.0)
        k = int(np.argmax(excess))
        if excess[k] <= LADDER_ATOL:
            return holds(witnesses={"L": float(L), "max_excess": float(excess[k])},
                         evidence=((float(x[k]), float(excess[k])),),
                         note=f"clean at L={L:g}; evidence is (log t, excess) "
                              f"for log t in [0,{span:.6g}]")
        violations.append((float(L), float(x[k])))
    return fails(evidence=tuple(violations),
                 note=f"violation at every L <= {OM1_LADDER[-1]:g}; "
                      "evidence is (L, log t)")


def check_om6_omega(M: WeightSequence) -> Verdict:
    """Doubling-with-shift condition read off the associated weight of M."""
    aw = M.associated_weight
    return om6_ladder(aw.omega_log, aw.log_mu_max)


def check_om1_omega(M: WeightSequence) -> Verdict:
    """Multiplicative doubling condition read off the associated weight of M."""
    aw = M.associated_weight
    return om1_ladder(aw.omega_log, aw.log_mu_max)
