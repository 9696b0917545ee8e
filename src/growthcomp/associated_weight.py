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
index, formed only over the band of indices that a bound from the ends of
each block of SCAN_ROWS rows does not prove lose at every row of the block
(about 3% of the dense terms for gevrey(1, 4096) on the default grid), in
one work array of at most SCAN_CELLS cells.  The band reads only the call's
own arrays (no hull, quotient, counting or closed form), so the two routes
stay independent.  The scan forms its terms as x*j where the closed form
forms j*x; IEEE multiplication is commutative and max is exact, so the two
routes still agree bit for bit.  A sequence weight is recovered by
``recover``: the same terms over one window per index, where only the knots
of omega can win, bit for bit the dense kernel (the discrete, exact form of
Lucet's linear-time Legendre transform).

For non-log-convex input the closed-form route works on the log-convex
minorant (the associated weight cannot see the difference); the scan route
keeps the raw values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# cells of one block of a kernel (512 KB), so that it stays in cache: twice
# conjugate's work array (numpy may buffer its narrow bands in the rest) and
# one group of the series kernel's band bounds
SCAN_CELLS = 1 << 16
# rows of one block of conjugate, which share one band of columns
SCAN_ROWS = 128


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

    def _hold_on(self, xs: np.ndarray) -> None:
        """Hold closed-form omega on xs, the held grid of a partner sequence,
        in this sequence's one partner slot (read-only), unless the slot
        holds xs already; the next partner's grid replaces it.  Only a
        comparison window fills it (weight_functions._window), so both
        bridges of a pair evaluate their window once."""
        held = vars(self).get("_partner")
        if held is None or held[0] is not xs:
            # x + 0.0, as Weight.omega_log evaluates an undilated weight
            out = self.omega_log(xs + 0.0)
            out.flags.writeable = False
            # the dataclass is frozen: the slot goes where cached properties go
            vars(self)["_partner"] = (xs, out)

    def _held(self, xs: np.ndarray) -> np.ndarray | None:
        """Closed-form omega held on the points xs (the same array), or None:
        grid_omega on this sequence's own grid once built, the partner slot
        on the grid it was filled on."""
        grid = vars(self).get("grid")
        if grid is not None and xs is grid.log_t:
            return self.grid_omega
        held = vars(self).get("_partner")
        return held[1] if held is not None and held[0] is xs else None

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
    of columns per block of SCAN_ROWS rows.  With a_lo, a_hi the ends of a
    block and t_end = a_end * b - c, each column k is bounded against the
    columns m in {m_lo, m_hi} that win the two ends:

        bound_k = min_m max(t_lo[k] - t_lo[m], t_hi[k] - t_hi[m]).

    The gap a * (b[k] - b[m]) - (c[k] - c[m]) is linear in a, so its larger
    end value bounds it on the block, and rho = 8 eps (max|c| + max|b|
    max|a|) covers the rounding of the terms and of the bound (the argument
    of spaces._band_cuts): a column with bound_k < -rho lies under column m
    at every row of the block, so it holds no row maximum, not even a tied
    one.  The block scans the columns from the first to the last with
    bound_k >= -rho.  max is exact, so each row maximum is the dense one,
    bar the sign of a zero where terms tie at 0: a row whose banded maximum
    is +-0.0 and ties with another zero of its band is taken again over its
    full row, as the dense kernel reduces it.  Every column is kept when rho
    or a block's bound is not finite (a term that overflows, say), when the
    four bound rows do not fit the work array, and on at most four rows,
    where the bound rows cost what the terms do.

    One work array of max(SCAN_CELLS // 2, len(b)) cells holds a block's
    bound rows (t_lo, t_hi and two gap rows) and then its terms, in runs of
    as many rows as fit beside the band's width; numpy may buffer the terms
    of a narrow band in up to about 128 KB more.
    """
    n = len(b)
    out = np.empty(len(a))
    # Python floats: a product that overflows is inf, with no warning
    rho = 8.0 * np.finfo(float).eps * (_abs_max(c) + _abs_max(b) * _abs_max(a))
    work = np.empty(max(SCAN_CELLS // 2, n))
    banded = len(a) > 4 and 4 * n <= len(work) and np.isfinite(rho)
    starts = np.arange(0, len(a), SCAN_ROWS)
    ends = zip(np.minimum.reduceat(a, starts).tolist(),
               np.maximum.reduceat(a, starts).tolist())
    for lo, (a_lo, a_hi) in zip(starts.tolist(), ends):
        blk = a[lo:lo + SCAN_ROWS]
        k0, k1 = _band(a_lo, a_hi, b, c, rho, work) if banded else (0, n)
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


def _abs_max(v: np.ndarray) -> float:
    return float(max(v.max(initial=0.0), -v.min(initial=0.0)))


def _band(a_lo: float, a_hi: float, b: np.ndarray, c: np.ndarray, rho: float,
          work: np.ndarray) -> tuple[int, int]:
    """Columns [k0, k1) of conjugate's band for a block with ends a_lo, a_hi:
    the first to the last column with bound >= -rho, or every column when
    the bound is not finite.  Its four rows are the first 4 len(b) cells of
    work; the differences of overflowed ends warn nothing the terms do not."""
    n = len(b)
    t_lo, t_hi, g, h = work[:4 * n].reshape(4, n)
    with np.errstate(all="ignore"):
        np.multiply(b, a_lo, out=t_lo)
        t_lo -= c
        np.multiply(b, a_hi, out=t_hi)
        t_hi -= c
        m_lo, m_hi = t_lo.argmax(), t_hi.argmax()
        np.subtract(t_lo, t_lo[m_lo], out=g)
        np.subtract(t_hi, t_hi[m_lo], out=h)
        np.maximum(g, h, out=g)
        if m_hi != m_lo:
            np.subtract(t_lo, t_lo[m_hi], out=h)
            t_hi -= t_hi[m_hi]
            np.maximum(h, t_hi, out=h)
            np.minimum(g, h, out=g)
    # argmin finds a NaN first: a NaN would compare false below and cut
    # the band by accident
    if not np.isfinite(g[g.argmin()]):
        return 0, n
    keep = g >= -rho
    return int(keep.argmax()), n - int(keep[::-1].argmax())


def _ranges(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The runs arange(s, s + w) over the pairs of starts and widths, end to end."""
    return np.repeat(starts - (np.cumsum(widths) - widths), widths) + np.arange(widths.sum())


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

    a and b are counted by one search per point, or, when the points are
    sorted and outnumber the quotients, from where each quotient falls
    among the points: quotient k lies in the windows of the points
    [pb_k, pa_k), with pb_k = #{xs + tie < q_k} and pa_k = #{xs - tie <= q_k}
    (xs - tie and xs + tie stay sorted, since rounding is monotone).  a is
    the running count of the pa_k: the same comparisons as the search, so
    the same integers.  b - a at point i counts the k with
    pb_k <= i < pa_k, which are a+1..b since q is sorted; so b is never
    formed, and each quotient with pb_k < pa_k folds into its points
    instead: one expansion, over the few quotients within tie of a point.
    The largest |x| of sorted points is at one of the two ends.
    """
    J = len(P) - 1
    q = knots[1:]
    n = len(xs)
    ordered = n > J and not (xs[1:] < xs[:-1]).any()
    x_abs = max(abs(xs[0]), abs(xs[-1])) if ordered else np.abs(xs).max(initial=0.0)
    tie = 4.0 * np.finfo(float).eps * (J * float(x_abs) + float(np.abs(P).max()))
    # near: the quotients within tie of a point (sorted points) or the
    # points within tie of a quotient (one search per point)
    if ordered:
        pa = (xs - tie).searchsorted(q, "right")
        pb = (xs + tie).searchsorted(q, "left")
        a = np.bincount(pa, minlength=n + 1)[:n].cumsum()
        near = np.flatnonzero(pb < pa)
        width = pa[near] - pb[near]
    else:
        a = q.searchsorted(xs - tie, "left")
        b = q.searchsorted(xs + tie, "right")
        near = np.flatnonzero(b > a)
        width = b[near] - a[near]
    out = a.astype(float) * xs - P[a]
    if len(near):
        if ordered:
            i, j = _ranges(pb[near], width), np.repeat(near + 1, width)
        else:
            i, j = np.repeat(near, width), _ranges(a[near] + 1, width)
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
