"""Decreasing weight functions on (0, inf), handled in the log domain.

A weight v is stored through omega = -log v as a function of x = log t, as
plain data: a base (the associated weight of a sequence, or a table of
omega against log t) plus a dilation shift, a power scale and an optional
normalization offset, evaluated as

    omega(x) = max(0, scale * base(x + shift) - offset).

Dilation adds log c to the shift (and shrinks the faithful range by the same
amount), power rescaling multiplies the scale, normalization sets the offset.
The end of the faithful range and the knots of omega follow from the base
and the shift; comparison windows are clipped at that end so that sequence
truncation or table ends never masquerade as asymptotics.

The comparison ladders classify each rung from two views of the same window:
the difference diagnostic d (the quantity the claim bounds or sends to
infinity) and the race between the rung's drag and the baseline gap of the
undilated family member.  A rung whose visible trend is drag-driven while
the baseline wins the race asymptotically is window-limited and skipped,
never guessed.

Every ladder, forall (c in FORALL_LADDER = 2^0..2^-10) or exists (c in
OM6_LADDER = 2^0..2^10), and the single comparisons (the rung c = 1) read
their rungs off one sample set per pair, family and policy (RungSamples),
which hands the same rung arrays to every claim on it and classifies each
rung once: the trends of the gap d = omega_w - omega_v, each fitted on
first use.  The triangle claim reads them as they are; the preceq claim
bounds omega_v - omega_w = -d and reads them through the negation
(trend.classify), so a rung the triangle ladder has read costs the preceq
ladder no fit.  A fit on a rung that is a suffix of its grid reads the
window scalars the grid holds for that suffix (grids.Grid.axis), formed by
the first fit of any pair on that grid.

Every power rung and every dilation rung with c <= 1 shares the window of
v against w: a power leaves w's faithful end and such a dilation only
raises it.  Those rungs need no new evaluation of v or w: a dilation rung
adds one evaluation of w's base at the shift w.dilate(c) would hold (no
dilated Weight is built), and a power rung is c * w(x), exact because each
c is a power of two.  Only a dilation rung with c > 1 pulls w's end in by
log c, and it samples its own window.  A ladder forms the witness point of
a rung only when its verdict reports that rung.

A comparison window samples the span grid (grids._span_grid) of the
shortest faithful span among its weights: the default grid clipped at that
end, or the whole span at the default grid's resolution past its top.  All
weights of one sequence share its one AssociatedWeight
(WeightSequence.associated_weight), which holds, each filled on first use:
the span grid of its own faithful span, closed-form omega on that grid,
one partner slot and one slot per dilation rung c < 1.  The slots hold the
counting runs of closed-form omega (associated_weight._runs: integers, one
width per index and a few folds), whose expansion gives omega at their
points bit for bit.  A window whose shortest span is an undilated sequence
weight's takes that grid; the weight's omega there is read, not evaluated
again, and the omega of an undilated weight of the other sequence is the
expansion of the runs in its partner slot, formed on that grid once, so
both bridges of a pair form their window's runs once.  A dilation rung
c < 1 of an undilated sequence weight on its own grid expands the runs its
slot holds for that rung and start, formed by the first pair that asks;
dilated weights and other grids are evaluated every time.
Scale and offset apply as before.  So each sequence holds one grid, one
omega array and eleven sets of runs.

On sequence weights omega is non-decreasing, so the awake part of every
rung is a suffix of the window, found by one search, and its arrays are
views of the window's; a rung with c <= 1 lies under the baseline and is
formed only from where v or the baseline leaves the plateau.  Tables keep
the mask over the whole window, which gathers the arrays when it has holes.

Only the checks on one weight (rapidly_decreasing, is_convex_weight,
sandwich_check) and the recovery associated_sequence take a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .associated_weight import (LADDER_GRID_N, MIN_WINDOW_SPAN, OM6_LADDER,
                                RELIABLE_FRACTION, AssociatedWeight,
                                conjugate, om1_ladder, om6_ladder, recover)
from .grids import Grid, _span_grid, default_grid
from .sequence_core import DEFAULT_J, WeightSequence
from .trend import (DEFAULT_POLICY, MIN_WINDOW_POINTS, Trend, TrendPolicy,
                    classify)
from .verdicts import State, Verdict, fails, fuse_unanimous, holds, inconclusive

FORALL_LADDER = tuple(float(2.0 ** -k) for k in range(11))
CONVEXITY_GRID_N = 1025
# omega at or below this still sits on its plateau at 0
PLATEAU_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# the weight type
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OmegaTable:
    """Tabulated omega: linear interpolation in x = log t.

    Below the table the first value extends flat; evaluation past the table
    end raises, since nothing certifies the tail.
    """

    log_t: np.ndarray
    omega: np.ndarray

    def omega_log(self, xs: np.ndarray) -> np.ndarray:
        if np.any(xs > self.log_t[-1] + 1e-12):
            raise ValueError("evaluation beyond the tabulated range")
        return np.interp(xs, self.log_t, self.omega, left=self.omega[0])


@dataclass(frozen=True, eq=False)
class Weight:
    """Weight exp(-omega(log t)) held as data, with

        omega(x) = max(0, scale * base(x + shift) - offset).

    base is the AssociatedWeight of a sequence or an OmegaTable.  offset is
    None for a weight that was never normalized; then omega is not clamped
    (is_normalized reads whether omega vanishes on t <= 1 off the data).
    Transforms fold into the fields: a dilation of a dilation adds the
    shifts, a power of a normalized weight scales the offset.
    """

    base: AssociatedWeight | OmegaTable
    label: str = ""
    shift: float = 0.0
    scale: float = 1.0
    offset: float | None = None

    def omega_log(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        # an undilated sequence weight reads omega where its base holds it:
        # on its own comparison grid once built, or on the grid of the last
        # window partner; a grid holds no -0.0, so xs + 0.0 is xs bit for bit
        raw = None
        if self.shift == 0.0 and isinstance(self.base, AssociatedWeight):
            raw = self.base._held(xs)
        if raw is None:
            raw = self.base.omega_log(xs + self.shift)
        out = self._scaled(raw)
        return out if np.ndim(x) else float(out[0])

    def _scaled(self, raw: np.ndarray) -> np.ndarray:
        """omega from the base's values at the shifted points: the scale,
        then the clamp at the offset, in a new array."""
        out = self.scale * raw
        if self.offset is not None:
            out = np.maximum(0.0, out - self.offset)
        return out

    @property
    def source(self) -> WeightSequence | None:
        """The sequence behind a sequence-backed weight; None for a table."""
        return self.base.source if isinstance(self.base, AssociatedWeight) else None

    @property
    def log_t_reliable(self) -> float:
        """End of the faithful range in log t: the last quotient knot of the
        sequence or the table end, moved by the dilation."""
        if isinstance(self.base, AssociatedWeight):
            end = self.base.log_mu_max
        else:
            end = float(self.base.log_t[-1])
        return end - self.shift

    @property
    def knots_log(self) -> np.ndarray:
        """Points in log t where omega may bend: the quotient knots of the
        sequence or the table abscissae, moved by the dilation."""
        if isinstance(self.base, AssociatedWeight):
            knots = self.base.knots[1:]
        else:
            knots = self.base.log_t
        return knots - self.shift

    @property
    def sequence(self) -> WeightSequence | None:
        """M when omega is omega_M up to the dilation, else None."""
        return self.source if self.scale == 1.0 and self.offset is None else None

    def dilate(self, c: float) -> "Weight":
        """Weight t -> v(c t); the faithful range shrinks (or grows) by log c."""
        if not (c > 0 and np.isfinite(c)):
            raise ValueError("need finite c > 0")
        return replace(self, label=f"dil({self.label},{c:g})",
                       shift=self.shift + float(np.log(c)))

    def power(self, c: float) -> "Weight":
        """Weight t -> v(t)^c; omega rescales, the faithful range is unchanged."""
        if not (c > 0 and np.isfinite(c)):
            raise ValueError("need finite c > 0")
        return replace(self, label=f"pow({self.label},{c:g})",
                       scale=self.scale * float(c),
                       offset=None if self.offset is None else self.offset * float(c))


def from_sequence(M: WeightSequence) -> Weight:
    """The decreasing weight exp(-omega_M) of a sequence."""
    return Weight(M.associated_weight, label=f"v({M.label})" if M.label else "v")


def from_table(t, omega, label: str = "") -> Weight:
    """Tabulated weight: linear interpolation of omega in x = log t, flat
    below the table and undefined past its end (see OmegaTable)."""
    ts = np.asarray(t, dtype=float)
    ws = np.asarray(omega, dtype=float)
    if ts.ndim != 1 or ts.shape != ws.shape or len(ts) < 2:
        raise ValueError("need matching 1-d arrays with at least two rows")
    if not np.all(np.isfinite(ts)):
        raise ValueError("t must be finite")
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t must be positive and strictly increasing")
    if not np.all(np.isfinite(ws)):
        raise ValueError("omega must be finite")
    return Weight(OmegaTable(np.log(ts), ws), label=label)


def normalize(v: Weight) -> Weight:
    """v when is_normalized(v) holds, else max(0, omega(x) - omega(0)).  The
    offset is the unclamped omega(0), u0 = scale * base(shift), or the old
    offset when larger: a maximum composes two clamps with no rounding."""
    if is_normalized(v).holds:
        return v
    u0 = v.scale * float(v.base.omega_log(np.array([v.shift]))[0])
    return replace(v, label=f"norm({v.label})" if v.label else "norm",
                   offset=u0 if v.offset is None else max(v.offset, u0))


# ---------------------------------------------------------------------------
# structural checks on a single weight
# ---------------------------------------------------------------------------

def _clipped(grid: Grid | None, v: Weight, *others: Weight,
             x_lo: float | None = None) -> Grid | None:
    g = grid if grid is not None else default_grid()
    x_hi = min([v.log_t_reliable] + [o.log_t_reliable for o in others])
    return g.clip(x_lo, x_hi)


def _comparison_grid(v: Weight, *others: Weight) -> Grid | None:
    """Sampling grid for a comparison window: the span grid (grids._span_grid)
    of the shortest faithful span.  Comparisons sample that full certified
    span instead of truncating at the default grid's last point.  When the
    shortest span is an undilated sequence weight's, its base holds the
    grid, which depends on the span's end alone."""
    low = min((v, *others), key=lambda u: u.log_t_reliable)
    if low.shift == 0.0 and isinstance(low.base, AssociatedWeight):
        return low.base.grid
    return _span_grid(low.log_t_reliable)


def rapidly_decreasing(v: Weight, grid: Grid | None = None,
                       policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """t^k v(t) -> 0 for every k, i.e. omega(x)/x -> +infinity."""
    g = _clipped(grid, v, x_lo=0.5)
    if g is None or len(g) < MIN_WINDOW_POINTS:
        return inconclusive("faithful range leaves no window above t = e^0.5")
    x = g.log_t
    r = v.omega_log(x) / x
    rep = classify(x, r, policy)
    if rep.kind is Trend.RISING:
        return holds(witnesses={"ratio_slope": rep.slope},
                     evidence=((float(np.exp(x[-1])), float(r[-1])),),
                     note="omega grows super-linearly in log t")
    k = int(np.argmax(r))
    return fails(evidence=((float(np.exp(x[k])), float(r[k])),),
                 note=f"omega/log t not rising (slope {rep.slope:.3g}); decay is at most polynomial")


def is_normalized(u: Weight) -> Verdict:
    """omega = 0 on t <= 1, decided exactly.  Under any shift, scale and
    clamp, omega is linear in log t between the knots and flat below the
    first, so omega at the knots below log t = 0 and at 0 decides it, with
    no tolerance.  Fails gives (t, omega) where |omega| is largest."""
    if u.log_t_reliable < 0.0:
        return inconclusive("faithful range ends before t = 1")
    x = np.unique(np.minimum(u.knots_log, 0.0))
    w = u.omega_log(x)
    k = int(np.argmax(np.abs(w)))
    if w[k] == 0.0:
        return holds(witnesses={"omega_at_1": 0.0}, note="omega vanishes up to t = 1")
    return fails(evidence=((float(np.exp(x[k])), float(w[k])),),
                 note="omega does not vanish on t <= 1; normalize first")


def is_convex_weight(u: Weight, grid: Grid | None = None) -> Verdict:
    """Convexity of omega in x = log t, by second differences on a uniform resample."""
    g = _clipped(grid, u)
    if g is None or len(g) < MIN_WINDOW_POINTS:
        return inconclusive("faithful range too short to sample convexity")
    x = np.linspace(g.log_t[0], g.log_t[-1], CONVEXITY_GRID_N)
    w = u.omega_log(x)
    d2 = np.diff(w, 2)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(w))))
    k = int(np.argmin(d2))
    if d2[k] < -tol:
        return fails(evidence=((float(np.exp(x[k + 1])), float(d2[k])),),
                     note="omega has a concave kink in log t")
    return holds(witnesses={"min_second_diff": float(d2[k])},
                 note="second differences non-negative on the sampled window")


# ---------------------------------------------------------------------------
# associated sequence of a weight and the sandwich identity
# ---------------------------------------------------------------------------

def associated_sequence(u: Weight, J: int = DEFAULT_J,
                        grid: Grid | None = None) -> WeightSequence:
    """M^u_j = sup_t t^j u(t), computed as sup_x (j x - omega(x)) on the grid.

    The raw suprema are convex in j up to rounding; the quotient array is
    projected monotone and the values rebuilt from it, so the result is exactly
    log-convex and carries its quotients.  Meta records the origin shift (when
    sup u != 1), the projection magnitude, and the grid-supported index cap.
    The suprema of a sequence weight, dilated or not, are taken over one
    window per index (associated_weight.recover).  A power scale moves the
    slopes of omega off the integers and a normalization clamp adds a flat
    piece, so those weights, and tables, take conjugate, the dense maximum
    formed over a band of points per block of indices.
    """
    g = _clipped(grid, u)
    if g is None or len(g) < 2:
        raise ValueError("faithful range leaves no usable grid")
    x = g.augment(u.knots_log).log_t
    w = u.omega_log(x)
    if u.sequence is not None:
        vals = recover(J, x, w, u.knots_log)
    else:
        vals = conjugate(np.arange(J + 1, dtype=float), x, w)
    shift = float(vals[0])
    vals = vals - shift
    vals[0] = 0.0
    q = np.maximum.accumulate(np.diff(vals))
    rebuilt = np.concatenate(([0.0], np.cumsum(q)))
    proj = float(np.max(np.abs(rebuilt - vals)))
    k_end = max(0.0, float((w[-1] - w[-2]) / (x[-1] - x[-2])))
    return WeightSequence(rebuilt,
                          label=f"assoc({u.label})" if u.label else "assoc",
                          log_quotients=np.concatenate(([0.0], q)),
                          meta={"origin_shift": shift,
                                "projection_magnitude": proj,
                                "reliable_max_index": int(np.floor(k_end * RELIABLE_FRACTION))})


def sandwich_check(u: Weight, grid: Grid | None = None, J: int = DEFAULT_J,
                   policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Two-sided control of u by the weight of its associated sequence:
    v_{M^u}^2 / A <= u <= v_{M^u} for some finite A.

    The upper half is definitional and checked pointwise; the lower half holds
    iff omega_u - 2 omega_{M^u} stays bounded above, tested as a trend.
    """
    return _sandwich(u, associated_sequence(u, J=J, grid=grid), grid, policy)


def _sandwich(u: Weight, Mu: WeightSequence, grid: Grid | None,
              policy: TrendPolicy) -> Verdict:
    """sandwich_check of u against Mu, its associated sequence on grid."""
    vm = from_sequence(Mu)
    g = _clipped(grid, u, vm)
    if g is None or len(g) < MIN_WINDOW_POINTS:
        return inconclusive("faithful range too short for the sandwich window")
    x = g.log_t
    wu = u.omega_log(x)
    wm = vm.omega_log(x)
    tol = 1e-6 * max(1.0, float(np.max(np.abs(wu))))
    over = wm - wu
    k = int(np.argmax(over))
    if over[k] > tol:
        return fails(evidence=((float(np.exp(x[k])), float(over[k])),),
                     note="recovered weight exceeds the input; u is not dominated "
                          "by the weight of its own associated sequence")
    d = wu - 2.0 * wm
    rep = classify(x, d, policy)
    if rep.kind is Trend.RISING:
        k = int(np.argmax(d))
        return fails(evidence=((float(np.exp(x[k])), float(d[k])),),
                     note="no finite sandwich constant: omega_u outruns twice the "
                          f"recovered omega (slope {rep.slope:.3g})")
    return holds(witnesses={"A": float(np.exp(max(0.0, float(d.max())))),
                            "upper_slack": float(max(0.0, float(over[k])))},
                 evidence=((float(np.exp(x[int(np.argmax(d))])), float(d.max())),),
                 note="upper bound pointwise, lower constant stable on the window")


# ---------------------------------------------------------------------------
# doubling conditions and iterated-ratio gate on weights
# ---------------------------------------------------------------------------

def check_om6_weight(u: Weight) -> Verdict:
    """Exists H >= 1 with 2 omega(t) <= omega(H t) + H, read off u directly."""
    return om6_ladder(u.omega_log, u.log_t_reliable)


def check_om1_weight(u: Weight) -> Verdict:
    """Exists L with omega(2t) <= L (omega(t) + 1), read off u directly."""
    return om1_ladder(u.omega_log, u.log_t_reliable)


def strong_ratio_check(u: Weight, c: float,
                       policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists C with 2 omega(t) <= omega(c t) + C on t >= 1."""
    if not c > 0:
        raise ValueError("need positive c")
    span = u.log_t_reliable - np.log(c)
    if span <= MIN_WINDOW_SPAN:
        return inconclusive("faithful range too short for this dilation factor")
    x = np.linspace(0.0, span, LADDER_GRID_N)
    gdiag = 2.0 * u.omega_log(x) - u.omega_log(x + np.log(c))
    rep = classify(x, gdiag, policy)
    k = int(np.argmax(gdiag))
    # evidence abscissa is log t: the faithful span overflows exp
    point = (float(x[k]), float(gdiag[k]))
    if rep.kind is Trend.RISING:
        return fails(evidence=(point,),
                     note=f"2*omega outruns the dilated omega (slope {rep.slope:.3g})")
    return holds(witnesses={"C": float(max(0.0, gdiag[k]))}, evidence=(point,),
                 note="iterated-ratio slack bounded on the window")


# ---------------------------------------------------------------------------
# rung classification for comparison ladders
# ---------------------------------------------------------------------------

def _race_kind(x: np.ndarray, d: np.ndarray, ref: np.ndarray,
               policy: TrendPolicy, held: tuple | None = None) -> Trend:
    """Trend of d normalized by the baseline headroom.

    When a rung's visible gap is drag-dominated, d against the baseline gap
    tells whether the baseline wins the race asymptotically (quotient rising
    toward zero) or the drag does (quotient flat or falling away).  The
    quotient is only meaningful where the headroom has opened; before that
    it is scale-noise, so the fit is restricted to the live stretch.  When
    the headroom never opens (identity-like rungs) d races the floor.
    held is (grid, start) when x is grid.log_t[start:]: then the fit reads
    the grid's abscissa of x, or of the live stretch when that is a suffix."""
    at = x if held is None else held[0].axis(held[1])
    live = ref > 1.0
    if int(live.sum()) >= MIN_WINDOW_POINTS:
        k = int(live.argmax())
        if held is not None and live[k:].all():
            at, d, ref = held[0].axis(held[1] + k), d[k:], ref[k:]
        else:
            at, d, ref = x[live], d[live], ref[live]
    q = d / np.maximum(ref, 1.0)
    return classify(at, q, policy, margin=policy.ratio_margin).kind


def _escape_kind(x: np.ndarray, d: np.ndarray, policy: TrendPolicy) -> Trend:
    """Trend of the per-e-fold average gap against log window depth.

    Pairs separated only by a factorial-type factor on a shared faster
    scale drift apart like depth times log depth: both the direct fit and
    the race see that as flat on any finite window.  The average gain per
    e-fold regressed against log depth still resolves it: rising means the
    gap's growth rate is improving at the window end (escape pending),
    flat means linear drift, falling means the gap is collapsing.  x is
    strictly increasing (points of a grid), so the depth is positive from
    the second point on."""
    u = x[1:] - x[0]
    return classify(np.log(u), d[1:] / u, policy, margin=policy.ratio_margin).kind


def _awake(wv: np.ndarray, ww: np.ndarray) -> np.ndarray | None:
    """Mask of the window past the plateau, or None for a rung to skip.

    A rung is dormant while the dominating side ww has not risen above
    zero; otherwise the dead zone where both weights still sit at their
    plateau is dropped, since it carries no comparison information and
    drowns the trailing-window fits.  The mask holds every point where ww
    has risen, so it is never shorter than the window the first test
    passed."""
    if int(np.count_nonzero(ww > PLATEAU_FLOOR)) < MIN_WINDOW_POINTS:
        return None
    return (wv > PLATEAU_FLOOR) | (ww > PLATEAU_FLOOR)


def _risen(w: np.ndarray) -> int:
    """First index of a non-decreasing omega above the plateau: the one
    search that stands for the mask w > PLATEAU_FLOOR, a suffix."""
    return int(w.searchsorted(PLATEAU_FLOOR, "right"))


def _window(v: Weight, w: Weight, *others: Weight) -> tuple | None:
    """(grid, v(x), w(x)) on the comparison grid of v, w and others, x its
    points; None when the window is too short.  On the grid that the
    shortest span's undilated sequence weight holds, an undilated weight of
    another sequence expands the runs its base keeps for its last partner
    (AssociatedWeight._hold_on), so both bridges of a pair form them once."""
    low = min((v, w, *others), key=lambda u: u.log_t_reliable)
    g = _comparison_grid(low)
    if g is None or len(g) < MIN_WINDOW_POINTS:
        return None
    if g is vars(low.base).get("grid"):
        for u in (v, w):
            if (u.shift == 0.0 and u.base is not low.base
                    and isinstance(u.base, AssociatedWeight)):
                u.base._hold_on(g.log_t)
    return g, v.omega_log(g.log_t), w.omega_log(g.log_t)


class RungSamples:
    """Samples of v against every rung of one family of w, and their trends.

    family is "dilate" (rung c is w.dilate(c)) or "power" (w.power(c)); the
    baseline is w itself, the rung c = 1 of either family.  window is
    (x, v(x), w(x)) on the grid of _window(v, w), and each claim on the
    pair reads the same rung arrays and the same trends, fitted with policy.
    Two facts make the window exact for every power rung and for every
    dilation rung with c <= 1:

    * the window does not change: a power leaves w's faithful end and such
      a dilation only raises it (the shift falls, monotonically in float),
      so the grid of the rung is _comparison_grid(v, w) bit for bit;
    * no new evaluation of v or the baseline: a dilation rung adds one
      evaluation of w's base at x plus the shift that w.dilate(c) holds,
      scaled and clamped as Weight.omega_log does, and a power rung is
      c * w(x), equal to w.power(c).omega_log(x) because every rung c is a
      power of two.  On the base's own grid, an undilated sequence weight's
      dilation rung is the expansion of the runs its base holds for that
      rung and start (AssociatedWeight._rung), formed on first use.

    A dilation rung with c > 1 pulls w's end in by log c, so it samples its
    own window.  Rungs and their trends are filled on first use, so a
    ladder that settles at its first rung evaluates and fits no other.

    When v and w are sequence weights, omega is non-decreasing on both
    sides (a maximum of terms non-decreasing in x; shift, positive scale
    and clamp keep it so), and so is every rung.  Then each mask of _awake
    is a suffix, found by one search (_risen), and the rung arrays are
    views of the window's.  A rung with c <= 1 lies under the baseline (a
    dilation moves w's argument left, a power scales it down), so it wakes
    no earlier than v or the baseline: it is formed only from the index
    where the first of them leaves the plateau (start).  Tables, which may
    decrease, keep the mask over the whole window.

    A rung whose x is a suffix of its window's grid (every rung of two
    sequence weights) is fitted on the abscissa the grid holds for that
    suffix (Grid.axis), and so is its race when the live stretch is a
    suffix: every pair that reads the grid shares the window scalars of
    each fit (trend.Abscissa).  A rung with holes is fitted on its points.
    """

    def __init__(self, v: Weight, w: Weight, family: str,
                 policy: TrendPolicy = DEFAULT_POLICY):
        self.v = v
        self.w = w
        self.family = family
        self.policy = policy
        self._window = _window(v, w)
        self.rungs: dict[float, tuple | None] = {}  # c -> (x, wv, ww, wb)
        # c -> (grid, start) with the rung's x = grid.log_t[start:], or None
        # for a skipped rung and a masked rung with holes
        self._at: dict[float, tuple | None] = {}
        self.trends: dict[tuple[float, str], object] = {}  # (c, name) -> fit
        # where v or the baseline leaves the plateau; None unless both are
        # sequence weights, and then the rungs take the mask
        self._start = None
        if self._window is not None and v.source is not None and w.source is not None:
            _, wv, wb = self._window
            self._start = min(_risen(wv), _risen(wb))

    @property
    def grid(self) -> Grid | None:
        """The grid of the window."""
        return None if self._window is None else self._window[0]

    @property
    def window(self) -> tuple | None:
        """(x, v(x), w(x)) on the points x of the window's grid."""
        if self._window is None:
            return None
        g, wv, wb = self._window
        return g.log_t, wv, wb

    def rung(self, c: float) -> tuple | None:
        """Samples (x, wv, ww, wb) of rung c past the plateau; None to skip."""
        if c not in self.rungs:
            self.rungs[c], self._at[c] = self._sample(c)
        return self.rungs[c]

    def trend(self, c: float, name: str):
        """A trend of the gap d = ww - wv on rung c (not skipped), fitted on
        first use: "gap" is the TrendReport of d; "race" (_race_kind against
        the baseline gap wb - wv), "escape" (_escape_kind) and "base" (the
        baseline gap's own trend) are kinds.  A rung that is a suffix of
        its grid is fitted on that grid's held abscissa."""
        key = (c, name)
        if key not in self.trends:
            x, wv, ww, wb = self.rungs[c]
            held = self._at[c]
            at = x if held is None else held[0].axis(held[1])
            if name == "gap":
                fit = classify(at, ww - wv, self.policy)
            elif name == "race":
                fit = _race_kind(x, ww - wv, wb - wv, self.policy, held)
            elif name == "escape":
                fit = _escape_kind(x, ww - wv, self.policy)
            else:
                fit = classify(at, wb - wv, self.policy).kind
            self.trends[key] = fit
        return self.trends[key]

    def _sample(self, c: float) -> tuple:
        """((x, wv, ww, wb), (grid, start)) of rung c past the plateau, the
        arrays views from index start of the window's grid when that part
        is a suffix of the window ((grid, start) None otherwise); (None,
        None) to skip."""
        if self.family == "dilate" and c > 1.0:
            window = _window(self.v, self.w, self.w.dilate(c))
        else:
            window = self._window
        if window is None:
            return None, None
        g, wv, wb = window
        x = g.log_t
        s = self._start if self._start is not None and c <= 1.0 else 0
        if c == 1.0:
            ww = wb[s:]
        elif self.family == "power":
            ww = c * wb[s:]
        else:
            w = self.w
            if w.shift == 0.0 and g is vars(w.base).get("grid"):
                # the runs the base holds for this rung on its own grid
                raw = w.base._rung(c, s)
            else:
                # the shift of w.dilate(c), with no Weight built for it
                raw = w.base.omega_log(x[s:] + (w.shift + float(np.log(c))))
            # 1.0 * x is x, so a weight with no scale and no clamp takes raw
            ww = raw if w.scale == 1.0 and w.offset is None else w._scaled(raw)
        if self._start is None:
            awake = _awake(wv, ww)
            if awake is None:
                return None, None
            k = int(awake.argmax())
            if awake[k:].all():
                return (x[k:], wv[k:], ww[k:], wb[k:]), (g, k)
            return (x[awake], wv[awake], ww[awake], wb[awake]), None
        kw = s + _risen(ww)
        if len(x) - kw < MIN_WINDOW_POINTS:
            return None, None
        k = min(_risen(wv), kw)
        return (x[k:], wv[k:], ww[k - s:], wb[k:]), (g, k)


def _classify_rung(claim: str, samples: RungSamples, c: float) -> State:
    """Classify rung c of a sample set, Inconclusive for a skipped or a
    window-limited rung; _witness gives its point.

    preceq claim: omega_v - omega_w bounded above (w = O(v)).
    triangle claim: omega_w - omega_v -> +infinity (w = o(v)).
    In both, w is the side whose omega must dominate.  The baseline gap
    against wb separates window-limited rungs (dilation or power drag still
    masking a divergent baseline) from genuine failures.  Both claims read
    the rung's trends of d = omega_w - omega_v; the preceq diagnostic is -d,
    whose rising trend is d's falling one.
    """
    if samples.rung(c) is None:
        return State.INCONCLUSIVE
    gap = samples.trend(c, "gap")
    if claim == "preceq":
        if gap.kind is not Trend.FALLING or gap.peak_inside:
            return State.HOLDS
    elif gap.kind is Trend.RISING and not gap.peak_inside:
        return State.HOLDS
    elif gap.kind is Trend.RISING:
        rising = samples.trend(c, "base") is Trend.RISING
        return State.INCONCLUSIVE if rising else State.FAILS
    if samples.trend(c, "race") is Trend.RISING:
        return State.INCONCLUSIVE
    if samples.trend(c, "escape") is Trend.RISING:
        return State.INCONCLUSIVE
    return State.FAILS


def _witness(claim: str, samples: RungSamples, c: float) -> tuple[float, float]:
    """Witness point (log t, d) of rung c (not skipped), formed only for
    the rungs a verdict reports: for preceq the peak of d = omega_v -
    omega_w, also its supremum (taken from omega_v - omega_w itself, which
    is +0.0 where the negated gap would be -0.0); for triangle the gap
    omega_w - omega_v at the window end."""
    # witness abscissa is log t: the extended spans overflow exp
    x, wv, ww, _ = samples.rung(c)
    if claim == "preceq":
        d = wv - ww
        k = int(np.argmax(d))
        return float(x[k]), float(d[k])
    return float(x[-1]), float(ww[-1] - wv[-1])


def weight_preceq(v: Weight, w: Weight,
                  policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """w = O(v): omega_v - omega_w bounded above on the shared faithful window."""
    samples = RungSamples(v, w, "power", policy)
    state = _classify_rung("preceq", samples, 1.0)
    if state is State.INCONCLUSIVE:
        return inconclusive("window-limited: the gap has not settled inside the faithful range")
    point = _witness("preceq", samples, 1.0)
    if state is State.HOLDS:
        return holds(witnesses={"C": float(np.exp(max(0.0, point[1])))},
                     evidence=(point,), note="gap bounded above on the window")
    return fails(evidence=(point,), note="gap grows without bound on the window")


def weight_triangle(v: Weight, w: Weight,
                    policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """w = o(v): omega_w - omega_v -> +infinity on the shared faithful window."""
    samples = RungSamples(v, w, "power", policy)
    state = _classify_rung("triangle", samples, 1.0)
    if state is State.INCONCLUSIVE:
        return inconclusive("window-limited: the gap has not settled inside the faithful range")
    point = _witness("triangle", samples, 1.0)
    if state is State.HOLDS:
        return holds(witnesses={"gap_at_window_end": point[1]}, evidence=(point,),
                     note="gap diverges on the window")
    return fails(evidence=(point,), note="gap does not diverge on the window")


# ---------------------------------------------------------------------------
# ladders over dilation and power families
# ---------------------------------------------------------------------------

def _exists_ladder(claim: str, samples: RungSamples) -> Verdict:
    """The claim at the first rung c of OM6_LADDER that holds it."""
    undecided = False
    rung_evidence: list[tuple[float, float]] = []
    for c in OM6_LADDER:
        state = _classify_rung(claim, samples, c)
        if state is State.HOLDS:
            point = _witness(claim, samples, c)
            return holds(witnesses={"c": float(c), "C": float(np.exp(max(0.0, point[1])))},
                         evidence=(point,), note=f"first clean rung at c={c:g}")
        if state is State.INCONCLUSIVE:
            undecided = True
        else:
            rung_evidence.append((float(c), _witness(claim, samples, c)[1]))
    if undecided:
        return inconclusive("some rungs window-limited and none held")
    return fails(evidence=tuple(rung_evidence),
                 note=f"gap unbounded at every c <= {OM6_LADDER[-1]:g}")


def forall_ladder(claim: str, samples: RungSamples) -> Verdict:
    """The claim at every rung c of FORALL_LADDER, read off shared samples;
    only a failing rung forms its witness."""
    held: list[float] = []
    skipped: list[float] = []
    for c in FORALL_LADDER:
        state = _classify_rung(claim, samples, c)
        if state is State.FAILS:
            point = _witness(claim, samples, c)
            return fails(evidence=((float(c), point[0]), point),
                         note=f"rung c={c:g} fails at log t={point[0]:.4g}")
        if state is State.HOLDS:
            held.append(c)
        else:
            skipped.append(c)
    if held:
        note = f"all decidable rungs hold down to c={min(held):g}"
        if skipped:
            note += f" ({len(skipped)} rung(s) window-limited)"
        return holds(witnesses={"hardest_c": float(min(held))}, note=note)
    return inconclusive("every rung window-limited")


def power_gap(samples: RungSamples) -> Verdict:
    """weight_triangle_pow on the rungs of a power sample set.

    Computed along two deliberately distinct routes that must agree: divergence
    of the per-rung gap, and boundedness of v against every power of w.  The
    samples and their trends are shared; each route decides every rung with
    its own claim.
    """
    diverge = forall_ladder("triangle", samples)
    bounded = forall_ladder("preceq", samples)
    return fuse_unanimous({"divergence_route": diverge, "bounded_route": bounded},
                          note_prefix="power-family comparison")


def weight_preceq_dila(v: Weight, w: Weight,
                       policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists c >= 1 with v preceq dilate(w, c)."""
    return _exists_ladder("preceq", RungSamples(v, w, "dilate", policy))


def weight_preceq_pow(v: Weight, w: Weight,
                      policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists c >= 1 with v preceq w^c."""
    return _exists_ladder("preceq", RungSamples(v, w, "power", policy))


def weight_triangle_dila(v: Weight, w: Weight,
                         policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every c > 0: omega_w(c t) - omega_v(t) -> +infinity (descending rungs)."""
    return forall_ladder("triangle", RungSamples(v, w, "dilate", policy))


def weight_preceq_all_dila(v: Weight, w: Weight,
                           policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every c > 0: v preceq dilate(w, c) (descending rungs)."""
    return forall_ladder("preceq", RungSamples(v, w, "dilate", policy))


def weight_triangle_pow(v: Weight, w: Weight,
                        policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every c > 0: c omega_w(t) - omega_v(t) -> +infinity (see power_gap)."""
    return power_gap(RungSamples(v, w, "power", policy))
