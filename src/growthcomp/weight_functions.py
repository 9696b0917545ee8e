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

The forall ladders (every c in FORALL_LADDER = 2^0..2^-10) sample each pair
once and hand the same rung arrays to every claim on it (ForallSamples).
Two facts make that exact.  The window does not change across rungs: for
c <= 1 a dilation only raises w's faithful end and a power leaves it, so
every rung sees the grid of v against w itself.  And no rung needs a new
evaluation of v or the base: a dilation rung adds one evaluation of
w.dilate(c), and a power rung is c * w(x), exact because each c is a power
of two.  The exists-ladders (c >= 1) shrink the window on every rung and
sample each rung on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .associated_weight import (LADDER_GRID_N, MIN_WINDOW_SPAN, OM6_LADDER,
                                AssociatedWeight, conjugate, om1_ladder,
                                om6_ladder)
from .grids import Grid, default_grid
from .sequence_core import WeightSequence
from .trend import (DEFAULT_POLICY, MIN_WINDOW_POINTS, Trend, TrendPolicy,
                    classify)
from .verdicts import State, Verdict, fails, fuse_unanimous, holds, inconclusive

FORALL_LADDER = tuple(float(2.0 ** -k) for k in range(11))
CONVEXITY_GRID_N = 1025


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
    None for a weight that was never normalized; then omega is not clamped.
    normalized records that omega is pinned to 0 on t <= 1.  Transforms
    fold into the fields: a dilation of a dilation adds the shifts, a power
    of a normalized weight scales the offset.
    """

    base: AssociatedWeight | OmegaTable
    label: str = ""
    shift: float = 0.0
    scale: float = 1.0
    offset: float | None = None
    normalized: bool = False

    def omega_log(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.scale * self.base.omega_log(xs + self.shift)
        if self.offset is not None:
            out = np.maximum(0.0, out - self.offset)
        return out if np.ndim(x) else float(out[0])

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
    def is_plain_sequence_weight(self) -> bool:
        return self.source is not None and self.shift == 0.0 and self.scale == 1.0

    def dilate(self, c: float) -> "Weight":
        """Weight t -> v(c t); the faithful range shrinks (or grows) by log c."""
        if not (c > 0 and np.isfinite(c)):
            raise ValueError("need finite c > 0")
        return replace(self, label=f"dil({self.label},{c:g})",
                       shift=self.shift + float(np.log(c)),
                       normalized=self.normalized and c <= 1.0)

    def power(self, c: float) -> "Weight":
        """Weight t -> v(t)^c; omega rescales, the faithful range is unchanged."""
        if not (c > 0 and np.isfinite(c)):
            raise ValueError("need finite c > 0")
        return replace(self, label=f"pow({self.label},{c:g})",
                       scale=self.scale * float(c),
                       offset=None if self.offset is None else self.offset * float(c))


def from_sequence(M: WeightSequence) -> Weight:
    """The decreasing weight exp(-omega_M) of a sequence."""
    return Weight(AssociatedWeight(M), label=f"v({M.label})" if M.label else "v",
                  normalized=bool(np.all(M.log_values >= 0.0)))


def from_table(t, omega, label: str = "") -> Weight:
    """Tabulated weight: linear interpolation of omega in x = log t, flat
    below the table and undefined past its end (see OmegaTable)."""
    ts = np.asarray(t, dtype=float)
    ws = np.asarray(omega, dtype=float)
    if ts.ndim != 1 or ts.shape != ws.shape or len(ts) < 2:
        raise ValueError("need matching 1-d arrays with at least two rows")
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t must be positive and strictly increasing")
    if not np.all(np.isfinite(ws)):
        raise ValueError("omega must be finite")
    return Weight(OmegaTable(np.log(ts), ws), label=label,
                  normalized=bool(ws[0] == 0.0 and ts[0] <= 1.0))


def normalize(v: Weight) -> Weight:
    """Pin omega to 0 at t = 1 and clamp below: max(0, omega(x) - omega(0))."""
    if v.normalized:
        return v
    # omega(0) >= 0 once an offset clamps, so the two offsets add
    offset = (v.offset or 0.0) + float(v.omega_log(0.0))
    return replace(v, label=f"norm({v.label})" if v.label else "norm",
                   offset=offset, normalized=True)


# ---------------------------------------------------------------------------
# structural checks on a single weight
# ---------------------------------------------------------------------------

def _clipped(grid: Grid | None, v: Weight, *others: Weight,
             x_lo: float | None = None) -> Grid | None:
    g = grid if grid is not None else default_grid()
    x_hi = min([v.log_t_reliable] + [o.log_t_reliable for o in others])
    return g.clip(x_lo, x_hi)


def _comparison_grid(grid: Grid | None, v: Weight, *others: Weight) -> Grid | None:
    """Sampling grid for a comparison window.

    The faithful span of sequence-backed weights routinely extends far past
    the sampling grid's top (log mu grows linearly in the index for q-type
    sequences), and the decisive crossovers of slowly separating pairs live
    out there.  Comparisons therefore sample the full certified span at the
    grid's resolution instead of truncating at the grid's last point.
    """
    g = grid if grid is not None else default_grid()
    x_hi = min([v.log_t_reliable] + [o.log_t_reliable for o in others])
    x_lo = float(g.log_t[0])
    if x_hi <= float(g.log_t[-1]):
        return g.clip(None, x_hi)
    return Grid.geometric_log(x_lo, x_hi, len(g))


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

def associated_sequence(u: Weight, J: int = 512, grid: Grid | None = None,
                        safety: float = 0.5) -> WeightSequence:
    """M^u_j = sup_t t^j u(t), computed as sup_x (j x - omega(x)) on the grid.

    The raw suprema are convex in j up to rounding; the quotient array is
    projected monotone and the values rebuilt from it, so the result is exactly
    log-convex and carries its quotients.  Meta records the origin shift (when
    sup u != 1), the projection magnitude, and the grid-supported index cap.
    """
    g = _clipped(grid, u)
    if g is None or len(g) < 2:
        raise ValueError("faithful range leaves no usable grid")
    x = g.augment(u.knots_log).log_t
    w = u.omega_log(x)
    vals = conjugate(np.arange(J + 1, dtype=float), x, w)
    shift = float(vals[0])
    vals = vals - shift
    vals[0] = 0.0
    q = np.maximum.accumulate(np.diff(vals))
    rebuilt = np.concatenate(([0.0], np.cumsum(q)))
    proj = float(np.max(np.abs(rebuilt - vals)))
    k_end = float((w[-1] - w[-2]) / (x[-1] - x[-2]))
    return WeightSequence(rebuilt,
                          label=f"assoc({u.label})" if u.label else "assoc",
                          log_quotients=np.concatenate(([0.0], q)),
                          meta={"origin_shift": shift,
                                "projection_magnitude": proj,
                                "reliable_max_index": int(np.floor(max(0.0, k_end) * safety))})


def sandwich_check(u: Weight, grid: Grid | None = None, J: int = 512,
                   policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Two-sided control of u by the weight of its associated sequence:
    v_{M^u}^2 / A <= u <= v_{M^u} for some finite A.

    The upper half is definitional and checked pointwise; the lower half holds
    iff omega_u - 2 omega_{M^u} stays bounded above, tested as a trend.
    """
    Mu = associated_sequence(u, J=J, grid=grid)
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

def check_om6_weight(u: Weight, n: int = LADDER_GRID_N) -> Verdict:
    """Exists H >= 1 with 2 omega(t) <= omega(H t) + H, read off u directly."""
    return om6_ladder(u.omega_log, u.log_t_reliable, n=n)


def check_om1_weight(u: Weight, n: int = LADDER_GRID_N) -> Verdict:
    """Exists L with omega(2t) <= L (omega(t) + 1), read off u directly."""
    return om1_ladder(u.omega_log, u.log_t_reliable, n=n)


def strong_ratio_check(u: Weight, c: float, d: float, n: int = LADDER_GRID_N,
                       policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists C with d * omega(t) <= omega(c t) + C on t >= 1."""
    if not (c > 0 and d > 0):
        raise ValueError("need positive c and d")
    span = u.log_t_reliable - np.log(c)
    if span <= MIN_WINDOW_SPAN:
        return inconclusive("faithful range too short for this dilation factor")
    x = np.linspace(0.0, span, n)
    gdiag = d * u.omega_log(x) - u.omega_log(x + np.log(c))
    rep = classify(x, gdiag, policy)
    k = int(np.argmax(gdiag))
    # evidence abscissa is log t: the faithful span overflows exp
    point = (float(x[k]), float(gdiag[k]))
    if rep.kind is Trend.RISING:
        return fails(evidence=(point,),
                     note=f"d*omega outruns the dilated omega (slope {rep.slope:.3g})")
    return holds(witnesses={"C": float(max(0.0, gdiag[k]))}, evidence=(point,),
                 note="iterated-ratio slack bounded on the window")


# ---------------------------------------------------------------------------
# rung classification for comparison ladders
# ---------------------------------------------------------------------------

def _race_kind(x: np.ndarray, d: np.ndarray, ref: np.ndarray,
               policy: TrendPolicy) -> Trend:
    """Trend of d normalized by the baseline headroom.

    When a rung's visible gap is drag-dominated, d against the baseline gap
    tells whether the baseline wins the race asymptotically (quotient rising
    toward zero) or the drag does (quotient flat or falling away).  The
    quotient is only meaningful where the headroom has opened; before that
    it is scale-noise, so the fit is restricted to the live stretch.  When
    the headroom never opens (identity-like rungs) d races the floor."""
    live = ref > 1.0
    if int(live.sum()) >= MIN_WINDOW_POINTS:
        x, d, ref = x[live], d[live], ref[live]
    q = d / np.maximum(ref, 1.0)
    return classify(x, q, policy, margin=policy.ratio_margin).kind


def _escape_kind(x: np.ndarray, d: np.ndarray, policy: TrendPolicy) -> Trend:
    """Trend of the per-e-fold average gap against log window depth.

    Pairs separated only by a factorial-type factor on a shared faster
    scale drift apart like depth times log depth: both the direct fit and
    the race see that as flat on any finite window.  The average gain per
    e-fold regressed against log depth still resolves it: rising means the
    gap's growth rate is improving at the window end (escape pending),
    flat means linear drift, falling means the gap is collapsing."""
    u = x - x[0]
    keep = u > 0.0
    return classify(np.log(u[keep]), d[keep] / u[keep], policy,
                    margin=policy.ratio_margin).kind


_SKIPPED = (State.INCONCLUSIVE, (float("nan"), float("nan")), float("nan"))


def _awake(wv: np.ndarray, ww: np.ndarray) -> np.ndarray | None:
    """Mask of the window past the plateau, or None for a rung to skip.

    A rung is dormant while the dominating side ww has not risen above
    zero; otherwise the dead zone where both weights still sit at their
    plateau is dropped, since it carries no comparison information and
    drowns the trailing-window fits."""
    if int(np.count_nonzero(ww > 1e-9)) < MIN_WINDOW_POINTS:
        return None
    awake = (wv > 1e-9) | (ww > 1e-9)
    if int(awake.sum()) < MIN_WINDOW_POINTS:
        return None
    return awake


def _rung_samples(v: Weight, w: Weight, grid: Grid | None,
                  w_base: Weight | None = None) -> tuple | None:
    """Samples (x, wv, ww, wb) of one rung on its own window, past the
    plateau; None when the rung is to be skipped.

    w_base is the family member the rung was derived from (None: w itself).
    The window is clipped to the faithful range of every participant,
    including the undilated baseline: the race quotient is meaningless where
    the baseline has already saturated at its top slope.  Serves the single
    comparisons and the exists-ladders, whose rungs each move the window.
    """
    same = w_base is None or w_base is w
    g = _comparison_grid(grid, v, w) if same else _comparison_grid(grid, v, w, w_base)
    if g is None or len(g) < MIN_WINDOW_POINTS:
        return None
    x = g.log_t
    wv = v.omega_log(x)
    ww = w.omega_log(x)
    awake = _awake(wv, ww)
    if awake is None:
        return None
    x, wv, ww = x[awake], wv[awake], ww[awake]
    return x, wv, ww, ww if same else w_base.omega_log(x)


class ForallSamples:
    """Samples of v against every rung of one forall family of w, on one grid.

    family is "dilate" (rung c is w.dilate(c)) or "power" (w.power(c)); the
    baseline is w itself.  Every rung of FORALL_LADDER is read off one
    grid and one evaluation of v and w, and each claim on the pair reads the
    same rung arrays.  Two facts make the sharing exact:

    * the window does not change across rungs: for c <= 1 a dilation only
      raises w's faithful end (the shift falls, monotonically in float) and
      a power leaves it, so the grid of every rung is _comparison_grid(grid,
      v, w) bit for bit;
    * no rung needs a new evaluation of v or the baseline: a dilation rung
      adds one w.dilate(c).omega_log(x), and a power rung is c * w(x), equal
      to w.power(c).omega_log(x) because every rung c is a power of two.

    Rungs are filled on first use, so a ladder that fails at its first rung
    evaluates no other.  x is the grid, and wv and wb are v and w on it;
    all three are None when the window is too short.
    """

    def __init__(self, v: Weight, w: Weight, family: str, grid: Grid | None = None):
        self.w = w
        self.family = family
        self.rungs: dict[float, tuple | None] = {}  # c -> (ww, awake) or None
        g = _comparison_grid(grid, v, w)
        self.x = self.wv = self.wb = None
        if g is not None and len(g) >= MIN_WINDOW_POINTS:
            self.x = g.log_t
            self.wv = v.omega_log(self.x)
            self.wb = w.omega_log(self.x)

    def rung(self, c: float) -> tuple | None:
        """Samples (x, wv, ww, wb) of rung c past the plateau; None to skip."""
        if c not in self.rungs:
            self.rungs[c] = self._sample(c)
        if self.rungs[c] is None:
            return None
        ww, awake = self.rungs[c]
        return self.x[awake], self.wv[awake], ww[awake], self.wb[awake]

    def _sample(self, c: float) -> tuple | None:
        """(ww, awake mask) of rung c on the full grid; None to skip."""
        if self.x is None:
            return None
        if c == 1.0:
            ww = self.wb
        elif self.family == "power":
            ww = c * self.wb
        else:
            ww = self.w.dilate(c).omega_log(self.x)
        awake = _awake(self.wv, ww)
        return None if awake is None else (ww, awake)


def _classify_rung(claim: str, samples: tuple | None,
                   policy: TrendPolicy) -> tuple[State, tuple[float, float], float]:
    """Classify one comparison rung.  Returns (state, witness_point, sup_d),
    with Inconclusive for a window-limited rung.

    preceq claim: omega_v - omega_w bounded above (w = O(v)).
    triangle claim: omega_w - omega_v -> +infinity (w = o(v)).
    In both, w is the side whose omega must dominate.  The baseline gap
    against wb separates window-limited rungs (dilation or power drag still
    masking a divergent baseline) from genuine failures.
    """
    if samples is None:
        return _SKIPPED
    x, wv, ww, wb = samples
    if claim == "preceq":
        d = wv - ww
        rep = classify(x, d, policy)
        if rep.kind is not Trend.RISING or rep.peak_inside:
            state = State.HOLDS
        elif _race_kind(x, d, wb - wv, policy) is Trend.FALLING:
            state = State.INCONCLUSIVE
        elif _escape_kind(x, d, policy) is Trend.FALLING:
            state = State.INCONCLUSIVE
        else:
            state = State.FAILS
    else:
        d = ww - wv
        rep = classify(x, d, policy)
        if rep.kind is Trend.RISING and not rep.peak_inside:
            state = State.HOLDS
        elif rep.kind is Trend.RISING:
            base_kind = classify(x, wb - wv, policy).kind
            state = State.INCONCLUSIVE if base_kind is Trend.RISING else State.FAILS
        elif _race_kind(x, d, wb - wv, policy) is Trend.RISING:
            state = State.INCONCLUSIVE
        elif _escape_kind(x, d, policy) is Trend.RISING:
            state = State.INCONCLUSIVE
        else:
            state = State.FAILS
    # witness abscissa is log t: the extended spans overflow exp
    k = int(np.argmax(d)) if claim == "preceq" else len(d) - 1
    return state, (float(x[k]), float(d[k])), float(d.max())


def weight_preceq(v: Weight, w: Weight, grid: Grid | None = None,
                  policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """w = O(v): omega_v - omega_w bounded above on the shared faithful window."""
    state, point, sup_d = _classify_rung("preceq", _rung_samples(v, w, grid), policy)
    if state is State.HOLDS:
        return holds(witnesses={"C": float(np.exp(max(0.0, sup_d)))},
                     evidence=(point,), note="gap bounded above on the window")
    if state is State.FAILS:
        return fails(evidence=(point,), note="gap grows without bound on the window")
    return inconclusive("window-limited: the gap has not settled inside the faithful range")


def weight_triangle(v: Weight, w: Weight, grid: Grid | None = None,
                    policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """w = o(v): omega_w - omega_v -> +infinity on the shared faithful window."""
    state, point, _ = _classify_rung("triangle", _rung_samples(v, w, grid), policy)
    if state is State.HOLDS:
        return holds(witnesses={"gap_at_window_end": point[1]}, evidence=(point,),
                     note="gap diverges on the window")
    if state is State.FAILS:
        return fails(evidence=(point,), note="gap does not diverge on the window")
    return inconclusive("window-limited: the gap has not settled inside the faithful range")


# ---------------------------------------------------------------------------
# ladders over dilation and power families
# ---------------------------------------------------------------------------

def _exists_ladder(claim: str, v: Weight, make_rung, grid: Grid | None,
                   policy: TrendPolicy) -> Verdict:
    base = make_rung(1.0)
    undecided = False
    rung_evidence: list[tuple[float, float]] = []
    for c in OM6_LADDER:
        samples = _rung_samples(v, make_rung(c), grid, base)
        state, point, sup_d = _classify_rung(claim, samples, policy)
        if state is State.HOLDS:
            return holds(witnesses={"c": float(c), "C": float(np.exp(max(0.0, sup_d)))},
                         evidence=(point,), note=f"first clean rung at c={c:g}")
        if state is State.INCONCLUSIVE:
            undecided = True
        else:
            rung_evidence.append((float(c), point[1]))
    if undecided:
        return inconclusive("some rungs window-limited and none held")
    return fails(evidence=tuple(rung_evidence),
                 note=f"gap unbounded at every c <= {OM6_LADDER[-1]:g}")


def forall_ladder(claim: str, samples: ForallSamples, policy: TrendPolicy) -> Verdict:
    """The claim at every rung c of FORALL_LADDER, read off shared samples."""
    held: list[float] = []
    skipped: list[float] = []
    for c in FORALL_LADDER:
        state, point, sup_d = _classify_rung(claim, samples.rung(c), policy)
        if state is State.FAILS:
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


def power_gap(samples: ForallSamples, policy: TrendPolicy) -> Verdict:
    """weight_triangle_pow on the rungs of a power sample set.

    Computed along two deliberately distinct routes that must agree: divergence
    of the per-rung gap, and boundedness of v against every power of w.  Only
    the samples are shared; each route classifies them with its own claim.
    """
    diverge = forall_ladder("triangle", samples, policy)
    bounded = forall_ladder("preceq", samples, policy)
    return fuse_unanimous({"divergence_route": diverge, "bounded_route": bounded},
                          note_prefix="power-family comparison")


def weight_preceq_dila(v: Weight, w: Weight, grid: Grid | None = None,
                       policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists c >= 1 with v preceq dilate(w, c)."""
    return _exists_ladder("preceq", v, w.dilate, grid, policy)


def weight_preceq_pow(v: Weight, w: Weight, grid: Grid | None = None,
                      policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists c >= 1 with v preceq w^c."""
    return _exists_ladder("preceq", v, w.power, grid, policy)


def weight_triangle_dila(v: Weight, w: Weight, grid: Grid | None = None,
                         policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every c > 0: omega_w(c t) - omega_v(t) -> +infinity (descending rungs)."""
    return forall_ladder("triangle", ForallSamples(v, w, "dilate", grid), policy)


def weight_preceq_all_dila(v: Weight, w: Weight, grid: Grid | None = None,
                           policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every c > 0: v preceq dilate(w, c) (descending rungs)."""
    return forall_ladder("preceq", ForallSamples(v, w, "dilate", grid), policy)


def weight_triangle_pow(v: Weight, w: Weight, grid: Grid | None = None,
                        policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every c > 0: c omega_w(t) - omega_v(t) -> +infinity (see power_gap)."""
    return power_gap(ForallSamples(v, w, "power", grid), policy)
