"""Weighted spaces of entire functions and the inclusion decision engine.

A SpaceSpec names one of six flavors: a single weighted sup-norm space (O- or
little-o-growth) or a system over a dilation or power family of weights, taken
as a union (inductive) or intersection (projective).  decide_inclusion routes
a pair of specs to the characterization that actually covers it and returns
the tri-state relation verdict together with the route tag, the per-route
breakdown, and the precondition verdicts that license the route.  Pairs no
characterization covers raise RoutingError: "no route" is a different answer
from "route applied but the window could not decide", and the two are never
conflated.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._kernel import SCAN_CELLS, end_winner_bound, margin
from .associated_weight import OM1_LADDER, OM6_LADDER, check_om6_omega
from .grids import default_grid
from .relations import (POW_BRIDGE, TRIANGLE_BRIDGE, pow_routes,
                        tildestrong_check, triangle_routes)
from .sequence_core import (WeightSequence, bounded_on_index, check_mg,
                            check_om1_index, is_LC)
from .trend import (DEFAULT_POLICY, MIN_WINDOW_POINTS, Trend, TrendPolicy,
                    classify)
from .verdicts import (State, Verdict, fails, fuse_conjunction, fuse_unanimous,
                       holds, inconclusive)
from .weight_functions import (FORALL_LADDER, Weight, associated_sequence,
                               check_om1_weight, check_om6_weight,
                               from_sequence, is_convex_weight, is_normalized,
                               sandwich_check, strong_ratio_check,
                               weight_preceq, weight_triangle_dila,
                               weight_triangle_pow)

# flavor -> (mode, axis) of its system; a single space has neither
_SHAPES = {"SingleO": (None, None), "SingleLittleO": (None, None),
           "InductiveDila": ("inductive", "dila"), "ProjectiveDila": ("projective", "dila"),
           "InductivePow": ("inductive", "pow"), "ProjectivePow": ("projective", "pow")}
FLAVORS = tuple(_SHAPES)


class RoutingError(Exception):
    """No characterization covers the requested pair of spaces."""


# ---------------------------------------------------------------------------
# space specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """One weighted space or weight-system space.

    source is a WeightSequence (the weight is its associated decreasing
    weight) or a Weight directly.  c dilates the weight of a single space (a
    system ranges over its whole family, so it takes no c); little_o marks
    the o-growth variant of a system.
    """

    flavor: str
    source: WeightSequence | Weight
    c: float | None = None
    little_o: bool = False

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}; expected one of {FLAVORS}")
        if not isinstance(self.source, (WeightSequence, Weight)):
            raise ValueError("source must be a WeightSequence or a Weight")
        if self.little_o and self.is_single:
            raise ValueError("little_o applies to systems; use SingleLittleO instead")
        if self.c is not None and not self.is_single:
            raise ValueError(f"c applies to single spaces, not {self.flavor}")

    @property
    def is_single(self) -> bool:
        return self.mode is None

    @property
    def mode(self) -> str | None:
        return _SHAPES[self.flavor][0]

    @property
    def axis(self) -> str | None:
        return _SHAPES[self.flavor][1]

    def weight(self) -> Weight:
        w = from_sequence(self.source) if isinstance(self.source, WeightSequence) else self.source
        return w if self.c is None else w.dilate(self.c)

    def sequence(self) -> WeightSequence | None:
        """The sequence behind the weight, or None (also when a dilation remains)."""
        w = self.weight()
        return w.sequence if w.shift == 0.0 else None

    def describe(self) -> str:
        src = self.source.label or "unlabeled"
        tail = "" if self.c is None else f", c={self.c:g}"
        o = ", o-growth" if self.little_o else ""
        return f"{self.flavor}({src}{tail}{o})"


@dataclass(frozen=True, eq=False)
class InclusionVerdict:
    """Inclusion decision with its route and licensing preconditions."""

    verdict: Verdict
    theorem_tag: str
    sides: dict[str, Verdict] = field(default_factory=dict)
    preconditions: dict[str, Verdict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict.state is not State.INCONCLUSIVE and not self.theorem_tag:
            raise ValueError("a decisive inclusion must name its route")


# ---------------------------------------------------------------------------
# routing helpers
# ---------------------------------------------------------------------------

def _o_collapse_gate(S: SpaceSpec, policy: TrendPolicy) -> Verdict:
    """License for reading an o-growth system as its O-growth counterpart."""
    if S.sequence() is not None:
        return holds(witnesses={"H": 1.0},
                     note="sequence-backed family: the o-growth and O-growth "
                          "systems define the same comparison problem")
    u = S.weight()
    conv = is_convex_weight(u)
    if conv.fails:
        return fails(evidence=conv.evidence,
                     note="collapse gate needs omega convex in log t")
    rungs_failed = True
    for c in OM1_LADDER:
        r = strong_ratio_check(u, c, policy=policy)
        if r.holds:
            return holds(witnesses={"H": float(c), **r.witnesses},
                         note=f"doubling absorbed by dilation {c:g}")
        if not r.fails:
            rungs_failed = False
    if rungs_failed and conv.holds:
        return fails(evidence=((2.0, 0.0),),
                     note="no dilation absorbs the doubling; o- and O-growth "
                          "systems may differ")
    return inconclusive("collapse gate undecided on the faithful window")


def _route(rel: Verdict, tag: str, sides: dict[str, Verdict],
           precs: dict[str, Verdict]) -> InclusionVerdict:
    """The decision of one route; a decisive relation turns Inconclusive
    when a licensing precondition is not held."""
    bad = [name for name, v in precs.items() if not v.holds]
    if bad and rel.state is not State.INCONCLUSIVE:
        rel = inconclusive(f"route precondition not established: {', '.join(sorted(bad))}",
                           witnesses=rel.witnesses, evidence=rel.evidence)
    return InclusionVerdict(rel, tag, sides, precs)


def _sequences(A: SpaceSpec, B: SpaceSpec, policy: TrendPolicy,
               precs: dict[str, Verdict]) -> tuple[WeightSequence, WeightSequence] | None:
    """The sequences behind A and B, or None unless both have one.  A pair
    licenses the sequence routes by the log-convexity of each side."""
    M, N = A.sequence(), B.sequence()
    if M is None or N is None:
        return None
    if M.J != N.J:
        raise RoutingError(f"the sequence routes need one J, not J = {M.J} and J = {N.J}")
    precs["log_convex_left"] = is_LC(M, policy)
    precs["log_convex_right"] = is_LC(N, policy)
    return M, N


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------

def decide_inclusion(A: SpaceSpec, B: SpaceSpec,
                     policy: TrendPolicy = DEFAULT_POLICY) -> InclusionVerdict:
    """Decide whether space A is contained in space B."""
    if A.is_single and B.is_single:
        return _decide_single(A, B, policy)
    if A.is_single or B.is_single:
        raise RoutingError("no route between a single weighted space and a "
                           "weight-system space")
    return _decide_systems(A, B, policy)


def _decide_single(A: SpaceSpec, B: SpaceSpec, policy: TrendPolicy) -> InclusionVerdict:
    u = A.weight()
    v = B.weight()
    precs: dict[str, Verdict] = {}
    if A.flavor != B.flavor:
        precs["o_vs_O_collapse"] = _o_collapse_gate(A, policy)
    pair = _sequences(A, B, policy, precs)
    if pair is not None:
        M, N = pair
        # exists A with N_j <= A * M_j (plain ratio, no j-th roots)
        rel = bounded_on_index(N.log_values[1:] - M.log_values[1:], policy,
                               "plain ratio", lambda m: {"A": float(np.exp(max(0.0, m)))})
        return _route(rel, "plain-ratio comparison of sequence weights",
                      {"plain_ratio": rel}, precs)
    precs["essential_left"] = sandwich_check(u)
    rel = weight_preceq(u, v, policy)
    return _route(rel, "weighted sup-norm comparison", {"weight_order": rel}, precs)


def _same_source(A: SpaceSpec, B: SpaceSpec) -> bool:
    if A.source is B.source:
        return True
    sa, sb = A.sequence(), B.sequence()
    if sa is not None and sb is not None:
        return sa.J == sb.J and bool(np.array_equal(sa.log_values, sb.log_values))
    return False


def _decide_systems(A: SpaceSpec, B: SpaceSpec, policy: TrendPolicy) -> InclusionVerdict:
    precs: dict[str, Verdict] = {}
    if A.little_o:
        precs["o_collapse_left"] = _o_collapse_gate(A, policy)
    if B.little_o:
        precs["o_collapse_right"] = _o_collapse_gate(B, policy)

    crossing = A.mode == "inductive" and B.mode == "projective" and A.axis == B.axis
    if _same_source(A, B):
        if A.flavor == B.flavor:
            rel = holds(witnesses={"trivial": 1.0},
                        note="same flavor over the same source")
            return _route(rel, "reflexive inclusion", {}, precs)
        if A.mode == B.mode and A.axis != B.axis:
            return _same_source_family_swap(A, B, policy, precs)
        if A.axis == B.axis and A.mode == "projective" and B.mode == "inductive":
            rel = holds(witnesses={"c": 1.0},
                        note="the intersection over a family lies inside the "
                             "union over the same family")
            return _route(rel, "projective-inside-inductive", {}, precs)
        # inductive into projective over one source is a genuine crossing;
        # fall through to the crossing routes below
        if not crossing:
            raise RoutingError("no route for this same-source flavor pair "
                               f"({A.flavor} vs {B.flavor})")

    if crossing:
        return _crossing(A, B, policy, precs)

    raise RoutingError(f"no characterization covers {A.flavor} inside {B.flavor} "
                       "over different sources; only inductive-into-projective "
                       "crossings and same-source family comparisons are routed")


def _same_source_family_swap(A: SpaceSpec, B: SpaceSpec, policy: TrendPolicy,
                             precs: dict[str, Verdict]) -> InclusionVerdict:
    """Dilation family vs power family over one source, same mode.

    The inclusion holds iff the source absorbs the swap: union-of-dilations
    into union-of-powers (and intersection-of-powers into intersection-of-
    dilations) rides on the value-doubling condition; the two opposite swaps
    ride on moderate growth / the shift-doubling condition.
    """
    needs_om1 = ((A.mode == "inductive" and A.axis == "dila")
                 or (A.mode == "projective" and A.axis == "pow"))
    Ms = A.sequence()
    if Ms is not None:
        lc = is_LC(Ms, policy)
        if not lc.holds:
            raise RoutingError("same-source family comparison is characterized "
                               "only for normalized log-convex sequences with "
                               "diverging roots")
        cond = check_om1_index(Ms, policy) if needs_om1 else check_mg(Ms, policy)
        name = "index_doubling" if needs_om1 else "moderate_growth"
        return _route(cond, "same-source family comparison", {name: cond}, precs)
    u = A.weight()
    precs["normalized"] = is_normalized(u)
    precs["convex"] = is_convex_weight(u)
    cond = check_om1_weight(u) if needs_om1 else check_om6_weight(u)
    name = "value_doubling" if needs_om1 else "shift_doubling"
    return _route(cond, "same-source family comparison (weight)", {name: cond}, precs)


def _crossing(A: SpaceSpec, B: SpaceSpec, policy: TrendPolicy,
              precs: dict[str, Verdict]) -> InclusionVerdict:
    """The inductive system of A inside the projective system of B, one axis."""
    dila = A.axis == "dila"
    pair = _sequences(A, B, policy, precs)
    if pair is not None:
        N, M = pair
        routes, bridge, tag = (
            (triangle_routes, TRIANGLE_BRIDGE, "dilation-system crossing") if dila
            else (pow_routes, POW_BRIDGE, "power-system crossing"))
        sides = routes(M, N, policy)
        return _route(fuse_unanimous(sides, note_prefix=bridge), tag, sides, precs)
    u = A.weight()
    w = B.weight()
    if dila:
        precs["normalized_left"] = is_normalized(u)
        precs["normalized_right"] = is_normalized(w)
        precs["convex_left"] = is_convex_weight(u)
        precs["shift_doubling_left"] = check_om6_weight(u)
        rel = weight_triangle_dila(u, w, policy)
        return _route(rel, "dilation-weight-system crossing", {"dilation_gap": rel}, precs)
    precs["convex_left"] = is_convex_weight(u)
    sides = {"power_gap": weight_triangle_pow(u, w, policy)}
    rel = sides["power_gap"]
    if is_convex_weight(w).holds:
        sides["compressed_roots"] = tildestrong_check(
            associated_sequence(w), associated_sequence(u), policy)
        rel = fuse_unanimous(sides, note_prefix="power-weight-system crossing")
    return _route(rel, "power-weight-system crossing", sides, precs)


# ---------------------------------------------------------------------------
# family-equivalence front ends
# ---------------------------------------------------------------------------

def system_equiv(M: WeightSequence,
                 policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Dilation family and power family over M span the same spaces.

    Characterized by the conjunction of the index doubling condition and
    moderate growth.  When moderate growth fails, the returned evidence lists
    one witness point (H, t) per dilation rung where 2*omega(t) > omega(H*t) + H.
    """
    lc = is_LC(M, policy)
    if not lc.holds:
        raise RoutingError("family equivalence is characterized only for "
                           "normalized log-convex sequences with diverging roots")
    om1 = check_om1_index(M, policy)
    mg = check_mg(M, policy)
    base = fuse_conjunction({"index_doubling": om1, "moderate_growth": mg},
                            note_prefix="dilation family vs power family")
    if base.fails and mg.fails:
        om6 = check_om6_omega(M)
        if om6.fails:
            return fails(witnesses=base.witnesses, evidence=om6.evidence,
                         note=base.note + "; evidence holds one (H, log t) per "
                              "rung with 2*omega(t) > omega(H*t) + H")
    return base


def system_equiv_weight(u: Weight,
                        policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Weight-system analogue of system_equiv, for normalized convex weights."""
    norm = is_normalized(u)
    conv = is_convex_weight(u)
    if not (norm.holds and conv.holds):
        return inconclusive("characterization needs a normalized convex weight "
                            f"(normalized={norm.state.value}, convex={conv.state.value})")
    return fuse_conjunction({"value_doubling": check_om1_weight(u),
                             "shift_doubling": check_om6_weight(u)},
                            note_prefix="dilation family vs power family (weight)")


# ---------------------------------------------------------------------------
# power series, norms, membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Entire-function data: log |a_j| per coefficient; -inf encodes a_j = 0.

    complete marks a series whose stored coefficients are all of it (a
    polynomial); otherwise the data is read as a truncation and conclusions
    are restricted to the window where the top index does not dominate.
    """

    log_abs_coeffs: np.ndarray
    label: str = ""
    complete: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.log_abs_coeffs, dtype=float)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("need a one-dimensional coefficient array")
        if np.any(np.isnan(arr)) or np.any(arr == np.inf):
            raise ValueError("log-coefficients must be in [-inf, inf)")
        if not np.any(np.isfinite(arr)):
            raise ValueError("need at least one nonzero coefficient")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_abs_coeffs", arr)

    @property
    def truncation(self) -> int:
        return len(self.log_abs_coeffs) - 1

    @cached_property
    def top_index(self) -> int:
        return int(np.max(np.nonzero(np.isfinite(self.log_abs_coeffs))[0]))

    @cached_property
    def _window(self) -> tuple[np.ndarray, np.ndarray]:
        """log_series_eval on the default grid up to where the top index
        provably dominates, and the mask of the points where it does not.

        Read for truncated series only.  A block of the grid whose argmax
        span is the top row alone has every other row under the maximum at
        each of its points (the span cut of log_series_eval), so its first
        dominant index is the top one throughout; the trailing run of such
        blocks is not held, and no point past the held prefix lies inside
        the window.  The cuts take the rho of the whole grid (_kernel.margin)
        and the kernel is pointwise, so the held values are those of any
        evaluation on the same points.
        """
        x = default_grid().log_t
        _, cf, _, cuts = _block_cuts(self, x)
        keep = int(np.max(np.nonzero(cuts[1] < len(cf) - 1)[0], initial=-1)) + 1
        vals, args = log_series_eval(self, x[:keep * SCAN_CHUNK])
        inside = args < self.top_index
        vals.flags.writeable = inside.flags.writeable = False
        return vals, inside


# points of one block of the series kernel
SCAN_CHUNK = 512
# exp(z) is exactly 0.0 for z below about -745.13, so a term that lies more
# than SERIES_CUT under its column maximum adds exactly 0.0 to the sum
SERIES_CUT = 746.0
# exp(z) < 2**-53 for z <= -TAIL_CUT (exp(-37) = 8.5e-17), so a term that lies
# more than TAIL_CUT under its column maximum leaves a running sum >= 1 as it is
TAIL_CUT = 37.0


def _band_cuts(cf: np.ndarray, js: np.ndarray, x_lo: np.ndarray,
               x_hi: np.ndarray, rho: float) -> np.ndarray:
    """Rows a, s0, s1, b of the band of each block with ends x_lo, x_hi,
    from the _kernel.end_winner_bound of the terms js * x - (-cf), which are
    cf + js * x to the bit.  [s0, s1) lies inside [a, b)."""
    bound = end_winner_bound(x_lo, x_hi, js, -cf, np.empty(4 * len(x_lo) * len(cf)))
    n = bound.shape[1]
    a = (bound >= -(SERIES_CUT + rho)).argmax(axis=1)
    b = n - (bound >= -(TAIL_CUT + rho))[:, ::-1].argmax(axis=1)
    inside = bound >= -rho
    s0 = inside.argmax(axis=1)
    s1 = n - inside[:, ::-1].argmax(axis=1)
    return np.stack([a, s0, s1, b])


def _block_cuts(f: PowerSeries, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The finite coefficients of f (indices, log values, powers as floats)
    and the cuts a, s0, s1, b of each SCAN_CHUNK block of x (_band_cuts),
    with the rounding margin rho of log_series_eval."""
    c = f.log_abs_coeffs
    idx = np.nonzero(np.isfinite(c))[0]
    cf, js = c[idx], idx.astype(float)
    rho = margin(x, js, cf)
    starts = np.arange(0, len(x), SCAN_CHUNK)
    x_lo, x_hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
    cuts = np.empty((4, len(starts)), dtype=int)
    group = max(1, SCAN_CELLS // len(cf))
    for g in range(0, len(starts), group):
        cuts[:, g:g + group] = _band_cuts(cf, js, x_lo[g:g + group],
                                          x_hi[g:g + group], rho)
    return idx, cf, js, cuts


def log_series_eval(f: PowerSeries, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sum_j |a_j| t^j at x = log t, plus the dominant index per point.

    The result is that of the dense kernel bit for bit: the full terms
    matrix T_ji = fl(c_j + fl(j x_i)) over the finite coefficients, its
    first-occurrence argmax k_i, M_i = T_{k_i i}, and the sum of
    exp(T_ji - M_i) row by row in index order.  Every column sums that way,
    so the value at x_i depends on (f, x_i) alone, whatever the block
    around it.

    Each block of SCAN_CHUNK points bounds its rows by _kernel's
    end_winner_bound (points a = x, indices b = j, c = -log|a_j|), and
    rho = _kernel.margin(x, j, c) gives T_ji - M_i < bound_j + rho at every
    point of the block.  Three cuts follow:

    - Span: a row with bound_j < -rho holds no column maximum, not even a
      tied one, so the first-occurrence argmax over the rows [s0, s1) from
      the first to the last row with bound_j >= -rho is the one over all.
    - Leading edge: a row before s0 with bound_j < -(SERIES_CUT + rho) has
      T_ji - M_i < -746; rounding is monotone, so exp of the float
      difference is exactly 0.0 (as it is below about -745.13).  Adding
      0.0 changes no running sum, so the band starts at the first row with
      bound_j >= -(SERIES_CUT + rho).  Subnormal terms above -745.13 stay.
    - Trailing edge: every row from s1 on comes after every column's first
      maximum, where exp(T_ki - M_i) = exp(0.0) = 1.0 entered the sum, so
      the running sum s is >= 1 there and its half ulp is >= 2**-53.  A
      term e < 2**-53 then gives fl(s + e) = s, so the band ends at the last
      row with bound_j >= -(TAIL_CUT + rho): past it, T_ji - M_i < -TAIL_CUT
      and exp of the float difference is below exp(-TAIL_CUT) < 2**-53.
      For the same reason the differences in the rows from s1 on are
      clamped at -TAIL_CUT before exp: a clamped term still adds nothing,
      and exp takes no subnormal or underflowing argument there.

    The bounds of SCAN_CELLS // (finite coefficients) blocks (at least one)
    are formed at once (_band_cuts), each block's as it would be alone.  The
    terms go through in pieces sized by cells: a run of consecutive blocks
    with equal cuts (a, s0, s1, b) is one piece, split into pieces of
    max(2, SCAN_CELLS // (b - a)) points where it holds more than SCAN_CELLS
    cells.  Every point keeps the rows of its block, so values and indices
    are those of one block at a time.  One work array per call, of at most
    max(SCAN_CELLS, 2 (b - a)) cells, holds the terms: each piece fills a
    C-contiguous (rows, width) view of its prefix with fl(j x) and adds c in
    place, which is fl(c + fl(j x)) as addition commutes, and such a view
    sums row by row as a fresh array does.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("series evaluation needs finite log t")
    idx, cf, js, cuts = _block_cuts(f, x)
    starts = np.arange(0, len(x), SCAN_CHUNK)
    # a run of blocks with equal cuts starts where the cuts change
    first = np.ones(len(starts), dtype=bool)
    first[1:] = np.any(cuts[:, 1:] != cuts[:, :-1], axis=0)
    edges = np.append(starts[first], len(x))
    # numpy sums a lone column pairwise; a pair of columns sums by row
    pieces = []
    for lo, hi, a, s0, s1, b in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                    *cuts[:, first].tolist()):
        step = max(2, SCAN_CELLS // (b - a))
        pieces.extend((p, min(step, hi - p), a, s0, s1, b) for p in range(lo, hi, step))
    vals = np.empty(len(x))
    args = np.empty(len(x), dtype=int)
    work = np.empty(max(((b - a) * max(n, 2) for _, n, a, _, _, b in pieces), default=0))
    for lo, n, a, s0, s1, b in pieces:
        w = max(n, 2)
        blk = x[lo:lo + n] if n == w else np.repeat(x[lo:lo + n], w)
        terms = work[:(b - a) * w].reshape(b - a, w)
        np.multiply.outer(js[a:b], blk, out=terms)
        terms += cf[a:b, None]
        s0, s1 = s0 - a, s1 - a
        k = s0 + terms[s0:s1].argmax(axis=0)
        m = terms[k, np.arange(w)]
        terms -= m
        np.maximum(terms[s1:], -TAIL_CUT, out=terms[s1:])
        np.exp(terms, out=terms)
        vals[lo:lo + n] = (m + np.log(terms.sum(axis=0)))[:n]
        args[lo:lo + n] = idx[a + k[:n]]
    return vals, args


def norm_estimate(f: PowerSeries, v: Weight) -> tuple[float, float]:
    """Bracket for log sup_t (sum_j |a_j| t^j) * v(t).

    The lower bound is the grid supremum.  The upper bound adds a Lipschitz
    margin between samples; it is inf unless the weight's end slope exceeds
    the series' top power, so that the supremum is certified interior.  It
    assumes omega is non-decreasing with its steepest slope at the end
    (true for convex weights).
    """
    g = default_grid().clip(None, v.log_t_reliable)
    if g is None or len(g) < 2:
        raise ValueError("faithful range leaves no usable grid")
    x = g.log_t
    logf, _ = log_series_eval(f, x)
    w = v.omega_log(x)
    h = logf - w
    i = int(np.argmax(h))
    lower = float(h[i])
    k_end = float((w[-1] - w[-2]) / (x[-1] - x[-2]))
    if k_end > f.top_index and 0 < i < len(x) - 1:
        dx = float(np.max(np.diff(x)))
        upper = lower + 0.5 * dx * (f.top_index + max(k_end, 0.0))
    else:
        upper = float("inf")
    return lower, upper


def _series_vs_weight(f: PowerSeries, v: Weight, x: np.ndarray,
                      series: Callable[[], tuple[np.ndarray, np.ndarray]],
                      policy: TrendPolicy, little_o: bool) -> Verdict:
    """Judge the series against one weight on v's faithful window.

    x is the default grid, and series() gives log f and the mask of the
    points where the top index does not dominate on a prefix of it: a
    truncation's held window, past which no point is inside, or a
    polynomial's evaluation up to at least v's faithful end.  The window is
    the grid up to that end; it is read no further than the prefix.
    """
    n = int(np.searchsorted(x, v.log_t_reliable, side="right"))
    if f.complete and v.source is not None:
        # a polynomial against any sequence-backed weight: the sequence's
        # roots diverge, so omega outruns every fixed power of t and the
        # weighted modulus decays; the grid supremum is reported as a floor
        # for the norm, not as a certified bound
        window_sup = 0.0
        ev: tuple = ()
        if n >= 2:
            d0 = series()[0][:n] - v.omega_log(x[:n])
            k0 = int(np.argmax(d0))
            window_sup = float(d0[k0])
            ev = ((float(np.exp(x[k0])), window_sup),)
        return holds(witnesses={"top_index": float(f.top_index),
                                "window_sup": window_sup},
                     evidence=ev,
                     note="polynomial modulus decays against every weight "
                          "backed by a sequence with diverging roots")
    if n < MIN_WINDOW_POINTS:
        return inconclusive("faithful range leaves no window")
    logf, interior = (a[:n] for a in series())
    if int(interior.sum()) < MIN_WINDOW_POINTS:
        return inconclusive("series truncation dominates the window")
    xs = x[:len(interior)][interior]
    d = logf[interior] - v.omega_log(xs)
    rep = classify(xs, d, policy)
    k = int(np.argmax(d))
    if little_o:
        if rep.kind is Trend.FALLING:
            return holds(witnesses={"decay_slope": rep.slope},
                         evidence=((float(np.exp(xs[-1])), float(d[-1])),),
                         note="weighted modulus decays on the window")
        return fails(evidence=((float(np.exp(xs[k])), float(d[k])),),
                     note=f"weighted modulus does not decay (slope {rep.slope:.3g})")
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(np.exp(xs[k])), float(d[k])),),
                     note=f"weighted modulus grows (slope {rep.slope:.3g})")
    return holds(witnesses={"log_norm_bound": float(d[k])},
                 evidence=((float(np.exp(xs[k])), float(d[k])),),
                 note="weighted modulus bounded on the window")


def membership(f: PowerSeries, S: SpaceSpec,
               policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Does the series belong to the space, judged on the faithful window.

    A truncated series is read from its held window (PowerSeries._window),
    evaluated once per series.  A polynomial is evaluated per call, on the
    grid up to the widest faithful end among the members the check may
    visit, by the first member that reads it; each member reads its prefix.
    """
    x = default_grid().log_t
    little = S.little_o or S.flavor == "SingleLittleO"
    if S.is_single:
        members = [(None, S.weight())]
    else:
        v = S.weight()
        make = v.dilate if S.axis == "dila" else v.power
        ladder = OM6_LADDER if S.mode == "inductive" else FORALL_LADDER
        members = [(c, make(c)) for c in ladder]

    @cache
    def polynomial() -> tuple[np.ndarray, np.ndarray]:
        x_end = max(u.log_t_reliable for _, u in members)
        logf, _ = log_series_eval(f, x[:int(np.searchsorted(x, x_end, side="right"))])
        return logf, np.ones(len(logf), dtype=bool)

    series = polynomial if f.complete else (lambda: f._window)

    def judge(u: Weight) -> Verdict:
        return _series_vs_weight(f, u, x, series, policy, little)

    if S.is_single:
        return judge(members[0][1])
    if S.mode == "inductive":
        undecided = False
        evid: list[tuple[float, float]] = []
        for c, u in members:
            r = judge(u)
            if r.holds:
                return holds(witnesses={"c": float(c), **r.witnesses},
                             evidence=r.evidence,
                             note=f"admitted at family member c={c:g}")
            if r.inconclusive:
                undecided = True
            else:
                evid.extend(r.evidence[:1])
        if undecided:
            return inconclusive("some family members window-limited and none admitted")
        return fails(evidence=tuple(evid[:4]),
                     note=f"no family member up to c={OM6_LADDER[-1]:g} admits the series")
    held: list[float] = []
    undecided = False
    for c, u in members:
        if f.complete and u.source is not None:
            # a polynomial holds on every sequence-backed member (see
            # _series_vs_weight) and no member witness is read here, so the
            # member's omega is never evaluated
            held.append(c)
            continue
        r = judge(u)
        if r.fails:
            return fails(evidence=r.evidence,
                         note=f"rejected at family member c={c:g}")
        if r.holds:
            held.append(c)
        else:
            undecided = True
    if undecided or not held:
        return inconclusive("some family members window-limited; none rejected")
    return holds(witnesses={"hardest_c": float(min(held))},
                 note=f"admitted at every family member down to c={min(held):g}")
