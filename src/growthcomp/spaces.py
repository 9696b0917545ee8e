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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .associated_weight import (OM1_LADDER, OM6_LADDER, SCAN_CHUNK,
                                check_om6_omega)
from .grids import Grid, default_grid
from .relations import pow_routes, tildestrong_check, triangle_routes
from .sequence_core import (WeightSequence, check_mg, check_om1_index,
                            index_trend, is_LC)
from .trend import (DEFAULT_POLICY, MIN_WINDOW_POINTS, Trend, TrendPolicy,
                    classify)
from .verdicts import (State, Verdict, fails, fuse_conjunction, fuse_unanimous,
                       holds, inconclusive)
from .weight_functions import (FORALL_LADDER, Weight, associated_sequence,
                               check_om1_weight, check_om6_weight,
                               from_sequence, is_convex_weight, sandwich_check,
                               strong_ratio_check, weight_preceq,
                               weight_triangle_dila, weight_triangle_pow)

SINGLE_FLAVORS = ("SingleO", "SingleLittleO")
SYSTEM_FLAVORS = ("InductiveDila", "ProjectiveDila", "InductivePow", "ProjectivePow")
FLAVORS = SINGLE_FLAVORS + SYSTEM_FLAVORS


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
        if self.little_o and self.flavor in SINGLE_FLAVORS:
            raise ValueError("little_o applies to systems; use SingleLittleO instead")
        if self.c is not None and self.flavor not in SINGLE_FLAVORS:
            raise ValueError(f"c applies to single spaces, not {self.flavor}")

    @property
    def is_single(self) -> bool:
        return self.flavor in SINGLE_FLAVORS

    @property
    def axis(self) -> str | None:
        if self.flavor.endswith("Dila"):
            return "dila"
        if self.flavor.endswith("Pow"):
            return "pow"
        return None

    @property
    def mode(self) -> str | None:
        if self.flavor.startswith("Inductive"):
            return "inductive"
        if self.flavor.startswith("Projective"):
            return "projective"
        return None

    def weight(self) -> Weight:
        w = from_sequence(self.source) if isinstance(self.source, WeightSequence) else self.source
        return w if self.c is None else w.dilate(self.c)

    def sequence(self) -> WeightSequence | None:
        """The sequence behind the weight, or None (also when c dilates it)."""
        if self.c not in (None, 1.0):
            return None
        if isinstance(self.source, WeightSequence):
            return self.source
        if self.source.is_plain_sequence_weight:
            return self.source.source
        return None

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

def _plain_ratio_bounded(N: WeightSequence, M: WeightSequence,
                         policy: TrendPolicy) -> Verdict:
    """Exists A with N_j <= A * M_j (plain ratio, no j-th roots)."""
    J = min(M.J, N.J)
    d = N.log_values[1:J + 1] - M.log_values[1:J + 1]
    rep, (lo, hi) = index_trend(d, 1, policy)
    k = int(np.argmax(d)) + 1
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(k), float(d.max())),),
                     note=f"plain ratio grows on j in [{lo},{hi}] (slope {rep.slope:.3g})")
    return holds(witnesses={"A": float(np.exp(max(0.0, float(d.max()))))},
                 evidence=((float(k), float(d.max())),),
                 note=f"plain ratio bounded on j in [{lo},{hi}]")


def _normalized_verdict(u: Weight) -> Verdict:
    if u.normalized:
        return holds(witnesses={"omega_at_1": 0.0}, note="constructed normalized")
    probe = np.array([-3.0, -1.0, 0.0])
    w = u.omega_log(probe)
    k = int(np.argmax(np.abs(w)))
    if float(np.max(np.abs(w))) <= 1e-9:
        return holds(witnesses={"omega_at_1": float(w[-1])},
                     note="omega vanishes up to t = 1")
    return fails(evidence=((float(np.exp(probe[k])), float(w[k])),),
                 note="omega does not vanish on t <= 1; normalize first")


def _o_collapse_gate(S: SpaceSpec, grid: Grid | None,
                     policy: TrendPolicy) -> Verdict:
    """License for reading an o-growth system as its O-growth counterpart."""
    if S.sequence() is not None:
        return holds(witnesses={"H": 1.0},
                     note="sequence-backed family: the o-growth and O-growth "
                          "systems define the same comparison problem")
    u = S.weight()
    conv = is_convex_weight(u, grid)
    if conv.fails:
        return fails(evidence=conv.evidence,
                     note="collapse gate needs omega convex in log t")
    rungs_failed = True
    for c in OM1_LADDER:
        r = strong_ratio_check(u, c, 2.0, policy=policy)
        if r.holds:
            if conv.inconclusive:
                return inconclusive("iterated-ratio bound found but convexity undecided")
            return holds(witnesses={"H": float(c), **r.witnesses},
                         note=f"doubling absorbed by dilation {c:g}")
        if not r.fails:
            rungs_failed = False
    if rungs_failed and conv.holds:
        return fails(evidence=((2.0, 0.0),),
                     note="no dilation absorbs the doubling; o- and O-growth "
                          "systems may differ")
    return inconclusive("collapse gate undecided on the faithful window")


def _gate(rel: Verdict, precs: dict[str, Verdict]) -> Verdict:
    """Downgrade a decisive relation when a licensing precondition is not held."""
    bad = [name for name, v in precs.items() if not v.holds]
    if not bad or rel.state is State.INCONCLUSIVE:
        return rel
    return inconclusive(f"route precondition not established: {', '.join(sorted(bad))}",
                        witnesses=rel.witnesses, evidence=rel.evidence)


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------

def decide_inclusion(A: SpaceSpec, B: SpaceSpec, grid: Grid | None = None,
                     policy: TrendPolicy = DEFAULT_POLICY) -> InclusionVerdict:
    """Decide whether space A is contained in space B."""
    if A.is_single and B.is_single:
        return _decide_single(A, B, grid, policy)
    if A.is_single or B.is_single:
        raise RoutingError("no route between a single weighted space and a "
                           "weight-system space")
    return _decide_systems(A, B, grid, policy)


def _decide_single(A: SpaceSpec, B: SpaceSpec, grid: Grid | None,
                   policy: TrendPolicy) -> InclusionVerdict:
    u = A.weight()
    v = B.weight()
    precs: dict[str, Verdict] = {}
    if A.flavor != B.flavor:
        precs["o_vs_O_collapse"] = _o_collapse_gate(A, grid, policy)
    Ms = A.sequence()
    Ns = B.sequence()
    if Ms is not None and Ns is not None:
        precs["log_convex_left"] = is_LC(Ms, policy)
        precs["log_convex_right"] = is_LC(Ns, policy)
        rel = _plain_ratio_bounded(Ns, Ms, policy)
        return InclusionVerdict(_gate(rel, precs),
                                "plain-ratio comparison of sequence weights",
                                {"plain_ratio": rel}, precs)
    precs["essential_left"] = sandwich_check(u, grid)
    rel = weight_preceq(u, v, grid, policy)
    return InclusionVerdict(_gate(rel, precs), "weighted sup-norm comparison",
                            {"weight_order": rel}, precs)


def _same_source(A: SpaceSpec, B: SpaceSpec) -> bool:
    if A.source is B.source:
        return True
    sa, sb = A.sequence(), B.sequence()
    if sa is not None and sb is not None:
        return sa.J == sb.J and bool(np.array_equal(sa.log_values, sb.log_values))
    return False


def _decide_systems(A: SpaceSpec, B: SpaceSpec, grid: Grid | None,
                    policy: TrendPolicy) -> InclusionVerdict:
    precs: dict[str, Verdict] = {}
    if A.little_o:
        precs["o_collapse_left"] = _o_collapse_gate(A, grid, policy)
    if B.little_o:
        precs["o_collapse_right"] = _o_collapse_gate(B, grid, policy)

    if _same_source(A, B):
        if A.flavor == B.flavor:
            rel = holds(witnesses={"trivial": 1.0},
                        note="same flavor over the same source")
            return InclusionVerdict(_gate(rel, precs), "reflexive inclusion",
                                    {}, precs)
        if A.mode == B.mode and A.axis != B.axis:
            return _same_source_family_swap(A, B, grid, policy, precs)
        if A.axis == B.axis and A.mode == "projective" and B.mode == "inductive":
            rel = holds(witnesses={"c": 1.0},
                        note="the intersection over a family lies inside the "
                             "union over the same family")
            return InclusionVerdict(_gate(rel, precs), "projective-inside-inductive",
                                    {}, precs)
        # inductive into projective over one source is a genuine crossing;
        # fall through to the crossing routes below
        if not (A.mode == "inductive" and B.mode == "projective" and A.axis == B.axis):
            raise RoutingError("no route for this same-source flavor pair "
                               f"({A.flavor} vs {B.flavor})")

    if A.mode == "inductive" and B.mode == "projective" and A.axis == B.axis:
        if A.axis == "dila":
            return _crossing_dila(A, B, grid, policy, precs)
        return _crossing_pow(A, B, grid, policy, precs)

    raise RoutingError(f"no characterization covers {A.flavor} inside {B.flavor} "
                       "over different sources; only inductive-into-projective "
                       "crossings and same-source family comparisons are routed")


def _same_source_family_swap(A: SpaceSpec, B: SpaceSpec, grid: Grid | None,
                             policy: TrendPolicy,
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
        return InclusionVerdict(_gate(cond, precs), "same-source family comparison",
                                {name: cond}, precs)
    u = A.weight()
    precs["normalized"] = _normalized_verdict(u)
    precs["convex"] = is_convex_weight(u, grid)
    cond = check_om1_weight(u) if needs_om1 else check_om6_weight(u)
    name = "value_doubling" if needs_om1 else "shift_doubling"
    return InclusionVerdict(_gate(cond, precs),
                            "same-source family comparison (weight)",
                            {name: cond}, precs)


def _crossing_dila(A: SpaceSpec, B: SpaceSpec, grid: Grid | None,
                   policy: TrendPolicy,
                   precs: dict[str, Verdict]) -> InclusionVerdict:
    Nseq = A.sequence()
    Mseq = B.sequence()
    if Nseq is not None and Mseq is not None:
        precs["log_convex_left"] = is_LC(Nseq, policy)
        precs["log_convex_right"] = is_LC(Mseq, policy)
        sides = triangle_routes(Mseq, Nseq, grid, policy)
        rel = fuse_unanimous(sides, note_prefix="strong comparison bridge")
        return InclusionVerdict(_gate(rel, precs), "dilation-system crossing",
                                sides, precs)
    u = A.weight()
    w = B.weight()
    precs["normalized_left"] = _normalized_verdict(u)
    precs["normalized_right"] = _normalized_verdict(w)
    precs["convex_left"] = is_convex_weight(u, grid)
    precs["shift_doubling_left"] = check_om6_weight(u)
    rel = weight_triangle_dila(u, w, grid, policy)
    return InclusionVerdict(_gate(rel, precs), "dilation-weight-system crossing",
                            {"dilation_gap": rel}, precs)


def _crossing_pow(A: SpaceSpec, B: SpaceSpec, grid: Grid | None,
                  policy: TrendPolicy,
                  precs: dict[str, Verdict]) -> InclusionVerdict:
    Nseq = A.sequence()
    Mseq = B.sequence()
    if Nseq is not None and Mseq is not None:
        precs["log_convex_left"] = is_LC(Nseq, policy)
        precs["log_convex_right"] = is_LC(Mseq, policy)
        sides = pow_routes(Mseq, Nseq, grid, policy)
        rel = fuse_unanimous(sides, note_prefix="power comparison bridge")
        return InclusionVerdict(_gate(rel, precs), "power-system crossing",
                                sides, precs)
    u = A.weight()
    w = B.weight()
    precs["convex_left"] = is_convex_weight(u, grid)
    sides = {"power_gap": weight_triangle_pow(u, w, grid, policy)}
    wc = is_convex_weight(w, grid)
    if wc.holds:
        Mu = associated_sequence(u, 512, grid)
        Mw = associated_sequence(w, 512, grid)
        sides["compressed_roots"] = tildestrong_check(Mw, Mu, policy)
        rel = fuse_unanimous(sides, note_prefix="power-weight-system crossing")
    else:
        rel = sides["power_gap"]
    return InclusionVerdict(_gate(rel, precs), "power-weight-system crossing",
                            sides, precs)


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


def system_equiv_weight(u: Weight, grid: Grid | None = None,
                        policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Weight-system analogue of system_equiv, for normalized convex weights."""
    norm = _normalized_verdict(u)
    conv = is_convex_weight(u, grid)
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


# exp(z) is exactly 0.0 for z below about -745.13, so a term that lies more
# than SERIES_CUT under its column maximum adds exactly 0.0 to the sum
SERIES_CUT = 746.0


def log_series_eval(f: PowerSeries, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sum_j |a_j| t^j at x = log t, plus the dominant index per point.

    Every column sums its terms row by row in index order, so the value at
    x_i depends on (f, x_i) alone, whatever the block around it.  Each block
    of SCAN_CHUNK points forms only the rows that can come within SERIES_CUT
    of the column maximum; the rows left out would add exactly 0.0, and the
    first-occurrence argmax lies inside the band, so values and indices equal
    those of the full terms matrix bit for bit.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("series evaluation needs finite log t")
    c = f.log_abs_coeffs
    idx = np.nonzero(np.isfinite(c))[0]
    cf = c[idx]
    js = idx.astype(float)
    vals = np.empty(len(x))
    args = np.empty(len(x), dtype=int)
    # the terms and the bound below each carry a rounding error of a few eps
    # times the largest |cf_j| + j |x|; the cut leaves room for both
    cut = SERIES_CUT + 8.0 * np.finfo(float).eps * (
        np.max(np.abs(cf)) + js[-1] * np.max(np.abs(x), initial=0.0))
    for lo in range(0, len(x), SCAN_CHUNK):
        blk = x[lo:lo + SCAN_CHUNK]
        n = len(blk)
        if n == 1:
            # numpy sums a lone column pairwise; a pair of columns sums by row
            blk = np.repeat(blk, 2)
        # m(x) >= term_k(x) for the rows k dominating the block's ends, and
        # term_j - term_k is linear in x, so its larger end value bounds
        # term_j - m on the whole block
        ends = np.array([blk.min(), blk.max()])
        k = (cf[:, None] + js[:, None] * ends).argmax(axis=0)
        bound = ((cf[:, None, None] - cf[k][:, None])
                 + (js[:, None, None] - js[k][:, None]) * ends).max(axis=2).min(axis=1)
        keep = np.nonzero(bound >= -cut)[0]
        a, b = keep[0], keep[-1] + 1
        terms = cf[a:b, None] + js[a:b, None] * blk
        k = terms.argmax(axis=0)
        m = terms[k, np.arange(len(blk))]
        vals[lo:lo + n] = (m + np.log(np.exp(terms - m).sum(axis=0)))[:n]
        args[lo:lo + n] = idx[a + k[:n]]
    return vals, args


def norm_estimate(f: PowerSeries, v: Weight, grid: Grid | None = None
                  ) -> tuple[float, float]:
    """Bracket for log sup_t (sum_j |a_j| t^j) * v(t).

    The lower bound is the grid supremum.  The upper bound adds a Lipschitz
    margin between samples and is finite only when the weight's end slope
    exceeds the series' top power, so the supremum is certified interior;
    it assumes omega is non-decreasing with its steepest slope at the end
    (true for convex weights).
    """
    g = (grid if grid is not None else default_grid()).clip(None, v.log_t_reliable)
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
                      logf: np.ndarray, args: np.ndarray,
                      policy: TrendPolicy, little_o: bool) -> Verdict:
    """Judge the series against one weight on v's faithful window.

    x is a grid prefix reaching at least v's faithful end, and (logf, args)
    is log_series_eval(f, x); the window is the prefix of the three arrays
    up to that end.
    """
    n = int(np.searchsorted(x, v.log_t_reliable, side="right"))
    x, logf, args = x[:n], logf[:n], args[:n]
    if f.complete and v.source is not None:
        # a polynomial against any sequence-backed weight: the sequence's
        # roots diverge, so omega outruns every fixed power of t and the
        # weighted modulus decays; the grid supremum is reported as a floor
        # for the norm, not as a certified bound
        window_sup = 0.0
        ev: tuple = ()
        if n >= 2:
            d0 = logf - v.omega_log(x)
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
    interior = np.ones(n, dtype=bool) if f.complete else args < f.top_index
    if int(interior.sum()) < MIN_WINDOW_POINTS:
        return inconclusive("series truncation dominates the window")
    xs = x[interior]
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


def membership(f: PowerSeries, S: SpaceSpec, grid: Grid | None = None,
               policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Does the series belong to the space, judged on the faithful window.

    The series is evaluated once, on the grid up to the widest faithful end
    among the members the check may visit; each member reads its prefix.
    """
    g = grid if grid is not None else default_grid()
    little = S.little_o or S.flavor == "SingleLittleO"
    if S.is_single:
        members = [(None, S.weight())]
    else:
        v = from_sequence(S.source) if isinstance(S.source, WeightSequence) else S.source
        make = v.dilate if S.axis == "dila" else v.power
        ladder = OM6_LADDER if S.mode == "inductive" else FORALL_LADDER
        members = [(c, make(c)) for c in ladder]
    x_end = max(u.log_t_reliable for _, u in members)
    x = g.log_t[:int(np.searchsorted(g.log_t, x_end, side="right"))]
    logf, args = log_series_eval(f, x)

    def judge(u: Weight) -> Verdict:
        return _series_vs_weight(f, u, x, logf, args, policy, little)

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
