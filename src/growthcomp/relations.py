"""Bridges between sequence-level and weight-level comparison relations.

Each bridge runs the deliberately independent routes that are provably
equivalent for log-convex input and fuses them unanimously: sequence-level
root diagnostics on one side, windowed weight-function ladders on the other.
A decisive disagreement between routes is surfaced as Inconclusive with the
per-route breakdown in the note, never silently resolved.
"""

from __future__ import annotations

import numpy as np

from .sequence_core import (WeightSequence, check_mg, index_trend, seq_approx,
                            seq_triangle)
from .trend import (DEFAULT_POLICY, MIN_WINDOW_POINTS, Trend, TrendPolicy,
                    classify)
from .verdicts import Verdict, fails, fuse_unanimous, holds, inconclusive
from .weight_functions import (PLATEAU_FLOOR, RungSamples, forall_ladder,
                               from_sequence, power_gap)

COMPRESS_LADDER = (1, 2, 4, 8, 16)
# note prefixes of the two bridge fusions
TRIANGLE_BRIDGE = "strong comparison bridge"
POW_BRIDGE = "power comparison bridge"


# ---------------------------------------------------------------------------
# sequence-level routes
# ---------------------------------------------------------------------------

def tildestrong_check(M: WeightSequence, N: WeightSequence,
                      policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """For every integer c >= 1: (M_{cj})^(1/c) <= A_c N_j.

    Per rung the plain log gap log(M_{cj})/c - log N_j must stay bounded
    above.  A rising rung refutes the family only when its rise accelerates
    or stays linear (convex gap: the divergence is structural); a rising
    rung whose increments shrink is a transient that turns over beyond the
    index window, so it is window-limited and skipped.
    """
    P, Q = M.log_values, N.log_values
    sups: list[float] = []
    short: list[int] = []
    limited: list[int] = []
    for c in COMPRESS_LADDER:
        jmax = min(M.J // c, N.J)
        if jmax < 8:
            short.append(c)
            continue
        j = np.arange(1, jmax + 1)
        gap = P[c * j] / c - Q[j]
        rep, (lo, hi) = index_trend(gap, 1, policy)
        if rep.kind is Trend.RISING and not rep.peak_inside:
            inc = np.diff(gap)
            irep, _ = index_trend(inc, 1, policy)
            tail_mean = float(inc[len(inc) // 2:].mean())
            if irep.kind is Trend.FALLING or (irep.kind is Trend.FLAT
                                              and tail_mean <= 0.0):
                limited.append(c)
                continue
            k = int(np.argmax(gap)) + 1
            return fails(evidence=((float(c), float(gap.max())),),
                         note=f"compressed-root gap grows at c={c} "
                              f"(slope {rep.slope:.3g} on j in [{lo},{hi}], peak j={k})")
        sups.append(max(0.0, float(gap.max())))
    if not sups:
        return inconclusive("no compression rung decidable "
                            f"(short: {short}, window-limited: {limited})")
    held = tuple(c for c in COMPRESS_LADDER if c not in short and c not in limited)
    note = f"gap bounded at every c in {held}"
    if short:
        note += f" (too short for c >= {min(short)})"
    if limited:
        note += f" (window-limited at c in {tuple(limited)})"
    return holds(witnesses={"A": float(np.exp(max(sups)))}, note=note)


def omega_little_o(A: WeightSequence, B: WeightSequence,
                   policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """omega_A = o(omega_B) on the shared faithful window."""
    return _little_o(RungSamples(from_sequence(A), from_sequence(B), "power", policy))


def _little_o(samples: RungSamples) -> Verdict:
    """omega_little_o read off the window of a sample set: omega_A is its v
    side and omega_B its w side, both on the full grid, judged with its policy."""
    policy = samples.policy
    if samples.window is None:
        return inconclusive("shared faithful range leaves no window")
    x, wa, wb = samples.window
    pos = wb > PLATEAU_FLOOR
    if int(pos.sum()) < MIN_WINDOW_POINTS:
        return inconclusive("denominator weight vanishes on the window")
    r = wa[pos] / wb[pos]
    if float(r.max()) < policy.margin:
        return holds(witnesses={"sup_ratio": float(r.max())},
                     note="ratio already below the margin on the whole window")
    # the ratio is judged in the log so its verdict is scale-free: a ratio
    # already tiny at the window start must still be seen to keep shrinking
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    # a weight of a sequence rises from 0, so pos and the points where log r
    # is finite (r > 0) are suffixes of the window, whose grid holds their
    # abscissa; the fit then reads the points the filter would keep
    k, j = int(pos.argmax()), int((r > 0).argmax())
    at, y = x[pos], log_r
    if pos[k:].all() and (r[j:] > 0).all():
        at, y = samples.grid.axis(k + j), log_r[j:]
    rep = classify(at, y, policy, margin=policy.ratio_margin)
    if rep.kind is Trend.FALLING:
        return holds(witnesses={"log_ratio_slope": rep.slope},
                     evidence=((float(x[pos][-1]), float(r[-1])),),
                     note="ratio falling on the window; evidence point is (log t, ratio)")
    k = int(np.argmax(r))
    return fails(evidence=((float(x[pos][k]), float(r[k])),),
                 note=f"ratio not vanishing (log-ratio slope {rep.slope:.3g}); "
                      "evidence point is (log t, ratio)")


# ---------------------------------------------------------------------------
# bridges
# ---------------------------------------------------------------------------

def triangle_routes(M: WeightSequence, N: WeightSequence,
                    policy: TrendPolicy = DEFAULT_POLICY) -> dict[str, Verdict]:
    """Independent routes for the strong relation of M below N.

    The two dilation routes (weight_triangle_dila and weight_preceq_all_dila
    of v_N against v_M) read the same rung samples and trends, each deciding
    the rungs with its own claim."""
    dilations = RungSamples(from_sequence(N), from_sequence(M), "dilate", policy)
    return {
        "roots": seq_triangle(M, N, policy),
        "dilation_gap": forall_ladder("triangle", dilations),
        "dilation_bounds": forall_ladder("preceq", dilations),
    }


def bridge_triangle_seq(M: WeightSequence, N: WeightSequence,
                        policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Strong comparison of M below N, fused across its equivalent routes."""
    return fuse_unanimous(triangle_routes(M, N, policy),
                          note_prefix=TRIANGLE_BRIDGE)


def pow_routes(M: WeightSequence, N: WeightSequence,
               policy: TrendPolicy = DEFAULT_POLICY) -> dict[str, Verdict]:
    """Independent routes for the power-family strong relation.

    power_gap (weight_triangle_pow of v_N against v_M) and omega_ratio
    (omega_little_o(N, M)) read the same window, so they share one set of
    power rung samples."""
    powers = RungSamples(from_sequence(N), from_sequence(M), "power", policy)
    return {
        "compressed_roots": tildestrong_check(M, N, policy),
        "power_gap": power_gap(powers),
        "omega_ratio": _little_o(powers),
    }


def bridge_pow_seq(M: WeightSequence, N: WeightSequence,
                   policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Power-family comparison of M against N, fused across its routes."""
    return fuse_unanimous(pow_routes(M, N, policy),
                          note_prefix=POW_BRIDGE)


def mg_transfer_check(M: WeightSequence, N: WeightSequence,
                      policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Moderate growth is a property of the equivalence class: for equivalent
    sequences the two verdicts must agree.  Holds = verified on this pair."""
    eq = seq_approx(M, N, policy)
    if not eq.holds:
        return inconclusive("transfer is only asserted for equivalent sequences",
                            evidence=eq.evidence)
    a = check_mg(M, policy)
    b = check_mg(N, policy)
    if a.state == b.state:
        return holds(witnesses={"agreed": 1.0},
                     note=f"both sides {a.state.value}")
    return fails(evidence=(a.evidence + b.evidence)[:2],
                 note="equivalent sequences received different growth verdicts; "
                      "one side is a windowing artifact")
