"""Weight sequences in the log domain and their growth/comparison checks.

A weight sequence M = (M_j) is stored as log M_j for j = 0..J with M_0 = 1.
All structural predicates (log-convexity, normalization) are exact comparisons
with tolerance 0; all asymptotic checks (moderate growth, index conditions,
comparison relations) are windowed trend tests that return tri-state Verdicts
with witnesses.

Sequences constructed from quotients (gevrey, from_quotients, the log-convex
minorant, associated sequences) carry their defining log-quotient array; the
quotient-based predicates consult that array, because the float difference of a
prefix-sum does not reproduce the summands bit-for-bit and tolerance-0 checks
would otherwise wobble at the last bit.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .trend import DEFAULT_POLICY, Trend, TrendPolicy, classify, index_window
from .verdicts import Verdict, fails, fuse_conjunction, holds, inconclusive

LADDER_MAX_INDEX = 16


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightSequence:
    """log M_j for j = 0..J, with M_0 = 1 (log_values[0] == 0.0) enforced."""

    log_values: np.ndarray
    label: str = ""
    log_quotients: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = np.asarray(self.log_values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("log_values must be one-dimensional")
        if len(vals) < 3:
            raise ValueError("need at least three entries (J >= 2)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("log_values must be finite")
        if vals[0] != 0.0:
            raise ValueError("M_0 must equal 1 (log_values[0] == 0); rescaling is not performed")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "log_values", vals)
        if self.log_quotients is not None:
            q = np.asarray(self.log_quotients, dtype=float)
            if q.shape != vals.shape:
                raise ValueError("log_quotients must match log_values in length")
            if q[0] != 0.0:
                raise ValueError("log_quotients[0] must be 0 (mu_0 = 1)")
            if not np.allclose(np.diff(vals), q[1:], atol=1e-6, rtol=0.0):
                raise ValueError("log_quotients inconsistent with log_values")
            q = q.copy()
            q.flags.writeable = False
            object.__setattr__(self, "log_quotients", q)

    @property
    def J(self) -> int:
        return len(self.log_values) - 1

    @cached_property
    def quotient_array(self) -> np.ndarray:
        """log mu_j at index j (mu_j = M_j / M_{j-1}); index 0 holds log mu_0 = 0."""
        if self.log_quotients is not None:
            return self.log_quotients
        q = np.empty_like(self.log_values)
        q[0] = 0.0
        q[1:] = np.diff(self.log_values)
        q.flags.writeable = False
        return q


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_values(log_values, label: str = "", meta: dict | None = None) -> WeightSequence:
    return WeightSequence(np.asarray(log_values, dtype=float), label,
                          meta=dict(meta or {}))


def from_log_quotients(log_mu, label: str = "") -> WeightSequence:
    """Build from log mu_j for j = 1..J; values are the prefix sums."""
    q = np.concatenate(([0.0], np.asarray(log_mu, dtype=float)))
    vals = np.concatenate(([0.0], np.cumsum(q[1:])))
    return WeightSequence(vals, label, log_quotients=q)


def from_quotients(mu, label: str = "") -> WeightSequence:
    """Build from the linear quotients mu_1..mu_J (all positive)."""
    arr = np.asarray(mu, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("quotients must be positive")
    return from_log_quotients(np.log(arr), label)


def gevrey(s: float, J: int = 512) -> WeightSequence:
    """M_j = (j!)^s via quotients mu_j = j^s."""
    if s <= 0:
        raise ValueError("need s > 0")
    j = np.arange(1, J + 1, dtype=float)
    return from_log_quotients(s * np.log(j), label=f"gevrey({s:g})")


def q_gevrey(q: float, J: int = 512) -> WeightSequence:
    """M_j = q^(j^2) for q > 1."""
    if q <= 1:
        raise ValueError("need q > 1")
    j = np.arange(0, J + 1, dtype=float)
    vals = (j * j) * np.log(q)
    quot = np.concatenate(([0.0], np.diff(vals)))
    return WeightSequence(vals, f"qgevrey({q:g})", log_quotients=quot)


def product(A: WeightSequence, B: WeightSequence, label: str = "") -> WeightSequence:
    if A.J != B.J:
        raise ValueError("sequences must share J")
    vals = A.log_values + B.log_values
    quot = np.concatenate(([0.0], np.diff(vals)))
    return WeightSequence(vals, label or f"{A.label}*{B.label}", log_quotients=quot)


def mixture(A: WeightSequence, B: WeightSequence, label: str = "") -> WeightSequence:
    """Pointwise maximum in the log domain."""
    if A.J != B.J:
        raise ValueError("sequences must share J")
    vals = np.maximum(A.log_values, B.log_values)
    quot = np.concatenate(([0.0], np.diff(vals)))
    return WeightSequence(vals, label or f"max({A.label},{B.label})", log_quotients=quot)


def from_file(path) -> WeightSequence:
    """Read a sequence from JSON ({"label", "log_values"}) or CSV lines "j,logM".

    CSV indices must be consecutive from 0; comment lines start with '#'.
    """
    p = Path(path)
    text = p.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if "log_values" not in obj:
            raise ValueError("JSON sequence file needs a log_values array")
        return WeightSequence(np.asarray(obj["log_values"], dtype=float),
                              str(obj.get("label", p.stem)))
    rows: list[tuple[int, float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{p}:{lineno}: expected 'j,logM'")
        rows.append((int(parts[0]), float(parts[1])))
    if not rows:
        raise ValueError(f"{p}: no data rows")
    js = [j for j, _ in rows]
    if js != list(range(len(js))):
        raise ValueError(f"{p}: indices must be consecutive from 0")
    return WeightSequence(np.asarray([v for _, v in rows], dtype=float), p.stem)


def log_factorials(n: int) -> np.ndarray:
    """log j! for j = 0..n, via the prefix sum of log j."""
    if n < 0:
        raise ValueError("need n >= 0")
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=float)))))


# ---------------------------------------------------------------------------
# trend helper for index diagnostics
# ---------------------------------------------------------------------------

def index_trend(d: np.ndarray, j_first: int, policy: TrendPolicy,
                 margin: float | None = None):
    """Trend of diagnostic d (indexed from j_first) over the trailing half of
    its index range, regressed against log j.  Returns (report, j_window)."""
    j_last = j_first + len(d) - 1
    lo, hi = index_window(j_first, j_last)
    j = np.arange(j_first, j_last + 1)
    mask = j >= lo
    full = dataclasses.replace(policy, window_fraction=1.0)
    rep = classify(np.log(j[mask].astype(float)), d[mask], full, margin=margin)
    return rep, (lo, hi)


# ---------------------------------------------------------------------------
# structural predicates (tolerance 0)
# ---------------------------------------------------------------------------

def is_log_convex(M: WeightSequence) -> Verdict:
    """Exact check that the quotients mu_j are non-decreasing for j >= 1."""
    q = M.quotient_array
    steps = np.diff(q[1:])
    if len(steps) and np.any(steps < 0.0):
        k = int(np.argmax(steps < 0.0))
        j = k + 2
        return fails(evidence=((float(j), float(steps[k])),),
                     note=f"quotient decreases at j={j}")
    min_step = float(steps.min()) if len(steps) else 0.0
    return holds(witnesses={"min_quotient_step": min_step})


def is_LC(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Normalized (M_1 >= 1), log-convex, with (M_j)^(1/j) -> +infinity.

    The first two parts are exact; root divergence is a windowed trend of
    log(M_j)/j against log j (rising -> diverging).
    """
    lc = is_log_convex(M)
    if lc.fails:
        return fails(evidence=lc.evidence, note=f"not log-convex: {lc.note}")
    if M.log_values[1] < 0.0:
        return fails(evidence=((1.0, float(M.log_values[1])),),
                     note="not normalized: M_1 < 1")
    j = np.arange(1, M.J + 1, dtype=float)
    roots = M.log_values[1:] / j
    rep, (lo, hi) = index_trend(roots, 1, policy)
    if rep.kind is Trend.RISING:
        return holds(witnesses={"root_slope": rep.slope,
                                "min_quotient_step": lc.witnesses.get("min_quotient_step", 0.0)},
                     evidence=((float(M.J), float(roots[-1])),),
                     note=f"root sequence rising on j in [{lo},{hi}]")
    return fails(evidence=((float(M.J), float(roots[-1])),),
                 note=f"root sequence not diverging on window (slope {rep.slope:.3g})")


# ---------------------------------------------------------------------------
# log-convex minorant
# ---------------------------------------------------------------------------

def _lower_hull_vertices(y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of (j, y_j); collinear points kept."""
    out: list[int] = []
    for i in range(len(y)):
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            # pop b only on a strict concave turn; collinear (cross == 0) stays
            cross = (b - a) * (y[i] - y[a]) - (i - a) * (y[b] - y[a])
            if cross < 0.0:
                out.pop()
            else:
                break
        out.append(i)
    return np.asarray(out, dtype=int)


def log_convex_minorant(M: WeightSequence) -> WeightSequence:
    """Largest log-convex sequence below M (lower convex envelope of log M_j).

    Already log-convex input is returned unchanged, which makes the operation
    exactly idempotent.  Output values are evaluated edge-by-edge with the same
    chord formula the brute-force oracle uses, pinned at hull vertices and
    clipped against the input, so output <= input holds exactly; the defining
    edge-slope array (forced non-decreasing) is carried as the quotient view.
    """
    q = M.quotient_array
    if not (len(q) > 2 and np.any(np.diff(q[1:]) < 0.0)):
        return M
    y = M.log_values
    hx = _lower_hull_vertices(y)
    slopes = (y[hx[1:]] - y[hx[:-1]]) / (hx[1:] - hx[:-1]).astype(float)
    slopes = np.maximum.accumulate(slopes)
    J = M.J
    qq = np.zeros(J + 1)
    env = np.empty(J + 1)
    for e in range(len(hx) - 1):
        a, b = int(hx[e]), int(hx[e + 1])
        qq[a + 1:b + 1] = slopes[e]
        env[a] = y[a]
        if b - a > 1:
            ks = np.arange(a + 1, b, dtype=float)
            env[a + 1:b] = y[a] + (y[b] - y[a]) * ((ks - a) / float(b - a))
    env[int(hx[-1])] = y[int(hx[-1])]
    env = np.minimum(env, y)
    return WeightSequence(env, label=f"lcmin({M.label})" if M.label else "lcmin",
                          log_quotients=qq,
                          meta={"hull_vertices": [int(i) for i in hx]})


# ---------------------------------------------------------------------------
# growth conditions
# ---------------------------------------------------------------------------

def check_mg(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Moderate growth: exists C with M_{j+k} <= C^(j+k) M_j M_k.

    Diagnostic: e_n = max_j (log M_n - log M_j - log M_{n-j}) / n; the claim
    holds iff e_n stays bounded, tested as the trend of the running maximum.
    """
    y = M.log_values
    J = M.J
    n_vals = np.arange(2, J + 1)
    e = np.empty(len(n_vals))
    for i, n in enumerate(n_vals):
        seg = y[0:n + 1]
        e[i] = (y[n] - (seg + seg[::-1]).min()) / n
    running = np.maximum.accumulate(e)
    rep, (lo, hi) = index_trend(running, 2, policy)
    n_star = int(n_vals[np.argmax(e)])
    e_star = float(e.max())
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(n_star), e_star),),
                     note=f"pairing defect grows on n in [{lo},{hi}] (slope {rep.slope:.3g})")
    return holds(witnesses={"C": float(np.exp(e_star))},
                 evidence=((float(n_star), e_star),),
                 note=f"running max stable on n in [{lo},{hi}]")


def check_mg_diag(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Diagonal form: exist C >= 1 and c in (0,1] with M_{2j} <= C^2 c^(-2j) (M_j)^2."""
    y = M.log_values
    jmax = M.J // 2
    if jmax < 2:
        return inconclusive("sequence too short for the diagonal check")
    j = np.arange(1, jmax + 1)
    d = (y[2 * j] - 2.0 * y[j]) / (2.0 * j)
    rep, (lo, hi) = index_trend(d, 1, policy)
    j_star = int(j[np.argmax(d)])
    d_star = float(d.max())
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(j_star), d_star),),
                     note=f"diagonal defect grows on j in [{lo},{hi}] (slope {rep.slope:.3g})")
    c_wit = float(np.exp(-max(0.0, d_star)))
    return holds(witnesses={"C": 1.0, "c": c_wit},
                 evidence=((float(j_star), d_star),),
                 note=f"diagonal defect bounded on j in [{lo},{hi}]")


def check_strong_2j(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Too-strong doubling bound: exist A, B with M_{2j} <= A B^j M_j.

    Every genuine weight sequence (roots diverging) must fail this; it is kept
    as a diagnostic precisely because holding would signal degenerate input.
    """
    y = M.log_values
    jmax = M.J // 2
    if jmax < 2:
        return inconclusive("sequence too short for the doubling check")
    j = np.arange(1, jmax + 1)
    d = (y[2 * j] - y[j]) / j
    rep, (lo, hi) = index_trend(d, 1, policy)
    j_star = int(j[np.argmax(d)])
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(j_star), float(d.max())),),
                     note=f"doubling ratio grows on j in [{lo},{hi}] (slope {rep.slope:.3g})")
    return holds(witnesses={"A": 1.0, "B": float(np.exp(max(0.0, d.max())))},
                 evidence=((float(j_star), float(d.max())),),
                 note=f"doubling ratio bounded on j in [{lo},{hi}]")


def check_56_alternative(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY,
                         C_max: int = LADDER_MAX_INDEX) -> Verdict:
    """Exists C in N, D, h >= 1 with m_{2j} <= D h^j (m_{Cj})^(1/C), m_j = M_j / j!."""
    y = M.log_values
    logm = y - log_factorials(M.J)
    best_diag: list[tuple[float, float]] = []
    for C in range(1, C_max + 1):
        jmax = M.J // max(2, C)
        if jmax < 4:
            continue
        j = np.arange(1, jmax + 1)
        num = logm[2 * j] - logm[C * j] / C
        d = num / j
        rep, (lo, hi) = index_trend(d, 1, policy)
        if rep.kind is not Trend.RISING:
            logh = max(0.0, float(d.max()))
            logD = max(0.0, float((num - j * logh).max()))
            return holds(witnesses={"C": float(C), "D": float(np.exp(logD)),
                                    "h": float(np.exp(logh))},
                         evidence=((float(j[np.argmax(d)]), float(d.max())),),
                         note=f"bounded at C={C} on j in [{lo},{hi}]")
        best_diag.append((float(C), float(d.max())))
    if not best_diag:
        return inconclusive("sequence too short for the factorial-quotient check")
    return fails(evidence=tuple(best_diag),
                 note=f"factorial-quotient defect grows for every C <= {C_max}")


def check_om1_index(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY,
                    L_max: int = LADDER_MAX_INDEX) -> Verdict:
    """Index form of the doubling condition for the associated weight:
    exists L with liminf (M_{Lj})^(1/(Lj)) / (M_j)^(1/j) > 1.

    For each L the gap log(M_{Lj})/(Lj) - log(M_j)/j is examined on the trailing
    half-window; Holds at the first L whose windowed infimum clears
    log(1 + margin), Fails if every L has its windowed supremum below it.
    The witness log_liminf_ratio is that infimum, kept in the log: the ratio
    itself overflows for steep q-Gevrey sequences.
    """
    y = M.log_values
    thresh = float(np.log1p(policy.margin))
    all_below = True
    tested = 0
    for L in range(2, L_max + 1):
        jmax = M.J // L
        if jmax < 4:
            continue
        tested += 1
        j = np.arange(1, jmax + 1)
        gap = y[L * j] / (L * j) - y[j] / j
        lo, hi = index_window(1, jmax)
        w = gap[lo - 1:]
        if float(w.min()) > thresh:
            return holds(witnesses={"L": float(L),
                                    "log_liminf_ratio": float(w.min())},
                         evidence=((float(lo + int(np.argmin(w))), float(w.min())),),
                         note=f"windowed root gap clears margin at L={L}")
        if float(w.max()) > thresh:
            all_below = False
    if tested == 0:
        return inconclusive("sequence too short for the index ladder")
    if all_below:
        return fails(evidence=((float(M.J), thresh),),
                     note=f"root ratio pinned near 1 for every L <= {L_max}")
    return inconclusive("windowed root gap straddles the margin for all tested L")


# ---------------------------------------------------------------------------
# comparison relations on sequences
# ---------------------------------------------------------------------------

def _ratio_diag(M: WeightSequence, N: WeightSequence) -> np.ndarray:
    if M.J != N.J:
        raise ValueError("sequences must share J")
    j = np.arange(1, M.J + 1, dtype=float)
    return (M.log_values[1:] - N.log_values[1:]) / j


def seq_preceq(M: WeightSequence, N: WeightSequence,
               policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists C with M_j <= C^j N_j: the j-th root ratio stays bounded above."""
    d = _ratio_diag(M, N)
    rep, (lo, hi) = index_trend(d, 1, policy)
    j_star = int(np.argmax(d)) + 1
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(j_star), float(d.max())),),
                     note=f"root ratio grows on j in [{lo},{hi}] (slope {rep.slope:.3g})")
    return holds(witnesses={"C": float(np.exp(max(0.0, d.max())))},
                 evidence=((float(j_star), float(d.max())),),
                 note=f"root ratio bounded on j in [{lo},{hi}]")


def seq_approx(M: WeightSequence, N: WeightSequence,
               policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Equivalence: seq_preceq in both directions."""
    return fuse_conjunction({"forward": seq_preceq(M, N, policy),
                             "reverse": seq_preceq(N, M, policy)},
                            note_prefix="two-sided root-ratio bound")


def seq_triangle(M: WeightSequence, N: WeightSequence,
                 policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Strong relation: (M_j / N_j)^(1/j) -> 0 (root ratio falls without bound)."""
    d = _ratio_diag(M, N)
    rep, (lo, hi) = index_trend(d, 1, policy)
    if rep.kind is Trend.FALLING:
        return holds(witnesses={"window_slope": rep.slope},
                     evidence=((float(M.J), float(d[-1])),),
                     note=f"root ratio falling on j in [{lo},{hi}]")
    j_star = int(np.argmax(d)) + 1
    return fails(evidence=((float(j_star), float(d.max())),),
                 note=f"root ratio not vanishing on j in [{lo},{hi}] (slope {rep.slope:.3g})")


# ---------------------------------------------------------------------------
# sequence transforms for the exponential-type setting
# ---------------------------------------------------------------------------

def tilde(M: WeightSequence, c: int) -> WeightSequence:
    """Root-compressed sequence (M_{cj})^(1/c) for an integer c >= 1."""
    if not (isinstance(c, (int, np.integer)) and c >= 1):
        raise ValueError("need an integer c >= 1")
    jmax = M.J // c
    if jmax < 2:
        raise ValueError("sequence too short for this c")
    j = np.arange(0, jmax + 1)
    vals = M.log_values[c * j] / c
    return WeightSequence(vals, label=f"tilde({M.label},{c})")


def scale_pow(N: WeightSequence, c: float) -> WeightSequence:
    """Geometrically rescaled sequence c^(-j) N_j."""
    if not (c > 0 and np.isfinite(c)):
        raise ValueError("need finite c > 0")
    j = np.arange(0, N.J + 1, dtype=float)
    return WeightSequence(N.log_values - j * np.log(c),
                          label=f"scale_pow({N.label},{c:g})")
