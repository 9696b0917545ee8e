"""Weight sequences in the log domain and their growth/comparison checks.

A weight sequence M = (M_j) is stored as log M_j for j = 0..J with M_0 = 1.
All structural predicates (log-convexity, normalization) are exact comparisons
with tolerance 0; all asymptotic checks (moderate growth, index conditions,
comparison relations) are windowed trend tests that return tri-state Verdicts
with witnesses.

from_log_quotients (so gevrey and from_quotients), the log-convex minorant and
associated_sequence store the log quotients they sum, and the quotient-based
predicates consult them: the float difference of a prefix sum does not give
back the summands bit-for-bit.  The other constructors store none, and
quotient_array takes the differences of the values.

Moderate growth reads the pairing minima min_j (log M_j + log M_{n-j}) for
every n, a quadratic scan; _pairing_minima forms them PAIR_ROWS values of n
at a time from one sliding window over the reversed values, bit for bit the
minimum over each n on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trend import DEFAULT_POLICY, Trend, TrendPolicy, classify, index_window
from .verdicts import Verdict, fails, fuse_conjunction, holds, inconclusive

if TYPE_CHECKING:
    from .associated_weight import AssociatedWeight

LADDER_MAX_INDEX = 16
# index range of constructed sequences and recoveries unless a caller sets J
DEFAULT_J = 512
# values of n whose pairing minima check_mg forms in one block
PAIR_ROWS = 64


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
            # the closed form of omega takes the stored quotients as its
            # breakpoints, within its tie of 4 eps (J max|x| + max|log M|), so
            # they may differ from the differences by rounding only
            tol = 4.0 * np.finfo(float).eps * max(float(np.abs(vals).max()), 1.0)
            if not np.all(np.abs(np.diff(vals) - q[1:]) <= tol):
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

    @cached_property
    def associated_weight(self) -> AssociatedWeight:
        """The associated weight of M, built once, so that every weight of M
        shares its minorant, comparison grid and omega on that grid."""
        from .associated_weight import AssociatedWeight  # it imports this module
        return AssociatedWeight(self)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_values(log_values, label: str = "") -> WeightSequence:
    return WeightSequence(np.asarray(log_values, dtype=float), label)


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


def gevrey(s: float, J: int = DEFAULT_J) -> WeightSequence:
    """M_j = (j!)^s via quotients mu_j = j^s."""
    if s <= 0:
        raise ValueError("need s > 0")
    j = np.arange(1, J + 1, dtype=float)
    return from_log_quotients(s * np.log(j), label=f"gevrey({s:g})")


def q_gevrey(q: float, J: int = DEFAULT_J) -> WeightSequence:
    """M_j = q^(j^2) for q > 1."""
    if q <= 1:
        raise ValueError("need q > 1")
    j = np.arange(0, J + 1, dtype=float)
    return WeightSequence((j * j) * np.log(q), f"qgevrey({q:g})")


def product(A: WeightSequence, B: WeightSequence, label: str = "") -> WeightSequence:
    if A.J != B.J:
        raise ValueError("sequences must share J")
    return WeightSequence(A.log_values + B.log_values, label or f"{A.label}*{B.label}")


def mixture(A: WeightSequence, B: WeightSequence, label: str = "") -> WeightSequence:
    """Pointwise maximum in the log domain."""
    if A.J != B.J:
        raise ValueError("sequences must share J")
    return WeightSequence(np.maximum(A.log_values, B.log_values),
                          label or f"max({A.label},{B.label})")


def read_rows(path, text: str, header: str, first=float) -> list[tuple]:
    """Rows of a two-column CSV text, converted by (first, float) as they are
    read; blank and '#' lines are skipped."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '{header}'")
        rows.append((first(parts[0]), float(parts[1])))
    return rows


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
    rows = read_rows(p, text, "j,logM", int)
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

def index_trend(d: np.ndarray, j_first: int, policy: TrendPolicy):
    """Trend of diagnostic d (indexed from j_first) over the trailing half of
    its index range, regressed against log j.  Returns (report, j_window)."""
    j_last = j_first + len(d) - 1
    lo, hi = index_window(j_first, j_last)
    rep = classify(np.log(np.arange(lo, j_last + 1, dtype=float)), d[lo - j_first:],
                   policy._full_window)
    return rep, (lo, hi)


def bounded_on_index(d: np.ndarray, policy: TrendPolicy, what: str,
                     witnesses) -> Verdict:
    """Does diagnostic d (indexed from j = 1) stay bounded?  Fails when its
    index trend rises, else Holds with witnesses(d_j); the peak (j, d_j) is
    the evidence either way."""
    rep, (lo, hi) = index_trend(d, 1, policy)
    k = int(np.argmax(d))
    peak = ((float(k + 1), float(d[k])),)
    if rep.kind is Trend.RISING:
        return fails(evidence=peak,
                     note=f"{what} grows on j in [{lo},{hi}] (slope {rep.slope:.3g})")
    return holds(witnesses=witnesses(float(d[k])), evidence=peak,
                 note=f"{what} bounded on j in [{lo},{hi}]")


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
    """Indices of the lower convex hull of (j, y_j); collinear points kept.

    The loop reads Python floats (y.tolist()): the same IEEE double
    arithmetic as numpy scalars, so the same vertices, without the
    per-element boxing of numpy scalar indexing.
    """
    y = y.tolist()
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
    The minima over j come from _pairing_minima, PAIR_ROWS values of n at a
    time.
    """
    y = M.log_values
    J = M.J
    n_vals = np.arange(2, J + 1)
    e = (y[2:] - _pairing_minima(y)) / n_vals
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


def _pairing_minima(y: np.ndarray) -> np.ndarray:
    """min over j in 0..n of y[j] + y[n-j], for n = 2..J, bit for bit.

    The rows n of a block [n0, n1) of PAIR_ROWS values take their minimum
    over the columns j = 0..h, h = (n1 - 1) // 2, at once: column j reads
    y[n-j] from a sliding window over y reversed and padded with +inf, so
    that y[n-j] is +inf for j > n.  The minimum is the one over j = 0..n:
    IEEE addition commutes, so y[j] + y[n-j] for j <= n // 2 already forms
    every sum of the row; a column n // 2 < j <= n repeats the sum of
    column n - j; a column j > n holds +inf, above every finite sum; and
    the minimum is exact, whatever the order it meets its operands in.
    """
    J = len(y) - 1
    ry = np.concatenate((y[::-1], np.full(J // 2 + 1, np.inf)))
    out = np.empty(J - 1)
    for n0 in range(2, J + 1, PAIR_ROWS):
        n1 = min(n0 + PAIR_ROWS, J + 1)
        h = (n1 - 1) // 2
        # window J - n starts at ry[J - n] = y[n]; rows run n0..n1-1
        win = sliding_window_view(ry, h + 1)[J - n1 + 1:J - n0 + 1][::-1]
        out[n0 - 2:n1 - 2] = (y[:h + 1] + win).min(axis=1)
    return out


def check_mg_diag(M: WeightSequence, policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Diagonal form: exist C >= 1 and c in (0,1] with M_{2j} <= C^2 c^(-2j) (M_j)^2."""
    y = M.log_values
    jmax = M.J // 2
    if jmax < 2:
        return inconclusive("sequence too short for the diagonal check")
    j = np.arange(1, jmax + 1)
    d = (y[2 * j] - 2.0 * y[j]) / (2.0 * j)
    return bounded_on_index(d, policy, "diagonal defect",
                            lambda m: {"C": 1.0, "c": float(np.exp(-max(0.0, m)))})


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
    return bounded_on_index(d, policy, "doubling ratio",
                            lambda m: {"A": 1.0, "B": float(np.exp(max(0.0, m)))})


def check_56_alternative(M: WeightSequence,
                         policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
    """Exists C in N, D, h >= 1 with m_{2j} <= D h^j (m_{Cj})^(1/C), m_j = M_j / j!."""
    y = M.log_values
    logm = y - log_factorials(M.J)
    best_diag: list[tuple[float, float]] = []
    for C in range(1, LADDER_MAX_INDEX + 1):
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
                 note=f"factorial-quotient defect grows for every C <= {LADDER_MAX_INDEX}")


def check_om1_index(M: WeightSequence,
                    policy: TrendPolicy = DEFAULT_POLICY) -> Verdict:
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
    for L in range(2, LADDER_MAX_INDEX + 1):
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
                     note=f"root ratio pinned near 1 for every L <= {LADDER_MAX_INDEX}")
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
    return bounded_on_index(_ratio_diag(M, N), policy, "root ratio",
                            lambda m: {"C": float(np.exp(max(0.0, m)))})


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
