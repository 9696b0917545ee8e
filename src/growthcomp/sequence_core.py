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

Moderate growth reads the pairing minima min_j (log M_j + log M_{n-j}) only
through the running maximum of e_n = (log M_n - min) / n.  _mg_running forms
the minimum only for the values of n whose bound on e_n, from the held
log-convex minorant, beats the running maximum so far, and each only over
the band of j next to n/2 that the minorant leaves: bit for bit the running
maximum of the dense scan, on about 0.1% of its cells at J = 4096.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._kernel import SCAN_CELLS, _ranges
from .trend import DEFAULT_POLICY, Trend, TrendPolicy, classify, index_window
from .verdicts import Verdict, fails, fuse_conjunction, holds, inconclusive

if TYPE_CHECKING:
    from .associated_weight import AssociatedWeight

LADDER_MAX_INDEX = 16
# log values this large can overflow products of their differences: the hull
# scales them first, and moderate growth forms no bound from the minorant
LOG_HUGE = 2.0 ** 1000
# index range of constructed sequences and recoveries unless a caller sets J
DEFAULT_J = 512


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
    arithmetic as numpy scalars, so the same vertices, without their
    boxing.  From LOG_HUGE on, where the cross products overflow, y is
    scaled by 2**-64 first: exact in the normal range, so no turn moves.
    """
    y = (y * 2.0 ** -64 if np.abs(y).max() >= LOG_HUGE else y).tolist()
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
    if not (len(q) > 2 and np.any(q[2:] < q[1:-1])):
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
    holds iff e_n stays bounded, tested as the trend of the running maximum,
    which _mg_running forms.  The witness reads the maximum and its first
    argument off the running maximum: its last value and the first n where
    it reaches that value.
    """
    _, running = _mg_running(M)
    rep, (lo, hi) = index_trend(running, 2, policy)
    n_star = 2 + int(np.argmax(running))
    e_star = float(running[-1])
    if rep.kind is Trend.RISING:
        return fails(evidence=((float(n_star), e_star),),
                     note=f"pairing defect grows on n in [{lo},{hi}] (slope {rep.slope:.3g})")
    return holds(witnesses={"C": float(np.exp(e_star))},
                 evidence=((float(n_star), e_star),),
                 note=f"running max stable on n in [{lo},{hi}]")


def _mg_running(M: WeightSequence) -> tuple[int, np.ndarray]:
    """(cells formed, running maximum of e_n for n = 2..J), bit for bit
    np.maximum.accumulate of e_n = (y_n - P_n) / n, where y = log M and P_n
    is the pairing minimum min_j fl(y_j + y_{n-j}) over j = 0..n.

    A row n is formed only when an upper bound on e_n beats the running
    maximum R of the rows formed before its block (blocks [2, 4), [4, 8),
    ... double in length), and then only over a band [b_n, m], m = n // 2,
    of columns; both cuts come from the held minorant h = hull of M:

    - h <= y elementwise, exactly (the minorant clips against y), and
      rounding is monotone, so fl(h_j + h_{n-j}) <= fl(y_j + y_{n-j}).
    - h's stored quotients q_k are non-decreasing for k >= 1 and lie within
      4 eps H of fl(h_k - h_{k-1}) (WeightSequence enforces it), so within
      5 eps H of the exact difference d_k, H = max(max|h|, 1).  For
      j < m, j + 1 <= n - j, so the exact pair sum S_j = h_j + h_{n-j} has
      S_{j+1} - S_j = d_{j+1} - d_{n-j} <= q_{j+1} - q_{n-j} + 10 eps H
      <= 10 eps H: it falls toward m up to 10 eps H a step.  With the two
      roundings of the pair sums (|S| <= 2H, eps H each),
      fl(S_j) >= fl(S_k) - (10 m + 2) eps H for every j <= k <= m.
    - kappa_n = (16 m + 8) eps H covers that and the rounding of
      L_n(k) = fl(fl(h_k + h_{n-k}) - kappa_n), so that
      fl(y_j + y_{n-j}) >= L_n(k) for every j <= k <= m.
    - Row cut: P_n >= L_n(m), since the columns j > m repeat the sums of
      columns n - j <= m (IEEE addition commutes), so rounding monotone
      gives e_n <= fl(fl(y_n - L_n(m)) / n).  A row whose bound is at most
      R leaves the running maximum as it was (np.maximum keeps its first
      operand on a tie, and equal values are equal bits: no sum and no e_n
      is -0.0 while no y_j, j >= 1, is), and it cannot be the first
      argmax, which a formed row before it already reached.
    - Band: U_n = fl(y_m + y_{n-m}) is a sum of the row, so P_n <= U_n,
      and a column j with L_n(k) > U_n for some k >= j holds a sum above
      P_n.  A vectorized search (_band_starts: a gallop down from m, then
      a bisection) keeps a < c with L_n(a) > U_n (or a = -1) and
      L_n(c) <= U_n (c = m at the start, since
      L_n(m) <= fl(h_m + h_{n-m}) <= U_n), so every column j <= a is
      above P_n and the band [a + 1, m] holds the minimum.  The minimum
      over it is P_n exactly, whatever order it meets its operands in.

    Every row is formed over its full band [0, m], and the minorant is not
    formed, when max|y| (which bounds H, as min y <= h <= y) reaches
    LOG_HUGE, or when some y_j (j >= 1) is -0.0.  The cells of a block are
    formed about SCAN_CELLS at a time (_band_minima).
    """
    y = M.log_values
    J = M.J
    n = np.arange(2, J + 1)
    # min y <= h <= y, so max|y| bounds H before the minorant is formed
    cut = (float(np.abs(y).max()) < LOG_HUGE
           and not np.any(np.signbit(y[1:]) & (y[1:] == 0.0)))
    if cut:
        h = M.associated_weight.hull.log_values
        m = n // 2
        H = max(float(np.abs(h).max()), 1.0)
        kappa = (16.0 * m + 8.0) * (np.finfo(float).eps * H)
        bound = (y[2:] - ((h[m] + h[n - m]) - kappa)) / n
    rows, defects = [], []
    run = -np.inf
    cells = 0
    n0 = 2
    while n0 <= J:
        r = n[n0 - 2:min(2 * n0, J + 1) - 2]
        if cut:
            r = r[bound[r - 2] > run]
        if r.size:
            b = _band_starts(y, h, r, kappa[r - 2]) if cut else np.zeros_like(r)
            P, formed = _band_minima(y, r, b)
            e = (y[r] - P) / r
            run = max(run, float(e.max()))
            rows.append(r)
            defects.append(e)
            cells += formed
        n0 *= 2
    rows = np.concatenate(rows)
    return cells, np.repeat(np.maximum.accumulate(np.concatenate(defects)),
                            np.diff(rows, append=J + 1))


def _band_starts(y: np.ndarray, h: np.ndarray, r: np.ndarray,
                 kappa: np.ndarray) -> np.ndarray:
    """First column b_n of the band of each row n of r: the search of
    _mg_running on L_n(k) = fl(fl(h_k + h_{n-k}) - kappa_n) > U_n, which
    gallops down from m (k = m - 1, m - 2, m - 4, ...) to a first k where
    it holds, then bisects between that k and the last probe above it."""
    m = r // 2
    U = y[m] + y[r - m]
    a = np.full(r.size, -1)
    c = m.copy()
    act = np.arange(r.size)
    step = 1
    while act.size:
        k = np.maximum(c[act] - step, 0)
        far = (h[k] + h[r[act] - k]) - kappa[act] > U[act]
        a[act[far]] = k[far]
        c[act[~far]] = k[~far]
        act = act[~far & (k > 0)]
        step *= 2
    act = np.flatnonzero(c - a > 1)
    while act.size:
        k = (a[act] + c[act]) // 2
        far = (h[k] + h[r[act] - k]) - kappa[act] > U[act]
        a[act[far]] = k[far]
        c[act[~far]] = k[~far]
        act = act[c[act] - a[act] > 1]
    return a + 1


def _band_minima(y: np.ndarray, r: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(min over j in [b_n, n // 2] of y[j] + y[n - j] for each row n of r,
    cells formed), about SCAN_CELLS cells at a time: the bands of a piece
    of rows lie end to end in one array, and minimum.reduceat cuts it."""
    w = r // 2 - b + 1
    ends = np.cumsum(w)
    out = np.empty(r.size)
    i = 0
    while i < r.size:
        base = ends[i] - w[i]
        i1 = max(int(np.searchsorted(ends, base + SCAN_CELLS, side="right")), i + 1)
        cols = _ranges(b[i:i1], w[i:i1])
        out[i:i1] = np.minimum.reduceat(y[cols] + y[np.repeat(r[i:i1], w[i:i1]) - cols],
                                        ends[i:i1] - w[i:i1] - base)
        i = i1
    return out, int(ends[-1])


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
