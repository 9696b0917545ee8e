"""Canonical series built from a weight sequence, with certified evaluation.

The dilation-kind series sums (c t)^j / (2^j M_j); the power-kind series sums
t^(c j) / (2^j M_j^c) for an integer c.  Both live inside the union spaces of
their source and outside the corresponding intersection spaces, which makes
them the standard membership probes.  Evaluation truncates at the stored
range, so every value ships with a tail certificate: inside the certified
radius the ratio of successive terms is below one half, the geometric tail is
bounded explicitly, and outside it evaluation refuses rather than guesses.
The tail bound reads the final quotient of the log-convex minorant, so it
assumes the sequence continues at least log-convexly past the stored range.

A sequence holds its dilation probes, one per c (AssociatedWeight._probe):
theta_series returns the held series, so its coefficients, and the window
its first membership or envelope check evaluates (spaces.PowerSeries._window),
are formed once per (sequence, c).  theta_eval reads those coefficients, and
bounds_check reads that window for a dilation probe and for the power probe
c = 1, whose coefficients are the dilation probe c = 1's.  A power probe
c >= 2 is built per call and its envelope evaluated on the certified points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .associated_weight import LOG2, AssociatedWeight
from .grids import default_grid
from .sequence_core import WeightSequence
from .spaces import PowerSeries, log_series_eval
from .verdicts import Verdict, fails, holds, inconclusive

THETA_KINDS = ("dila", "pow")
# relative slack of the envelope bounds, for the rounding of both sides
BOUNDS_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ThetaFunction:
    """Series probe over a weight sequence: one dilation or power member."""

    source: WeightSequence
    kind: str = "dila"
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in THETA_KINDS:
            raise ValueError(f"kind must be one of {THETA_KINDS}")
        if self.kind == "dila":
            if not (self.c > 0.0 and math.isfinite(self.c)):
                raise ValueError("dilation parameter must be a positive finite number")
        else:
            if self.c != int(self.c) or self.c < 1:
                raise ValueError("power parameter must be an integer >= 1")
            object.__setattr__(self, "c", float(int(self.c)))

    @property
    def _aw(self) -> AssociatedWeight:
        return self.source.associated_weight

    @property
    def log_t_certified(self) -> float:
        """Evaluation is certified for log t strictly below this."""
        if self.kind == "dila":
            return self._aw.log_mu_max - math.log(self.c)
        return self._aw.log_mu_max

    @property
    def label(self) -> str:
        src = self.source.label or "unlabeled"
        return f"theta[{src}|{self.kind}|c={self.c:g}]"


def theta_series(T: ThetaFunction) -> PowerSeries:
    """Stored coefficients of the probe as a power series (a truncation).

    A dilation probe is the one its sequence holds for c, made on first
    use; a power probe is a new series with its own label."""
    if T.kind == "dila":
        return T._aw._probe(T.c, lambda: _series(T))
    return _series(T)


def _series(T: ThetaFunction) -> PowerSeries:
    P = T.source.log_values
    J = T.source.J
    j = np.arange(J + 1, dtype=float)
    if T.kind == "dila":
        coeffs = j * (math.log(T.c) - LOG2) - P
    else:
        c = int(T.c)
        coeffs = np.full(c * J + 1, -np.inf)
        coeffs[c * np.arange(J + 1)] = -j * LOG2 - c * P
    return PowerSeries(coeffs, label=T.label, complete=False)


def _tail_log(T: ThetaFunction, x: np.ndarray | float) -> np.ndarray | float:
    """log of the geometric tail bound beyond the stored range, at log t = x."""
    J = T.source.J
    P = T.source.log_values
    x = np.asarray(x, dtype=float)
    if T.kind == "dila":
        r_log = math.log(T.c) + x - LOG2 - T._aw.log_mu_max
        top_log = J * (math.log(T.c) - LOG2) - P[J] + J * x
    else:
        c = T.c
        r_log = c * (x - T._aw.log_mu_max) - LOG2
        top_log = -J * LOG2 - c * P[J] + c * J * x
    r = np.exp(r_log)
    return top_log + r_log - np.log1p(-r)


def theta_eval(T: ThetaFunction, t: float) -> tuple[float, float]:
    """(log of the stored partial sum, err) with the true log value inside
    [partial, partial + err].  Raises outside the certified radius.  Sums
    the coefficients of theta_series, held for a dilation probe."""
    if math.isnan(t):
        raise ValueError("t must be a number, got nan")
    if t < 0.0:
        raise ValueError("the probe is evaluated on t >= 0")
    if t == 0.0:
        return 0.0, 0.0
    x = math.log(t)
    if x >= T.log_t_certified:
        raise ValueError(f"t={t:g} is outside the certified radius "
                         f"(log t must stay below {T.log_t_certified:g})")
    f = theta_series(T)
    c = f.log_abs_coeffs
    idx = np.nonzero(np.isfinite(c))[0]
    terms = c[idx] + idx * x
    order = np.argsort(terms)[::-1]
    terms = terms[order]
    partial = float(terms[0] + np.log(np.exp(terms - terms[0]).sum()))
    err = float(np.log1p(np.exp(float(_tail_log(T, x)) - partial)))
    return partial, err


def bounds_check(T: ThetaFunction) -> Verdict:
    """Verify the envelope of the probe at every certified grid point.

    Lower: the partial sum already dominates exp(omega(c t / 2)) for the
    dilation kind and exp(c * omega(t / 2^(1/c))) for the power kind.  Upper
    (dilation kind only): partial sum plus tail stays below 2 exp(omega(c t)).

    The certified points are a prefix of the default grid.  A dilation
    probe, and the power probe c = 1, read the partial sums there off the
    held window of the dilation probe c; the power probe c = 1 has its
    coefficients, -j log 2 - 1 P_j against j (log 1 - log 2) - P_j, and its
    certified points (log 1 = 0.0) bit for bit.  The window holds every
    certified point: with q = log_mu_max the final quotient of the
    log-convex minorant and k < J the minorant's vertex before J, so that
    P_J - P_k = (J - k) q, a certified x has x + log c < q, so term k beats
    the top term J by (J - k) (q - x - log c + log 2) > log 2, far over the
    rounding of the terms.  The top index holds no maximum at x, so x's
    block is not in the trailing run of top-only blocks the window leaves
    out, and the kernel is pointwise: the held values are those of
    log_series_eval on the certified points.  A power probe c >= 2 is
    evaluated on them.
    """
    g = default_grid()
    mask = g.log_t < T.log_t_certified
    n = int(mask.sum())
    if n < 2:
        return inconclusive("no certified grid points inside the faithful range")
    x = g.log_t[mask]
    if T.kind == "dila" or T.c == 1.0:
        vals = theta_series(ThetaFunction(T.source, "dila", T.c))._window[0][:n]
    else:
        vals, _ = log_series_eval(theta_series(T), x)
    if T.kind == "dila":
        lb = T._aw.omega_log(x + math.log(T.c) - LOG2)
        ub = LOG2 + T._aw.omega_log(x + math.log(T.c))
        upper_gap = (vals + np.log1p(np.exp(_tail_log(T, x) - vals))) - ub
    else:
        lb = T.c * T._aw.omega_log(x - LOG2 / T.c)
        upper_gap = None
    scale = np.maximum(1.0, np.abs(lb))
    lower_gap = lb - vals
    bad = lower_gap > BOUNDS_RTOL * scale
    if upper_gap is not None:
        bad |= upper_gap > BOUNDS_RTOL * np.maximum(1.0, np.abs(ub))
    if np.any(bad):
        k = int(np.argmax(np.where(bad, lower_gap, -np.inf)))
        return fails(evidence=((float(np.exp(x[k])), float(lower_gap[k])),),
                     note=f"envelope violated at {int(bad.sum())} of {n} certified points")
    w = {"points": float(n), "max_lower_slack": float(np.max(lower_gap))}
    if upper_gap is not None:
        w["max_upper_slack"] = float(np.max(upper_gap))
    return holds(witnesses=w, note=f"envelope verified at all {n} certified points")


def monomial(k: int, log_scale: float = 0.0, label: str = "") -> PowerSeries:
    """The single term |a| t^k, as a complete series."""
    if k < 0 or k != int(k):
        raise ValueError("monomial degree must be a non-negative integer")
    coeffs = np.full(int(k) + 1, -np.inf)
    coeffs[int(k)] = float(log_scale)
    return PowerSeries(coeffs, label=label or f"t^{int(k)}", complete=True)
