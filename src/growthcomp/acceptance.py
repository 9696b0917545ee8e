"""End-to-end verification suites over the standard battery.

Each suite exercises one framework-level guarantee and returns a single
pass/fail with a one-line detail.  The registry at the bottom is the single
source of truth for both the command-line "verify" subcommand and the
acceptance test module, so the set of guarantees is defined exactly once.

Suites that need independent ground truth carry their own oracles: the
envelope suite rebuilds the minorant by exhaustive chords, and the dual-route
evaluation suite compares the two deliberately separate supremum routes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .associated_weight import (OM6_LADDER, AssociatedWeight, check_om1_omega,
                                check_om6_omega, legendre_recover)
from .battery import is_q_dominated
from .grids import default_grid
from .relations import (POW_BRIDGE, TRIANGLE_BRIDGE, bridge_pow_seq,
                        bridge_triangle_seq, pow_routes, triangle_routes)
from .sequence_core import (WeightSequence, check_mg, check_mg_diag,
                            check_om1_index, check_strong_2j, gevrey,
                            log_convex_minorant, q_gevrey)
from .spaces import FLAVORS, SpaceSpec, membership, system_equiv
from .special_functions import (ThetaFunction, bounds_check, monomial,
                                theta_eval, theta_series)
from .trend import DEFAULT_POLICY
from .verdicts import fuse_unanimous
from .weight_functions import (associated_sequence, check_om1_weight,
                               check_om6_weight, from_sequence, sandwich_check)

REL_TOL = 1e-9
DUAL_ROUTE_ATOL = 1e-12
SANDWICH_SLACK = 1e-6
UNANIMITY_FLOOR = 0.90
ENVELOPE_SEED = 20260819
ENVELOPE_TRIALS = 100
ENVELOPE_J = 64
# the theta closed-form check and the system-equivalence suite build their
# reference inputs at this J, whatever the battery's J
REFERENCE_J = 512
THETA_PROBES = (("dila", 0.5), ("dila", 1.0), ("dila", 2.0),
                ("pow", 1.0), ("pow", 2.0))
MEMBERSHIP_SCALES = (0.5, 1.0, 2.0)
MONOMIAL_DEGREES = (0, 3)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _recovery_error(R: WeightSequence, want: np.ndarray, J: int) -> tuple[float, int]:
    """Max log-relative error of recovered R against want over j <= cap, and
    cap: J, or the reliable index of R when that is lower."""
    cap = min(J, int(R.meta.get("reliable_max_index", J)))
    a = want[:cap + 1]
    return float(np.max(np.abs(R.log_values[:cap + 1] - a) / np.maximum(1.0, np.abs(a)))), cap


# ---------------------------------------------------------------------------
# 1. conjugation roundtrip
# ---------------------------------------------------------------------------

def suite_roundtrip(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """Recovering a sequence from its own associated weight reproduces it."""
    worst = 0.0
    worst_label = ""
    caps: list[int] = []
    for M in battery:
        aw = AssociatedWeight(M)
        with warnings.catch_warnings():
            # indices past the grid-supported cap are deliberately not compared
            warnings.simplefilter("ignore")
            R = legendre_recover(aw, J=M.J)
        rel, cap = _recovery_error(R, M.log_values, M.J)
        caps.append(cap)
        if rel > worst:
            worst, worst_label = rel, M.label
    passed = worst <= REL_TOL
    detail = (f"max log-relative error {worst:.3g} across {len(battery)} members "
              f"(reliable spans j<={min(caps)}..{max(caps)}), tolerance {REL_TOL:g}")
    if not passed:
        detail += f"; worst member {worst_label}"
    return SuiteResult("roundtrip", passed, detail)


# ---------------------------------------------------------------------------
# 2. envelope against the exhaustive-chords oracle
# ---------------------------------------------------------------------------

def _all_chords_envelope(y: np.ndarray) -> np.ndarray:
    """Lower convex envelope by trying every chord; quadratic and literal.

    For each a, every chord (a, b) is formed at once at every k in a+1..J-1,
    with +inf where k >= b, so that the minimum over b takes each chord only
    over its own interior; the minimum is exact, so the order of the chords
    does not matter.
    """
    J = len(y) - 1
    env = y.copy()
    js = np.arange(J + 1, dtype=float)
    for a in range(J - 1):
        bs = np.arange(a + 2, J + 1)[:, None]
        ks = js[a + 1:J]
        chords = y[a] + (y[bs] - y[a]) * ((ks - a) / (bs - a).astype(float))
        chords[ks >= bs] = np.inf
        np.minimum(env[a + 1:J], chords.min(axis=0), out=env[a + 1:J])
    return env


def suite_envelope(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """The fast envelope equals the exhaustive-chords oracle bit for bit,
    and weight-level recovery of a rough input lands on that envelope."""
    rng = np.random.default_rng(ENVELOPE_SEED)
    mismatches = 0
    worst_exact = 0.0
    worst_recover = 0.0
    for _ in range(ENVELOPE_TRIALS):
        steps = rng.normal(loc=0.6, scale=1.5, size=ENVELOPE_J)
        y = np.concatenate(([0.0], np.cumsum(steps)))
        M = WeightSequence(y, label="rough")
        env = log_convex_minorant(M).log_values
        oracle = _all_chords_envelope(y)
        diff = float(np.max(np.abs(env - oracle)))
        worst_exact = max(worst_exact, diff)
        if diff != 0.0:
            mismatches += 1
        # recovery cannot see anything below the envelope
        aw = AssociatedWeight(M)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            R = legendre_recover(aw, J=ENVELOPE_J)
        rel, _ = _recovery_error(R, oracle, ENVELOPE_J)
        worst_recover = max(worst_recover, rel)
    passed = mismatches == 0 and worst_recover <= REL_TOL
    detail = (f"{ENVELOPE_TRIALS} random sequences (J={ENVELOPE_J}): "
              f"{mismatches} oracle mismatches (max abs {worst_exact:.3g}); "
              f"recovery-to-envelope max log-relative error {worst_recover:.3g}")
    return SuiteResult("envelope", passed, detail)


# ---------------------------------------------------------------------------
# 3. dual evaluation routes
# ---------------------------------------------------------------------------

def suite_dual_routes(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """Counting-function evaluation agrees with the literal supremum scan."""
    x = default_grid().log_t
    worst = 0.0
    worst_label = ""
    for M in battery:
        aw = AssociatedWeight(M)
        gap = float(np.max(np.abs(aw.omega_log(x, mode="closed_form")
                                  - aw.omega_log(x, mode="sup_scan"))))
        if gap > worst:
            worst, worst_label = gap, M.label
    passed = worst <= DUAL_ROUTE_ATOL
    detail = (f"max absolute gap {worst:.3g} over {len(x)} grid points x "
              f"{len(battery)} members, tolerance {DUAL_ROUTE_ATOL:g}")
    if not passed:
        detail += f"; worst member {worst_label}"
    return SuiteResult("dual-routes", passed, detail)


# ---------------------------------------------------------------------------
# 4. growth-condition chains
# ---------------------------------------------------------------------------

def suite_growth_chains(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """The equivalent formulations of each growth condition agree on every
    member and land on the expected family pattern."""
    bad: list[str] = []
    for M in battery:
        u = from_sequence(M)
        chain6 = {"weight": check_om6_weight(u),
                  "omega": check_om6_omega(M),
                  "mg": check_mg(M, DEFAULT_POLICY),
                  "mg_diag": check_mg_diag(M, DEFAULT_POLICY)}
        chain1 = {"weight": check_om1_weight(u),
                  "omega": check_om1_omega(M),
                  "index": check_om1_index(M, DEFAULT_POLICY)}
        want6 = "Fails" if is_q_dominated(M) else "Holds"
        for route, vd in chain6.items():
            if vd.state.value != want6:
                bad.append(f"{M.label}: shift-doubling {route}={vd.state.value}, want {want6}")
        for route, vd in chain1.items():
            if vd.state.value != "Holds":
                bad.append(f"{M.label}: value-doubling {route}={vd.state.value}, want Holds")
    passed = not bad
    detail = (f"7 routes x {len(battery)} members all match the family pattern"
              if passed else "; ".join(bad[:4]))
    return SuiteResult("growth-chains", passed, detail)


# ---------------------------------------------------------------------------
# 5. series probe closed form and envelope bounds
# ---------------------------------------------------------------------------

def suite_theta(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """The factorial probe matches exp(t/2) exactly and every battery probe
    respects its growth envelope at all certified points."""
    T = ThetaFunction(gevrey(1.0, REFERENCE_J), "dila", 1.0)
    closed_worst = 0.0
    for t in (1.0, 10.0, 100.0):
        val, _ = theta_eval(T, t)
        closed_worst = max(closed_worst, abs(val - t / 2.0) / max(1.0, t / 2.0))
    bad: list[str] = []
    checked = 0
    for M in battery:
        for kind, c in THETA_PROBES:
            vd = bounds_check(ThetaFunction(M, kind, c))
            checked += 1
            if not vd.holds:
                bad.append(f"{M.label}:{kind}:{c:g} {vd.state.value}")
    passed = closed_worst <= REL_TOL and not bad
    detail = (f"closed form (J={REFERENCE_J}) max relative error {closed_worst:.3g} at t "
              f"in {{1,10,100}}; envelope verified on {checked - len(bad)}/{checked} probes")
    if bad:
        detail += "; failing: " + ", ".join(bad[:3])
    return SuiteResult("theta-envelope", passed, detail)


# ---------------------------------------------------------------------------
# 6. associated-sequence fixed point
# ---------------------------------------------------------------------------

def suite_fixed_point(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """Sequence -> weight -> sequence is the identity on the reliable range,
    and the two-sided sandwich constant collapses to one."""
    worst_rel = 0.0
    worst_A = 0.0
    bad: list[str] = []
    for M in battery:
        u = from_sequence(M)
        R = associated_sequence(u, J=M.J)
        rel, _ = _recovery_error(R, M.log_values, M.J)
        worst_rel = max(worst_rel, rel)
        vd = sandwich_check(u, J=M.J)
        if not vd.holds:
            bad.append(f"{M.label}: sandwich {vd.state.value}")
            continue
        worst_A = max(worst_A, abs(float(vd.witnesses["A"]) - 1.0))
    passed = worst_rel <= REL_TOL and worst_A <= SANDWICH_SLACK and not bad
    detail = (f"max log-relative error {worst_rel:.3g} (tolerance {REL_TOL:g}); "
              f"max |A - 1| = {worst_A:.3g} (tolerance {SANDWICH_SLACK:g})")
    if bad:
        detail += "; " + "; ".join(bad[:3])
    return SuiteResult("fixed-point", passed, detail)


# ---------------------------------------------------------------------------
# 7. comparison bridges
# ---------------------------------------------------------------------------

def suite_bridges(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """Both comparison bridges fuse their independent routes to a decisive
    verdict on nearly every ordered pair, with no route ever contradicting
    another."""
    pairs = [(M, N) for M in battery for N in battery if M is not N]
    tri_decisive = 0
    pow_decisive = 0
    violations = 0
    entry_mismatch = 0
    for i, (M, N) in enumerate(pairs):
        routes_tri = triangle_routes(M, N)
        routes_pow = pow_routes(M, N)
        for routes in (routes_tri, routes_pow):
            states = {vd.state.value for vd in routes.values()}
            if "Holds" in states and "Fails" in states:
                violations += 1
        fused_tri = fuse_unanimous(routes_tri, note_prefix=TRIANGLE_BRIDGE)
        fused_pow = fuse_unanimous(routes_pow, note_prefix=POW_BRIDGE)
        tri_decisive += fused_tri.state.value != "Inconclusive"
        pow_decisive += fused_pow.state.value != "Inconclusive"
        if i % 60 == 0:
            # the public entry points are exactly these fusions
            if bridge_triangle_seq(M, N).state is not fused_tri.state:
                entry_mismatch += 1
            if bridge_pow_seq(M, N).state is not fused_pow.state:
                entry_mismatch += 1
    n = len(pairs)
    rate_tri = tri_decisive / n
    rate_pow = pow_decisive / n
    passed = (rate_tri >= UNANIMITY_FLOOR and rate_pow >= UNANIMITY_FLOOR
              and violations == 0 and entry_mismatch == 0)
    detail = (f"{n} ordered pairs: strong bridge decisive {rate_tri:.1%}, "
              f"power bridge decisive {rate_pow:.1%} (floor {UNANIMITY_FLOOR:.0%}); "
              f"route contradictions {violations}")
    if entry_mismatch:
        detail += f"; {entry_mismatch} entry-point mismatches"
    return SuiteResult("bridges", passed, detail)


# ---------------------------------------------------------------------------
# 8. impossible-growth falsification
# ---------------------------------------------------------------------------

def suite_falsification(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """The square-index comparison fails for every genuine member, and the
    diagonal growth route never disagrees with the full one."""
    bad: list[str] = []
    for M in battery:
        if not check_strong_2j(M, DEFAULT_POLICY).fails:
            bad.append(f"{M.label}: square-index comparison did not fail")
        if check_mg_diag(M, DEFAULT_POLICY).state is not check_mg(M, DEFAULT_POLICY).state:
            bad.append(f"{M.label}: diagonal and full growth routes disagree")
    passed = not bad
    detail = (f"all {len(battery)} members rejected; diagonal route agreed on every member"
              if passed else "; ".join(bad[:4]))
    return SuiteResult("falsification", passed, detail)


# ---------------------------------------------------------------------------
# 9. family-system equivalence
# ---------------------------------------------------------------------------

def suite_system_equiv(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """Dilation and power systems coincide exactly for the factorial-power
    family, and split for the quadratic-exponent family with a certified
    witness on every rung."""
    bad: list[str] = []
    for s in (0.5, 1.0, 2.0, 3.0):
        vd = system_equiv(gevrey(s, REFERENCE_J))
        if not vd.holds:
            bad.append(f"gevrey({s:g}): {vd.state.value}, want Holds")
    for q in (1.5, 2.0):
        M = q_gevrey(q, REFERENCE_J)
        vd = system_equiv(M)
        if not vd.fails:
            bad.append(f"qgevrey({q:g}): {vd.state.value}, want Fails")
            continue
        aw = AssociatedWeight(M)
        seen: set[float] = set()
        for H, xh in vd.evidence:
            lhs = 2.0 * float(aw.omega_log(xh)) - float(aw.omega_log(xh + math.log(H)))
            if lhs > H:
                seen.add(float(H))
            else:
                bad.append(f"qgevrey({q:g}): rung H={H:g} witness does not violate")
        missing = set(OM6_LADDER) - seen
        if missing:
            bad.append(f"qgevrey({q:g}): no certified witness at H in "
                       f"{sorted(missing)}")
    passed = not bad
    detail = (f"J={REFERENCE_J}: factorial powers hold, quadratic exponents fail with a "
              f"certified witness on all {len(OM6_LADDER)} rungs" if passed
              else f"J={REFERENCE_J}: " + "; ".join(bad[:4]))
    return SuiteResult("system-equivalence", passed, detail)


# ---------------------------------------------------------------------------
# 10. membership matrix
# ---------------------------------------------------------------------------

def suite_membership(battery: tuple[WeightSequence, ...]) -> SuiteResult:
    """Polynomials join every space; each series probe joins the union side
    of its own family and is rejected by the intersection side."""
    bad: list[str] = []
    checked = 0
    for M in battery:
        for flavor in FLAVORS:
            S = SpaceSpec(flavor, M, c=1.0 if flavor.startswith("Single") else None)
            for k in MONOMIAL_DEGREES:
                vd = membership(monomial(k), S)
                checked += 1
                if not vd.holds:
                    bad.append(f"t^{k} in {flavor}({M.label}): {vd.state.value}")
        for c in MEMBERSHIP_SCALES:
            f = theta_series(ThetaFunction(M, "dila", c))
            inside = membership(f, SpaceSpec("InductiveDila", M))
            outside = membership(f, SpaceSpec("ProjectiveDila", M))
            checked += 2
            if not inside.holds:
                bad.append(f"probe({M.label},{c:g}) union side: {inside.state.value}")
            if not outside.fails:
                bad.append(f"probe({M.label},{c:g}) intersection side: {outside.state.value}")
    passed = not bad
    detail = (f"{checked} membership checks all landed as predicted"
              if passed else f"{len(bad)}/{checked} wrong: " + "; ".join(bad[:3]))
    return SuiteResult("membership-matrix", passed, detail)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[..., SuiteResult]] = {
    "roundtrip": suite_roundtrip,
    "envelope": suite_envelope,
    "dual-routes": suite_dual_routes,
    "growth-chains": suite_growth_chains,
    "theta-envelope": suite_theta,
    "fixed-point": suite_fixed_point,
    "bridges": suite_bridges,
    "falsification": suite_falsification,
    "system-equivalence": suite_system_equiv,
    "membership-matrix": suite_membership,
}


def run_suite(name: str, battery: tuple[WeightSequence, ...]) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return SUITES[name](battery)

