"""Space layer: inclusion routing, family equivalence, membership."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthcomp.associated_weight
import growthcomp.spaces
from growthcomp import (FLAVORS, InclusionVerdict, PowerSeries, RoutingError,
                        SpaceSpec, ThetaFunction, Trend, classify,
                        decide_inclusion, default_grid, fails,
                        from_log_quotients, from_sequence, from_table,
                        from_values, gevrey, holds, inconclusive,
                        is_normalized, log_series_eval, membership, monomial,
                        norm_estimate, normalize, seq_preceq, system_equiv,
                        system_equiv_weight, theta_series)
from growthcomp.acceptance import THETA_PROBES
from growthcomp._kernel import SCAN_CELLS
from growthcomp.associated_weight import OM6_LADDER
from growthcomp.spaces import SCAN_CHUNK, TAIL_CUT, _band_cuts
from growthcomp.trend import DEFAULT_POLICY, MIN_WINDOW_POINTS
from growthcomp.weight_functions import FORALL_LADDER

# ---------------------------------------------------------------------------
# space specifications
# ---------------------------------------------------------------------------

def test_spec_axis_and_mode(g1):
    S = SpaceSpec("InductiveDila", g1)
    assert S.axis == "dila" and S.mode == "inductive" and not S.is_single
    T = SpaceSpec("SingleO", g1, c=1.0)
    assert T.axis is None and T.mode is None and T.is_single


def test_spec_shapes_follow_the_flavor_names(g1):
    assert FLAVORS == ("SingleO", "SingleLittleO", "InductiveDila",
                       "ProjectiveDila", "InductivePow", "ProjectivePow")
    for flavor in FLAVORS:
        single = flavor.startswith("Single")
        S = SpaceSpec(flavor, g1, c=1.0 if single else None)
        assert S.is_single == single
        assert S.mode == next((m.lower() for m in ("Inductive", "Projective")
                               if flavor.startswith(m)), None)
        assert S.axis == next((a.lower() for a in ("Dila", "Pow")
                               if flavor.endswith(a)), None)


def test_spec_validation(g1):
    with pytest.raises(ValueError, match="flavor"):
        SpaceSpec("Bogus", g1)
    with pytest.raises(ValueError, match="source"):
        SpaceSpec("SingleO", "notasequence")
    with pytest.raises(ValueError, match="little_o"):
        SpaceSpec("SingleLittleO", g1, little_o=True)


def test_member_selector_dilates_a_single_space(g1, g2):
    with pytest.raises(ValueError, match="single spaces"):
        SpaceSpec("InductiveDila", g1, c=64.0)
    assert SpaceSpec("SingleO", g2, c=1.0).sequence() is g2
    A = SpaceSpec("SingleO", g2, c=2.0)
    assert A.sequence() is None
    iv = decide_inclusion(A, SpaceSpec("SingleO", g1, c=1.0))
    assert iv.theorem_tag == "weighted sup-norm comparison"
    assert iv.verdict.holds


def test_a_selector_that_cancels_its_dilation_takes_the_sequence_routes(g1, g2):
    # log 2 + log 0.5 is 0.0 exactly, so the member's weight is omega_g2 itself
    A = SpaceSpec("SingleO", from_sequence(g2).dilate(2.0), c=0.5)
    assert A.sequence() is g2
    plain, B = SpaceSpec("SingleO", g2, c=1.0), SpaceSpec("SingleO", g1, c=1.0)
    for got, want in ((decide_inclusion(A, B), decide_inclusion(plain, B)),
                      (decide_inclusion(B, A), decide_inclusion(B, plain))):
        assert got.theorem_tag == want.theorem_tag
        assert got.theorem_tag == "plain-ratio comparison of sequence weights"
        assert repr(got.verdict) == repr(want.verdict)


def test_spec_describe(g1):
    assert SpaceSpec("SingleO", g1, c=2.0).describe() == "SingleO(gevrey(1), c=2)"


# ---------------------------------------------------------------------------
# inclusion routing
# ---------------------------------------------------------------------------

def test_crossing_orientation(g1, g2):
    for axis in ("Dila", "Pow"):
        up = decide_inclusion(SpaceSpec("Inductive" + axis, g2),
                              SpaceSpec("Projective" + axis, g1))
        down = decide_inclusion(SpaceSpec("Inductive" + axis, g1),
                                SpaceSpec("Projective" + axis, g2))
        assert up.verdict.holds and up.theorem_tag
        assert down.verdict.fails


def test_little_o_systems_match_big_o(g1, g2):
    for axis in ("Dila", "Pow"):
        for X, Y in ((g1, g2), (g2, g1)):
            big = decide_inclusion(SpaceSpec("Inductive" + axis, X),
                                   SpaceSpec("Projective" + axis, Y))
            small = decide_inclusion(
                SpaceSpec("Inductive" + axis, X, little_o=True),
                SpaceSpec("Projective" + axis, Y, little_o=True))
            assert big.verdict.state is small.verdict.state


def test_same_source_family_swap(g1, q15):
    for M in (g1, q15):
        iv = decide_inclusion(SpaceSpec("InductiveDila", M),
                              SpaceSpec("InductivePow", M))
        assert iv.verdict.holds
        assert iv.theorem_tag == "same-source family comparison"
    # the projective swap is where the q-family separates
    assert decide_inclusion(SpaceSpec("ProjectiveDila", g1),
                            SpaceSpec("ProjectivePow", g1)).verdict.holds
    assert decide_inclusion(SpaceSpec("ProjectiveDila", q15),
                            SpaceSpec("ProjectivePow", q15)).verdict.fails


def test_single_space_inclusions_track_plain_ratio(g1, g2, battery):
    A = SpaceSpec("SingleO", g1, c=1.0)
    B = SpaceSpec("SingleO", g2, c=1.0)
    assert decide_inclusion(A, A).verdict.holds
    assert decide_inclusion(B, A).verdict.holds
    assert decide_inclusion(A, B).verdict.fails
    assert decide_inclusion(A, B).theorem_tag == \
        "plain-ratio comparison of sequence weights"
    # soundness against the sequence order on a decisive battery slice
    agreements = 0
    for M in battery[:6]:
        for N in battery[:6]:
            iv = decide_inclusion(SpaceSpec("SingleO", M, c=1.0),
                                  SpaceSpec("SingleO", N, c=1.0))
            rel = seq_preceq(N, M)
            if iv.verdict.state.value != "Inconclusive" and \
                    rel.state.value != "Inconclusive":
                assert iv.verdict.holds == rel.holds, (M.label, N.label)
                agreements += 1
    assert agreements >= 20


def test_unrouted_pairs_raise(g1, q15):
    with pytest.raises(RoutingError, match="single weighted space"):
        decide_inclusion(SpaceSpec("SingleO", g1, c=1.0),
                         SpaceSpec("InductiveDila", q15))
    with pytest.raises(RoutingError, match="ProjectiveDila inside Inductive"):
        decide_inclusion(SpaceSpec("ProjectiveDila", g1),
                         SpaceSpec("InductiveDila", q15))


def test_family_swap_over_a_non_log_convex_sequence_raises():
    M = from_values([0.0, 2.0, 2.5, 6.0])
    with pytest.raises(RoutingError, match="normalized log-convex"):
        decide_inclusion(SpaceSpec("InductiveDila", M), SpaceSpec("InductivePow", M))


@pytest.mark.parametrize("axis", ["Dila", "Pow"])
def test_crossing_of_sequences_of_different_J_raises(axis):
    with pytest.raises(RoutingError, match="J = 64 and J = 128"):
        decide_inclusion(SpaceSpec(f"Inductive{axis}", gevrey(2.0, 64)),
                         SpaceSpec(f"Projective{axis}", gevrey(1.0, 128)))


@pytest.mark.parametrize("flavors", [("SingleO", "SingleO"),
                                     ("SingleLittleO", "SingleO")])
def test_single_spaces_of_sequences_of_different_J_raise(flavors):
    # the plain ratio used to compare only the common indices j <= 64
    left, right = flavors
    with pytest.raises(RoutingError, match="need one J, not J = 128 and J = 64"):
        decide_inclusion(SpaceSpec(left, gevrey(2.0, 128), c=1.0),
                         SpaceSpec(right, gevrey(1.0, 64), c=1.0))


def _table(log_t, omega_of_log_t):
    return from_table(np.exp(log_t), omega_of_log_t(np.maximum(log_t, 0.0)))


TABLE_LOG_T = np.linspace(-2.0, 8.0, 200)


def test_normalized_precondition_reads_omega_below_one():
    convex = _table(TABLE_LOG_T, lambda y: 0.5 * y ** 2)
    low = from_sequence(from_log_quotients(np.linspace(-1.0, 4.0, 128)))
    iv = decide_inclusion(SpaceSpec("InductiveDila", low),
                          SpaceSpec("ProjectiveDila", convex))
    norm = iv.preconditions["normalized_left"]
    assert norm.fails and norm.note == "omega does not vanish on t <= 1; normalize first"
    t, omega = norm.evidence[0]
    assert t == 1.0 and omega > 1.0
    assert iv.verdict.inconclusive and "normalized_left" in iv.verdict.note
    # quotients from e on keep omega at 0 up to t = e, and up to t = e / 2
    # after a dilation by 2
    lifted = from_sequence(from_log_quotients(np.linspace(1.0, 5.0, 128))).dilate(2.0)
    iv = decide_inclusion(SpaceSpec("InductiveDila", lifted),
                          SpaceSpec("InductivePow", lifted))
    assert iv.theorem_tag == "same-source family comparison (weight)"
    norm = iv.preconditions["normalized"]
    assert norm.holds and norm.note == "omega vanishes up to t = 1"
    assert norm.witnesses == {"omega_at_1": 0.0}


def test_tables_that_only_looked_normalized_fail_the_precondition():
    # 0 at its first point but 1 at t = 1; and a table that decreases below
    # t = 1, whose normalization leaves omega(0.5) = 1
    a = from_table([0.5, 1.0, 4.0], [0.0, 1.0, 2.0])
    b = normalize(from_table([0.1, 0.5, 1.0, 4.0], [1.0, 3.0, 2.0, 4.0]))
    for u, point in ((a, (1.0, 1.0)), (b, (0.5, 1.0))):
        vd = is_normalized(u)
        assert vd.fails and vd.evidence == (point,)
        assert "normalized=Fails" in system_equiv_weight(u).note
    iv = decide_inclusion(SpaceSpec("InductiveDila", a), SpaceSpec("ProjectiveDila", b))
    assert iv.preconditions["normalized_left"].fails
    assert iv.preconditions["normalized_right"].fails


def test_a_table_ending_before_one_leaves_the_precondition_open():
    # omega[0] = 0 does not say what omega does on (0.5, 1]
    for first in (1.0, 0.0):
        u = from_table([0.1, 0.5], [first, 2.0])
        vd = system_equiv_weight(u)
        assert vd.inconclusive and "normalized=Inconclusive" in vd.note
        iv = decide_inclusion(SpaceSpec("InductiveDila", u), SpaceSpec("ProjectiveDila", u))
        assert iv.preconditions["normalized_left"].inconclusive
        assert iv.verdict.inconclusive


def test_o_collapse_gate_fails_when_no_dilation_absorbs_the_doubling():
    linear = _table(TABLE_LOG_T, lambda y: 3.0 * y)
    convex = _table(TABLE_LOG_T, lambda y: 0.5 * y ** 2)
    iv = decide_inclusion(SpaceSpec("InductiveDila", linear, little_o=True),
                          SpaceSpec("ProjectiveDila", convex))
    assert iv.preconditions["o_collapse_left"].fails
    iv = decide_inclusion(SpaceSpec("SingleLittleO", linear), SpaceSpec("SingleO", linear))
    gate = iv.preconditions["o_vs_O_collapse"]
    assert gate.fails and gate.evidence == ((2.0, 0.0),)
    assert iv.sides["weight_order"].holds
    assert iv.verdict.inconclusive and "o_vs_O_collapse" in iv.verdict.note


def test_o_collapse_gate_abstains_on_a_short_table():
    short = _table(np.linspace(-2.0, 0.4, 25), lambda y: 0.5 * y ** 2)
    convex = _table(TABLE_LOG_T, lambda y: 0.5 * y ** 2)
    iv = decide_inclusion(SpaceSpec("InductiveDila", short, little_o=True),
                          SpaceSpec("ProjectiveDila", convex))
    gate = iv.preconditions["o_collapse_left"]
    assert gate.inconclusive
    assert gate.note == "collapse gate undecided on the faithful window"


def test_a_decisive_inclusion_names_its_route():
    with pytest.raises(ValueError, match="must name its route"):
        InclusionVerdict(holds(witnesses={"trivial": 1.0}), "")
    assert InclusionVerdict(inconclusive("undecided"), "").verdict.inconclusive


# ---------------------------------------------------------------------------
# family-system equivalence
# ---------------------------------------------------------------------------

def test_system_equivalence_discriminates(g1, q15):
    assert system_equiv(g1).holds
    vd = system_equiv(q15)
    assert vd.fails
    assert sorted({H for H, _ in vd.evidence}) == sorted(OM6_LADDER)


def test_system_equivalence_from_weight(g1):
    assert system_equiv_weight(from_sequence(g1)).holds


def test_system_equivalence_needs_log_convexity():
    with pytest.raises(RoutingError):
        system_equiv(from_values([0.0, 2.0, 2.5, 6.0]))


# ---------------------------------------------------------------------------
# series membership
# ---------------------------------------------------------------------------

def test_monomials_belong_everywhere(g1):
    f = monomial(2)
    for flavor in FLAVORS:
        c = 1.0 if flavor.startswith("Single") else None
        assert membership(f, SpaceSpec(flavor, g1, c=c)).holds, flavor


def test_theta_separates_the_dilation_modes(g1):
    f = theta_series(ThetaFunction(g1, "dila", 1.0))
    assert membership(f, SpaceSpec("InductiveDila", g1)).holds
    assert membership(f, SpaceSpec("ProjectiveDila", g1)).fails


def test_membership_abstains_where_no_window_decides(g1):
    # dilated by 1e6 the weight is faithful only below t = 512e-6, under the
    # grid start, so the series is evaluated on no point at all
    probe = theta_series(ThetaFunction(g1, "dila", 1.0))
    got = membership(probe, SpaceSpec("SingleO", g1, c=1e6))
    assert got.inconclusive and got.note == "faithful range leaves no window"
    # the top index dominates from the grid start on (2 log 1e-3 > -100)
    top = PowerSeries([-100.0, -np.inf, 0.0], "top")
    for flavor, c, note in (
            ("SingleO", 1.0, "series truncation dominates the window"),
            ("InductiveDila", None, "some family members window-limited and none admitted"),
            ("ProjectiveDila", None, "some family members window-limited; none rejected")):
        got = membership(top, SpaceSpec(flavor, g1, c=c))
        assert got.inconclusive and got.note == note, flavor


def test_little_o_membership_asks_for_decay(g1):
    # the probe is about exp(omega(t/2)): under exp(omega(t)) it decays,
    # against exp(omega(t/4)) it grows
    probe = theta_series(ThetaFunction(g1, "dila", 1.0))
    held = membership(probe, SpaceSpec("SingleLittleO", g1, c=1.0))
    assert held.holds and held.note == "weighted modulus decays on the window"
    assert held.witnesses["decay_slope"] < 0.0 and len(held.evidence) == 1
    failed = membership(probe, SpaceSpec("SingleLittleO", g1, c=0.25))
    assert failed.fails and failed.note.startswith("weighted modulus does not decay (slope ")
    assert len(failed.evidence) == 1


def test_inductive_membership_fails_when_no_member_admits(g1, g3):
    got = membership(theta_series(ThetaFunction(g1, "dila", 1.0)),
                     SpaceSpec("InductiveDila", g3))
    assert got.fails
    assert got.note == f"no family member up to c={OM6_LADDER[-1]:g} admits the series"
    assert len(got.evidence) == 4


def test_membership_evaluates_the_series_once(g1, monkeypatch):
    calls = []
    evaluate = growthcomp.spaces.log_series_eval

    def counted(f, x):
        calls.append(len(x))
        return evaluate(f, x)

    monkeypatch.setattr(growthcomp.spaces, "log_series_eval", counted)
    # a truncated series is evaluated once, into the window both systems read
    probe = theta_series(ThetaFunction(g1, "dila", 2.0))
    assert membership(probe, SpaceSpec("InductiveDila", g1)).holds
    assert membership(probe, SpaceSpec("ProjectiveDila", g1)).fails
    assert len(calls) == 1, calls
    calls.clear()
    assert membership(probe, SpaceSpec("InductiveDila", g1)).holds
    assert calls == []
    # a polynomial is evaluated per call, and only where a member reads it:
    # the projective system counts every sequence-backed member as held
    for flavor, want in (("InductiveDila", 1), ("ProjectiveDila", 0)):
        calls.clear()
        assert membership(monomial(3), SpaceSpec(flavor, g1)).holds
        assert len(calls) == want, (flavor, calls)


def test_projective_polynomial_membership_evaluates_no_omega(g1, monkeypatch):
    # a polynomial holds on every sequence-backed member, and the projective
    # verdict reads no member witness
    calls = []
    closed_form = growthcomp.associated_weight._closed_form

    def counted(*args):
        calls.append(len(args[2]))
        return closed_form(*args)

    monkeypatch.setattr(growthcomp.associated_weight, "_closed_form", counted)
    for flavor in ("ProjectiveDila", "ProjectivePow"):
        calls.clear()
        got = membership(monomial(3), SpaceSpec(flavor, g1))
        assert calls == [], flavor
        assert repr(got) == (
            "Verdict(state=<State.HOLDS: 'Holds'>, witnesses={'hardest_c': 0.0009765625}, "
            "evidence=(), note='admitted at every family member down to c=0.000976562')")


def test_norm_estimate_brackets(g1):
    lo, hi = norm_estimate(monomial(2), from_sequence(g1))
    assert lo <= hi and np.isfinite(hi)


def test_norm_estimate_has_no_upper_bound_past_the_end_slope():
    # omega of gevrey(1, 512) has slope at most 512 < 600, the top power
    lo, hi = norm_estimate(monomial(600), from_sequence(gevrey(1.0, 512)))
    assert np.isfinite(lo) and hi == np.inf


def test_series_evaluation_of_monomials():
    f = monomial(3, log_scale=np.log(2.0))
    x = np.array([0.0, 1.0, 2.5])
    val, arg = log_series_eval(f, x)
    np.testing.assert_allclose(val, np.log(2.0) + 3.0 * x, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(arg, [3, 3, 3])
    assert f.complete and f.top_index == 3


def test_series_evaluation_rejects_non_finite_points():
    for bad in (-np.inf, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            log_series_eval(monomial(2), np.array([0.0, bad]))


def _dense_log_series(f, x):
    """Reference kernel: the full terms matrix, its first-occurrence argmax
    and an explicit row-by-row sum.  Each column is computed on its own, so
    the columns go through 512 at a time."""
    c = f.log_abs_coeffs
    idx = np.nonzero(np.isfinite(c))[0]
    vals, args = np.empty(len(x)), np.empty(len(x), dtype=idx.dtype)
    for lo in range(0, len(x), 512):
        xb = x[lo:lo + 512]
        terms = c[idx][:, None] + idx.astype(float)[:, None] * xb[None, :]
        k = terms.argmax(axis=0)
        m = terms[k, np.arange(len(xb))]
        e = np.exp(terms - m)
        s = e[0].copy()
        for row in e[1:]:
            s = s + row
        vals[lo:lo + 512], args[lo:lo + 512] = m + np.log(s), idx[k]
    return vals, args


@pytest.fixture(scope="module")
def battery_probes(battery):
    return [theta_series(ThetaFunction(M, kind, c))
            for M in battery for kind, c in THETA_PROBES]


def test_series_values_do_not_depend_on_the_rest_of_the_grid(battery_probes):
    x = default_grid().log_t
    for f in battery_probes:
        vals, args = log_series_eval(f, x)
        for m in (1, 2, 511, 512, 513, 1025, 2049, 4095):
            pv, pa = log_series_eval(f, x[:m])
            np.testing.assert_array_equal(pv, vals[:m], err_msg=f"{f.label} m={m}")
            np.testing.assert_array_equal(pa, args[:m], err_msg=f"{f.label} m={m}")


def test_banded_series_kernel_equals_the_dense_sum(battery_probes, g1):
    x = default_grid().log_t
    rng = np.random.default_rng(7)
    j = np.arange(400)
    rough = -0.1 * j ** 1.5 + rng.normal(0.0, 20.0, len(j))
    rough[rng.random(len(j)) < 0.3] = -np.inf
    # rows 2 and 5 tie for the maximum at x = 1 (3 + 2 = 0 + 5)
    tied = PowerSeries([-50.0, -np.inf, 3.0, -np.inf, -np.inf, 0.0, -60.0], "tie")
    # at x = 0, row 0 lies 720 under the maximum: a subnormal leading term
    subnormal = PowerSeries([-720.0, 0.0, -1.0], "subnormal lead")
    assert 0.0 < np.exp(-720.0) < np.finfo(float).tiny
    # near x = 0 row 2 alone can hold the maximum; the rows after it lie in
    # (-746, -37), under a leading sum of about 1e-17
    one_row = PowerSeries([-39.0, -40.0, 0.0, -37.5, -100.0, -500.0, -745.0], "one row")
    assert 1.0 + (np.exp(-39.0) + np.exp(-40.0)) == 1.0
    # leading terms under -37 still count: together they move 1.0 by an ulp
    lead_sum = PowerSeries([-37.01, -37.02, -37.03, 0.0, -38.0], "leading sum")
    assert 1.0 + np.exp([-37.01, -37.02, -37.03]).sum() > 1.0
    exp_series = PowerSeries(-np.cumsum(np.log(np.maximum(np.arange(600.0), 1.0))), "exp")
    cases = [(f, x) for f in battery_probes] + [
        # -inf holes between the stored powers
        (theta_series(ThetaFunction(g1, "pow", 3.0)), x),
        (monomial(5, log_scale=1.5), x),
        # gaps and noise: not log-concave
        (PowerSeries(rough), x),
        (theta_series(ThetaFunction(g1, "dila", 1.0)), rng.permutation(x)),
        # the top index dominates the upper part of the grid
        (theta_series(ThetaFunction(gevrey(1.0, 64), "dila", 1.0)),
         np.linspace(-10.0, 60.0, 1500)),
        # the first of the tied rows wins inside a span of those two rows
        (tied, np.array([1.0])),
        (tied, np.array([0.999, 1.0, 1.001, 1.0])),
        (tied, np.linspace(0.0, 2.0, 513)),
        (subnormal, np.array([0.0, 0.0])),
        (subnormal, np.array([0.0])),
        (lead_sum, np.array([0.0, 1e-9])),
        # the max span is one row, and the trailing edge drops the rest
        (one_row, np.linspace(-1e-3, 1e-3, 40)),
        (one_row, np.zeros(3)),
        # the last block holds one point
        (theta_series(ThetaFunction(g1, "dila", 1.0)), x[:1025]),
        (PowerSeries(rough), x[1000:1513]),
        # the widest band lies in a later block: the exponential series needs
        # 7 rows at x = -5 and 265 across [-5, 5]
        (exp_series, np.concatenate([np.full(SCAN_CHUNK, -5.0),
                                     np.linspace(-5.0, 5.0, SCAN_CHUNK)])),
        (PowerSeries(rough), x[2000:2001]),
        (PowerSeries(rough), x[:0]),
    ]
    for f, xs in cases:
        _assert_dense(f, xs)
    vals, args = log_series_eval(PowerSeries(rough), x[:0])
    assert vals.shape == args.shape == (0,)
    assert vals.dtype == float and args.dtype == int
    # 20 blocks, more than one group of band bounds holds (16 at 4,000 terms);
    # each column of the reference stands alone, so it runs block by block
    big = PowerSeries(-np.cumsum(np.log(np.maximum(np.arange(4000.0), 1.0))), "exp, 4000")
    xs = np.linspace(-3.0, math.log(3000.0), 20 * SCAN_CHUNK)
    assert len(xs) // SCAN_CHUNK > SCAN_CELLS // 4000
    vals, args = log_series_eval(big, xs)
    for lo in range(0, len(xs), SCAN_CHUNK):
        ref_vals, ref_args = _dense_log_series(big, xs[lo:lo + SCAN_CHUNK])
        np.testing.assert_array_equal(vals[lo:lo + SCAN_CHUNK].view(np.int64),
                                      ref_vals.view(np.int64), err_msg=f"block at {lo}")
        np.testing.assert_array_equal(args[lo:lo + SCAN_CHUNK], ref_args)


def _assert_dense(f, xs):
    vals, args = log_series_eval(f, xs)
    ref_vals, ref_args = _dense_log_series(f, xs)
    np.testing.assert_array_equal(vals.view(np.int64), ref_vals.view(np.int64),
                                  err_msg=f.label)
    np.testing.assert_array_equal(args, ref_args, err_msg=f.label)


@st.composite
def _series_inputs(draw):
    """Log-coefficients with -inf holes and non-log-concave noise, and
    finite points, sorted or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # sizes from the seeded generator: hypothesis favours small integers
    n = int(rng.integers(1, 601))
    j = np.arange(n, dtype=float)
    c = (draw(st.floats(-1e3, 1e3)) - draw(st.floats(0.0, 2.0)) * j ** draw(st.floats(1.0, 2.0))
         + rng.normal(0.0, draw(st.floats(0.0, 60.0)), n))
    c[rng.random(n) < draw(st.floats(0.0, 0.9))] = -np.inf
    c[rng.integers(n)] = draw(st.floats(-1e3, 1e3))
    m = int(rng.integers(1, 1101))
    x = draw(st.floats(-60.0, 60.0)) + draw(st.floats(1e-6, 40.0)) * rng.standard_normal(m)
    if draw(st.booleans()):
        x.sort()
    return PowerSeries(c), x


@given(_series_inputs())
@settings(max_examples=60, deadline=None)
def test_banded_series_kernel_is_the_dense_sum_on_random_input(case):
    _assert_dense(*case)


def test_numpy_keeps_what_the_series_kernel_rests_on():
    # a (rows, >= 2) C-contiguous array sums row by row in index order; the
    # exact sum of this column is 1 + 999 * 2**-53, its row-by-row sum 1.0
    col = np.full(1000, 2.0 ** -53)
    col[0] = 1.0
    a = np.repeat(col[:, None], 2, axis=1)
    assert a.flags.c_contiguous
    assert math.fsum(col) > 1.0
    np.testing.assert_array_equal(a.sum(axis=0), [1.0, 1.0])
    np.testing.assert_array_equal(np.repeat(col[:, None], 512, axis=1).sum(axis=0),
                                  np.ones(512))
    # so does a (rows, >= 2) view of a prefix of a larger flat array, as the
    # kernel's work array hands each block
    flat = np.empty(1000 * 512 + 7)
    for w in (2, 512):
        view = flat[:1000 * w].reshape(1000, w)
        view[...] = col[:, None]
        assert view.flags.c_contiguous and not view.flags.owndata
        np.testing.assert_array_equal(view.sum(axis=0), np.ones(w))
    # multiply.outer into such a view, then c added in place, is c + j x
    rng = np.random.default_rng(19)
    js, cf, blk = np.arange(300.0), rng.normal(0.0, 300.0, 300), rng.normal(0.0, 30.0, 512)
    view = flat[:300 * 512].reshape(300, 512)
    np.multiply.outer(js, blk, out=view)
    view += cf[:, None]
    np.testing.assert_array_equal(view.view(np.int64),
                                  (cf[:, None] + js[:, None] * blk).view(np.int64))
    # reduceat over the block starts gives each block's min and max
    xs = rng.normal(0.0, 30.0, 5 * 512 + 1)
    starts = np.arange(0, len(xs), 512)
    for ends, per_block in ((np.minimum, np.min), (np.maximum, np.max)):
        np.testing.assert_array_equal(ends.reduceat(xs, starts),
                                      [per_block(xs[i:i + 512]) for i in starts])
    # exp underflows to exactly 0.0 below -745.14 and is exactly 1.0 at +-0
    below = np.array([-745.14, -745.5, -746.0, -1e4, -1e300])
    np.testing.assert_array_equal(np.exp(below).view(np.int64), np.zeros(5, np.int64))
    one = np.exp(np.array([0.0, -0.0]))
    np.testing.assert_array_equal(one.view(np.int64), np.ones(2).view(np.int64))
    # and stays under 2**-53 from -TAIL_CUT down
    assert np.exp(-TAIL_CUT) < 2.0 ** -53
    assert np.all(np.exp(np.linspace(-746.0, -TAIL_CUT, 100_001)) < 2.0 ** -53)


# ---------------------------------------------------------------------------
# pieces sized by cells, held windows
# ---------------------------------------------------------------------------

def _blocked_log_series(f, x):
    """The series kernel one SCAN_CHUNK block at a time: each block takes
    its own band cuts and sums its own terms array."""
    c = f.log_abs_coeffs
    idx = np.nonzero(np.isfinite(c))[0]
    cf, js = c[idx], idx.astype(float)
    vals, args = np.empty(len(x)), np.empty(len(x), dtype=int)
    rho = 8.0 * np.finfo(float).eps * (
        np.max(np.abs(cf)) + js[-1] * np.max(np.abs(x), initial=0.0))
    for lo in range(0, len(x), SCAN_CHUNK):
        xb = x[lo:lo + SCAN_CHUNK]
        n = len(xb)
        (a,), (s0,), (s1,), (b,) = _band_cuts(cf, js, xb.min(keepdims=True),
                                              xb.max(keepdims=True), rho)
        # numpy sums a lone column pairwise; a pair of columns sums by row
        w = max(n, 2)
        terms = cf[a:b, None] + js[a:b, None] * (xb if n == w else np.repeat(xb, w))
        s0, s1 = s0 - a, s1 - a
        k = s0 + terms[s0:s1].argmax(axis=0)
        m = terms[k, np.arange(w)]
        terms -= m
        np.maximum(terms[s1:], -TAIL_CUT, out=terms[s1:])
        vals[lo:lo + n] = (m + np.log(np.exp(terms).sum(axis=0)))[:n]
        args[lo:lo + n] = idx[a + k[:n]]
    return vals, args


def _sparse_polynomial(rng, n):
    c = rng.normal(0.0, 30.0, n) - 0.05 * np.arange(n) ** 1.5
    c[rng.random(n) < 0.6] = -np.inf
    c[-1] = rng.normal(0.0, 5.0)
    return PowerSeries(c, "sparse", complete=True)


def test_series_pieces_equal_the_kernel_block_by_block(battery, small_battery):
    x = default_grid().log_t
    rng = np.random.default_rng(28)
    series = ([monomial(k, log_scale=s) for k, s in ((0, 0.0), (3, 0.0), (40, -2.5))]
              + [_sparse_polynomial(rng, n) for n in (2, 30, 700)]
              + [theta_series(ThetaFunction(M, kind, c))
                 for Ms in (small_battery, battery[::4]) for M in Ms
                 for kind, c in THETA_PROBES]
              + [theta_series(ThetaFunction(gevrey(1.0, 4096), "dila", 1.0))])
    for f in series:
        for xs in (x[:0], x[:1], x[:2], x[:513], x[:1025], x, x[1000:2537]):
            vals, args = log_series_eval(f, xs)
            ref_vals, ref_args = _blocked_log_series(f, xs)
            np.testing.assert_array_equal(vals.view(np.int64), ref_vals.view(np.int64),
                                          err_msg=f"{f.label} at {len(xs)} points")
            np.testing.assert_array_equal(args, ref_args, err_msg=f.label)
            assert vals.dtype == float and args.dtype == int


def test_series_kernel_stays_within_its_cell_budget():
    # one block of this probe takes all 4,097 rows as its band: 16.8 MB of
    # terms for 512 points at once, SCAN_CELLS cells (512 KB) a piece
    f = theta_series(ThetaFunction(gevrey(1.0, 4096), "dila", 1.0))
    x = default_grid().log_t
    tracemalloc.start()
    try:
        log_series_eval(f, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _random_truncations(rng, count):
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 700))
        j = np.arange(n, dtype=float)
        c = (rng.normal(0.0, rng.uniform(0.0, 40.0), n)
             - rng.uniform(0.0, 3.0) * j ** rng.uniform(1.0, 1.8))
        c[rng.random(n) < rng.uniform(0.0, 0.8)] = -np.inf
        c[-1] = rng.uniform(-3.0, 1.0) * j[-1] ** 1.5
        out.append(PowerSeries(c, "random"))
    # the top index dominates from the grid start on
    return out + [PowerSeries([-100.0, -np.inf, 0.0], "top"), PowerSeries([-np.inf, 1.0], "lone")]


@pytest.mark.parametrize("J", [64, 512])
def test_held_window_is_the_evaluation_up_to_the_top_cut(J, battery, small_battery):
    x = default_grid().log_t
    probes = [theta_series(ThetaFunction(M, kind, c))
              for M in (battery if J == 512 else small_battery) for kind, c in THETA_PROBES]
    cut = 0
    for f in probes + _random_truncations(np.random.default_rng(J), 40):
        vals, inside = f._window
        n = len(vals)
        assert len(inside) == n and inside.dtype == bool
        want_vals, want_args = log_series_eval(f, x[:n])
        np.testing.assert_array_equal(vals.view(np.int64), want_vals.view(np.int64),
                                      err_msg=f.label)
        np.testing.assert_array_equal(inside, want_args < f.top_index, err_msg=f.label)
        _, args = log_series_eval(f, x)
        assert np.all(args[n:] == f.top_index), f.label
        if f in probes and n < len(x):
            # the probes read their last held block: some point of it lies
            # inside the window
            assert inside[n - SCAN_CHUNK:].any(), f.label
            cut += 1
    # the gevrey-type probes stop short of the grid end, the q-Gevrey ones not
    assert cut >= 25


def _judge_per_call(f, v, x, logf, args, little_o):
    """_series_vs_weight on arrays evaluated per call up to the widest
    member's end."""
    n = int(np.searchsorted(x, v.log_t_reliable, side="right"))
    x, logf, args = x[:n], logf[:n], args[:n]
    if f.complete and v.source is not None:
        window_sup, ev = 0.0, ()
        if n >= 2:
            d0 = logf - v.omega_log(x)
            k0 = int(np.argmax(d0))
            window_sup = float(d0[k0])
            ev = ((float(np.exp(x[k0])), window_sup),)
        return holds(witnesses={"top_index": float(f.top_index), "window_sup": window_sup},
                     evidence=ev, note="polynomial modulus decays against every weight "
                                       "backed by a sequence with diverging roots")
    if n < MIN_WINDOW_POINTS:
        return inconclusive("faithful range leaves no window")
    interior = np.ones(n, dtype=bool) if f.complete else args < f.top_index
    if int(interior.sum()) < MIN_WINDOW_POINTS:
        return inconclusive("series truncation dominates the window")
    xs = x[interior]
    d = logf[interior] - v.omega_log(xs)
    rep = classify(xs, d, DEFAULT_POLICY)
    k = int(np.argmax(d))
    at_k = ((float(np.exp(xs[k])), float(d[k])),)
    if little_o:
        if rep.kind is Trend.FALLING:
            return holds(witnesses={"decay_slope": rep.slope},
                         evidence=((float(np.exp(xs[-1])), float(d[-1])),),
                         note="weighted modulus decays on the window")
        return fails(evidence=at_k,
                     note=f"weighted modulus does not decay (slope {rep.slope:.3g})")
    if rep.kind is Trend.RISING:
        return fails(evidence=at_k, note=f"weighted modulus grows (slope {rep.slope:.3g})")
    return holds(witnesses={"log_norm_bound": float(d[k])}, evidence=at_k,
                 note="weighted modulus bounded on the window")


def _membership_per_call(f, S):
    """membership that evaluates the series on every call, on the grid up
    to the widest faithful end among the members it may visit."""
    little = S.little_o or S.flavor == "SingleLittleO"
    if S.is_single:
        members = [(None, S.weight())]
    else:
        v = S.weight()
        make = v.dilate if S.axis == "dila" else v.power
        ladder = OM6_LADDER if S.mode == "inductive" else FORALL_LADDER
        members = [(c, make(c)) for c in ladder]
    g = default_grid().log_t
    x = g[:int(np.searchsorted(g, max(u.log_t_reliable for _, u in members), side="right"))]
    logf, args = log_series_eval(f, x)
    judged = [(c, u, _judge_per_call(f, u, x, logf, args, little)) for c, u in members]
    if S.is_single:
        return judged[0][2]
    if S.mode == "inductive":
        for c, _, r in judged:
            if r.holds:
                return holds(witnesses={"c": float(c), **r.witnesses}, evidence=r.evidence,
                             note=f"admitted at family member c={c:g}")
        if any(r.inconclusive for _, _, r in judged):
            return inconclusive("some family members window-limited and none admitted")
        return fails(evidence=tuple(r.evidence[0] for _, _, r in judged if r.evidence)[:4],
                     note=f"no family member up to c={OM6_LADDER[-1]:g} admits the series")
    held = []
    for c, _, r in judged:
        if r.fails:
            return fails(evidence=r.evidence, note=f"rejected at family member c={c:g}")
        if r.holds:
            held.append(c)
    if len(held) < len(judged):
        return inconclusive("some family members window-limited; none rejected")
    return holds(witnesses={"hardest_c": float(min(held))},
                 note=f"admitted at every family member down to c={min(held):g}")


def test_membership_verdicts_equal_an_evaluation_per_call(battery):
    # a table backs no sequence: a polynomial is judged on each member's window
    t = np.geomspace(1e-3, 1e8, 300)
    table = from_table(t, np.log(t) ** 2 / 4.0, "table")
    for source in battery + (table,):
        M = battery[0] if source is table else source
        series = [theta_series(ThetaFunction(M, kind, c)) for kind, c in THETA_PROBES]
        for f in series + [monomial(0), monomial(3)]:
            for flavor in FLAVORS:
                S = SpaceSpec(flavor, source, c=1.0 if flavor.startswith("Single") else None)
                assert repr(membership(f, S).to_dict()) == repr(
                    _membership_per_call(f, S).to_dict()), (f.label, S.describe())


def test_power_series_guards():
    with pytest.raises(ValueError):
        PowerSeries(np.array([np.inf]))
    with pytest.raises(ValueError):
        PowerSeries(np.array([-np.inf, -np.inf]))
    with pytest.raises(ValueError):
        PowerSeries(np.zeros((2, 2)))
    s = PowerSeries(np.array([0.0, -np.inf, 1.0]))
    assert s.truncation == 2 and s.top_index == 2
