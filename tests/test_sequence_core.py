"""Sequence layer: constructors, envelope, scaling maps, growth checks."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import (WeightSequence, check_56_alternative, check_mg,
                        check_mg_diag, check_om1_index, check_strong_2j, fails,
                        from_file, from_log_quotients, from_quotients,
                        from_values, gevrey, holds, is_LC, is_log_convex,
                        log_convex_minorant, log_factorials, mixture, product,
                        q_gevrey, scale_pow, seq_approx, seq_preceq,
                        seq_triangle, standard_battery, tilde)
from growthcomp.sequence_core import _lower_hull_vertices, _mg_running, index_trend
from growthcomp.trend import DEFAULT_POLICY, Trend

# ---------------------------------------------------------------------------
# construction and frozen factory values
# ---------------------------------------------------------------------------

def test_from_quotients_prefix_products():
    M = from_quotients([1.0, 2.0, 3.0])
    np.testing.assert_allclose(M.log_values,
                               np.log([1.0, 1.0, 2.0, 6.0]), rtol=1e-12)


def test_gevrey_is_powered_factorial():
    M = gevrey(1.0, 8)
    assert M.log_values[4] == pytest.approx(np.log(24.0), rel=1e-12)
    np.testing.assert_allclose(gevrey(2.0, 8).log_values,
                               2.0 * log_factorials(8), rtol=1e-12)


def test_q_gevrey_square_exponent():
    # M_j = q^(j^2): quotients q^(2j-1), so M_3 = 2^9 and mu_3 = 2^5 at q = 2
    M = q_gevrey(2.0, 8)
    assert M.log_values[3] == pytest.approx(9.0 * np.log(2.0), rel=1e-12)
    assert M.quotient_array[3] == pytest.approx(5.0 * np.log(2.0), rel=1e-12)


def test_product_and_mixture_pointwise():
    A, B = gevrey(1.0, 16), q_gevrey(1.5, 16)
    np.testing.assert_allclose(product(A, B).log_values,
                               A.log_values + B.log_values, rtol=1e-12)
    np.testing.assert_array_equal(mixture(A, B).log_values,
                                  np.maximum(A.log_values, B.log_values))


def test_quotients_view_consistent():
    M = gevrey(1.0, 32)
    mu = M.quotient_array
    assert mu[0] == 0.0
    np.testing.assert_allclose(np.cumsum(mu[1:]), M.log_values[1:], atol=1e-12)


def test_quotients_must_match_the_differences_to_rounding():
    g = gevrey(1.0, 64)
    eps_v = np.finfo(float).eps * np.abs(g.log_values).max()
    near = g.quotient_array.copy()
    near[1:] += eps_v
    assert WeightSequence(g.log_values, log_quotients=near).J == 64
    # off by 5e-7, the closed form and the scan of omega would part at the knots
    for off in (5e-7, 16.0 * eps_v, np.nan):
        q = g.quotient_array.copy()
        q[1:] += off
        with pytest.raises(ValueError, match="inconsistent"):
            WeightSequence(g.log_values, log_quotients=q)


@pytest.mark.parametrize("bad", [[0.0], [0.0, 1.0]])
def test_too_short_rejected(bad):
    with pytest.raises(ValueError):
        from_values(bad)


def test_origin_must_be_one():
    with pytest.raises(ValueError):
        from_values([0.1, 1.0, 2.0])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        from_values([0.0, np.nan, 1.0])


@pytest.mark.parametrize("factory,arg", [(gevrey, 0.0), (gevrey, -1.0),
                                         (q_gevrey, 1.0), (q_gevrey, 0.5)])
def test_family_parameter_guards(factory, arg):
    with pytest.raises(ValueError):
        factory(arg)


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def test_from_file_json(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"label": "probe", "log_values": [0.0, 0.5, 1.5]}))
    M = from_file(p)
    assert M.label == "probe"
    np.testing.assert_array_equal(M.log_values, [0.0, 0.5, 1.5])


def test_from_file_csv_with_comments(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# index, log value\n0,0.0\n1,0.5\n2,1.5\n")
    M = from_file(p)
    assert M.J == 2 and M.label == "m"
    np.testing.assert_array_equal(M.log_values, [0.0, 0.5, 1.5])


def test_from_file_csv_gap_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0.0\n2,1.5\n")
    with pytest.raises(ValueError, match="consecutive"):
        from_file(p)


def test_from_file_json_needs_log_values(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"label": "x"}')
    with pytest.raises(ValueError, match="log_values"):
        from_file(p)


# ---------------------------------------------------------------------------
# log-convex minorant
# ---------------------------------------------------------------------------

def _all_chords(y: np.ndarray) -> np.ndarray:
    # quadratic reference: clip below every chord between index pairs
    env = y.copy()
    n = len(y)
    for a in range(n):
        for b in range(a + 1, n):
            ks = np.arange(a, b + 1, dtype=float)
            chord = y[a] + (y[b] - y[a]) * ((ks - a) / float(b - a))
            env[a:b + 1] = np.minimum(env[a:b + 1], chord)
    return env


def test_minorant_of_non_convex_input():
    M = from_values(np.log([1.0, 10.0, 20.0, 200.0]))
    env = log_convex_minorant(M)
    np.testing.assert_allclose(
        env.log_values,
        [0.0, 0.5 * np.log(20.0), np.log(20.0), np.log(200.0)], rtol=1e-12)


def test_minorant_fixes_convex_input():
    M = gevrey(1.0, 64)
    np.testing.assert_array_equal(log_convex_minorant(M).log_values,
                                  M.log_values)


@st.composite
def _walks(draw):
    steps = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2,
                          max_size=64))
    return np.concatenate(([0.0], np.cumsum(np.asarray(steps))))


@given(_walks())
@settings(max_examples=120, deadline=None)
def test_minorant_matches_all_chords_oracle(y):
    M = log_convex_minorant(from_values(y))
    # chords evaluated in a different order can land one ulp away; hull
    # vertices themselves must stay pinned to the input exactly
    np.testing.assert_allclose(M.log_values, _all_chords(y), rtol=0,
                               atol=1e-10)
    for k in M.meta.get("hull_vertices", range(len(y))):
        assert M.log_values[k] == y[k]


@given(_walks())
@settings(max_examples=120, deadline=None)
def test_minorant_properties(y):
    env = log_convex_minorant(from_values(y)).log_values
    assert np.all(env <= y + 1e-12)
    assert env[0] == y[0] and env[-1] == y[-1]
    assert np.all(np.diff(env, 2) >= -1e-9)
    again = log_convex_minorant(from_values(env)).log_values
    np.testing.assert_allclose(again, env, rtol=0, atol=1e-10)


def _numpy_scalar_hull(y: np.ndarray) -> np.ndarray:
    # the monotone chain as it read y before: numpy scalars, one index at a time
    out: list[int] = []
    for i in range(len(y)):
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            cross = (b - a) * (y[i] - y[a]) - (i - a) * (y[b] - y[a])
            if cross < 0.0:
                out.pop()
            else:
                break
        out.append(i)
    return np.asarray(out, dtype=int)


def test_hull_on_python_floats_keeps_the_numpy_scalar_vertices():
    rng = np.random.default_rng(4096)
    ys = [np.concatenate(([0.0], np.cumsum(rng.normal(0.6, 1.5, J))))
          for J in (2, 3, 64, 512, 4096) for _ in range(3)]
    # collinear runs (exact and one rounding off), flat runs and ties
    ys.append(0.1 * np.arange(300.0))
    ys.append(np.arange(300.0) / 3.0)
    ys.append(np.concatenate(([0.0], np.cumsum(np.repeat(rng.normal(0.0, 2.0, 30), 10)))))
    ys.append(np.concatenate(([0.0], np.cumsum(np.full(200, 0.3)))))
    ys.append(np.concatenate((np.zeros(50), np.ones(50), np.zeros(50))))
    ys.append(np.round(rng.normal(0.0, 1.0, 400), 1))
    for y in ys:
        np.testing.assert_array_equal(_lower_hull_vertices(y), _numpy_scalar_hull(y))


def _walk_near_the_float_range_end() -> np.ndarray:
    y = np.concatenate(([0.0], np.cumsum(np.random.default_rng(0).normal(0.6, 1.5, 64))))
    y[10] = -1.7e308
    return y


def test_hull_near_the_end_of_the_float_range_takes_its_turns_scaled():
    # unscaled, (b - a) * (y[i] - y[a]) overflows to inf and the chain keeps
    # the concave vertices 12, 13, ...; the minorant then failed its own
    # quotient check
    y = _walk_near_the_float_range_end()
    with np.errstate(over="ignore", invalid="ignore"):
        assert _numpy_scalar_hull(y)[:4].tolist() == [0, 10, 12, 13]
    hx = _lower_hull_vertices(y)
    assert hx.tolist() == [0, 10, 64]
    np.testing.assert_array_equal(hx, _numpy_scalar_hull(y * 2.0 ** -64))
    h = log_convex_minorant(from_values(y))
    assert h.meta["hull_vertices"] == [0, 10, 64]
    assert np.all(h.log_values <= y) and np.all(np.diff(h.quotient_array[1:]) >= 0.0)


def test_battery_members_superadditive(small_battery):
    # log-convex with origin 0 forces y[i] + y[j] <= y[i+j]
    for M in small_battery:
        y = M.log_values
        for j in range(M.J + 1):
            assert np.all(y[j] + y[:M.J + 1 - j] <= y[j:] + 1e-9), M.label


# ---------------------------------------------------------------------------
# scaling maps
# ---------------------------------------------------------------------------

def test_tilde_identity_at_one(g1):
    np.testing.assert_array_equal(tilde(g1, 1).log_values, g1.log_values)


def test_scale_pow_identity_at_one(g1):
    np.testing.assert_array_equal(scale_pow(g1, 1.0).log_values, g1.log_values)


def test_tilde_two_of_squared_factorial(fact_sq):
    # ((2j)!^2)^(1/2) = (2j)!
    T = tilde(fact_sq, 2)
    lf = log_factorials(2 * T.J)
    np.testing.assert_allclose(T.log_values, lf[::2], rtol=1e-12, atol=1e-9)


def test_scale_pow_shifts_by_geometric_factor(g2):
    S = scale_pow(g2, 2.0)
    np.testing.assert_allclose(
        S.log_values, g2.log_values - np.arange(g2.J + 1) * np.log(2.0),
        rtol=1e-12, atol=1e-9)


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_tilde_keeps_origin_and_convexity(c):
    T = tilde(gevrey(1.0, 64), c)
    assert T.log_values[0] == 0.0
    assert is_log_convex(T).holds


# ---------------------------------------------------------------------------
# growth and comparison checks
# ---------------------------------------------------------------------------

def test_log_convexity_verdicts():
    assert is_log_convex(gevrey(1.0, 32)).holds
    assert is_log_convex(from_values([0.0, 2.0, 2.5, 6.0])).fails


def test_alternative_settles_at_one_for_factorials(g1):
    vd = check_56_alternative(g1)
    assert vd.holds
    assert vd.witnesses["C"] == 1.0
    assert vd.witnesses["D"] == 1.0 and vd.witnesses["h"] == 1.0


def test_alternative_needs_wider_step_for_q_growth(q2):
    vd = check_56_alternative(q2)
    assert vd.holds
    assert vd.witnesses["C"] == 4.0


def test_alternative_rejects_squared_factorial(fact_sq):
    vd = check_56_alternative(fact_sq)
    assert vd.fails
    assert "every C" in vd.note


# every quotient is 2, so the roots log(M_j)/j are log 2 throughout
CONSTANT_QUOTIENT = from_log_quotients(np.full(64, np.log(2.0)))


def test_lc_fails_on_each_missing_part():
    # log-convex, but M_1 = e^-1 < 1
    vd = is_LC(from_values([0, -1, -1, 0, 2, 5, 9]))
    assert vd.fails and vd.note == "not normalized: M_1 < 1"
    assert vd.evidence == ((1.0, -1.0),)
    vd = is_LC(CONSTANT_QUOTIENT)
    assert vd.fails and vd.note.startswith("root sequence not diverging on window")
    assert vd.evidence[0][0] == 64.0


@pytest.mark.parametrize("check, M, note", [
    (check_mg_diag, from_values([0, 1, 3, 6]), "sequence too short for the diagonal check"),
    (check_strong_2j, from_values([0, 1, 3, 6]), "sequence too short for the doubling check"),
    # J = 7 leaves fewer than four indices for every step, which each skips
    (check_56_alternative, gevrey(1.0, 7),
     "sequence too short for the factorial-quotient check"),
    (check_om1_index, gevrey(1.0, 7), "sequence too short for the index ladder"),
], ids=["mg_diag", "strong_2j", "alternative_56", "om1_index"])
def test_short_sequences_abstain(check, M, note):
    vd = check(M)
    assert vd.inconclusive and vd.note == note


def test_index_ladder_fails_on_pinned_roots_and_abstains_on_a_straddle():
    vd = check_om1_index(CONSTANT_QUOTIENT)
    assert vd.fails and vd.note == "root ratio pinned near 1 for every L <= 16"
    assert vd.evidence == ((64.0, float(np.log1p(0.05))),)
    # the windowed root gap of a slow Gevrey sequence clears the margin
    # somewhere on the window but not everywhere, for every L
    vd = check_om1_index(gevrey(0.02, 128))
    assert vd.inconclusive
    assert vd.note == "windowed root gap straddles the margin for all tested L"


def _pairing_minima_per_n(y: np.ndarray) -> np.ndarray:
    # the literal reference: one sum of y and its reversal per n
    out = np.empty(len(y) - 2)
    for n in range(2, len(y)):
        seg = y[0:n + 1]
        out[n - 2] = (seg + seg[::-1]).min()
    return out


def _mg_reference(M: WeightSequence):
    # check_mg on the dense pairing minima: (running maximum, verdict)
    y = M.log_values
    n_vals = np.arange(2, M.J + 1)
    e = (y[2:] - _pairing_minima_per_n(y)) / n_vals
    running = np.maximum.accumulate(e)
    rep, (lo, hi) = index_trend(running, 2, DEFAULT_POLICY)
    evidence = ((float(n_vals[np.argmax(e)]), float(e.max())),)
    if rep.kind is Trend.RISING:
        return running, fails(evidence=evidence, note=f"pairing defect grows on n in "
                                                      f"[{lo},{hi}] (slope {rep.slope:.3g})")
    return running, holds(witnesses={"C": float(np.exp(e.max()))}, evidence=evidence,
                          note=f"running max stable on n in [{lo},{hi}]")


def _assert_mg_is_the_dense_scan(M: WeightSequence) -> None:
    # C = exp(e*) overflows to inf on steep walks (ROADMAP item 3)
    with np.errstate(over="ignore"):
        want_running, want = _mg_reference(M)
        got = check_mg(M)
    np.testing.assert_array_equal(_mg_running(M)[1].view(np.int64),
                                  want_running.view(np.int64), err_msg=M.label)
    assert repr(got.to_dict()) == repr(want.to_dict()), M.label


def _walk(rng, J: int, scale: float = 1.0, label: str = "") -> WeightSequence:
    steps = rng.normal(0.6 * scale, 1.5 * scale, J)
    return WeightSequence(np.concatenate(([0.0], np.cumsum(steps))), label=label or f"walk{J}")


def _pairing_inputs() -> list[WeightSequence]:
    # the minimum J, the edges of the doubling row blocks at 64 and 128, a
    # steep q-Gevrey sequence and a walk with steps of scale 1e3
    rng = np.random.default_rng(18)
    walks = [WeightSequence(np.concatenate(([0.0], np.cumsum(rng.normal(0.3, 2.0, J)))),
                            label=f"walk{J}")
             for J in (2, 3, 4, 5, 63, 64, 65, 66, 127, 128, 129, 1000)]
    steep = WeightSequence(np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 1e3, 300)))),
                           label="steep walk")
    return walks + [steep, q_gevrey(3.0, 2048)]


def _mg_inputs() -> list[WeightSequence]:
    rng = np.random.default_rng(30)
    j = np.arange(2049.0)
    walk = _walk(rng, 300)
    return (_pairing_inputs() + list(standard_battery(64)) + list(standard_battery(512))
            + [gevrey(1.0, 4096), q_gevrey(1.5, 4096),
               _walk(rng, 4096, label="walk4096a"), _walk(rng, 4096, label="walk4096b"),
               WeightSequence(np.zeros(513), label="zero"),
               WeightSequence(np.sqrt(j), label="sqrt"),
               _walk(rng, 2048, scale=1e-12, label="walk 1e-12"),
               # rounded lines: every pair sum of a row ties with the others
               # within an ulp, so the minimum may sit anywhere in the row
               WeightSequence(j / 3.0, label="j/3"), WeightSequence(0.7 * j, label="0.7j"),
               # no cuts: a -0.0 past index 0, and entries past 2^1000
               WeightSequence(np.where(j[:301] == 5, -0.0, walk.log_values), label="-0.0"),
               WeightSequence(1e300 * walk.log_values, label="walk 1e300")])


def test_mg_running_maximum_and_verdict_are_the_dense_scan():
    for M in _mg_inputs():
        _assert_mg_is_the_dense_scan(M)


@st.composite
def _perturbed_sequences(draw):
    J = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return _walk(rng, J, scale=10.0 ** draw(st.floats(-12.0, 3.0)))
    # a convex sequence from its stored quotients (with runs of equal ones,
    # whose pair sums tie within an ulp), then one index moved
    levels = rng.normal(0.0, 2.0, draw(st.sampled_from([1, 2, 3, J])))
    M = from_log_quotients(np.sort(rng.choice(levels, J)))
    k = draw(st.integers(1, J))
    shift = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-3, -1e-3, 1.0, -1.0, 50.0, -50.0]))
    if shift == 0.0:
        return M
    y = M.log_values.copy()
    y[k] += shift
    return WeightSequence(y)


@given(_perturbed_sequences())
@settings(max_examples=100, deadline=None)
def test_mg_is_the_dense_scan_on_walks_and_perturbed_convex_sequences(M):
    _assert_mg_is_the_dense_scan(M)


def test_mg_forms_at_most_one_percent_of_the_dense_cells():
    rng = np.random.default_rng(4096)
    for M in (gevrey(1.0, 4096), q_gevrey(1.5, 4096), _walk(rng, 4096)):
        n = np.arange(2, M.J + 1)
        cells, _ = _mg_running(M)
        assert cells <= 0.01 * int((n // 2 + 1).sum()), M.label


def test_mg_and_diagonal_route_agree(battery):
    for M in battery:
        assert check_mg(M).state is check_mg_diag(M).state, M.label


def test_triangle_implies_preceq(battery):
    pairs = [(A, B) for A in battery for B in battery if A is not B]
    checked = 0
    for A, B in pairs:
        if seq_triangle(A, B).holds:
            assert seq_preceq(A, B).holds, (A.label, B.label)
            checked += 1
    assert checked > 0


def test_approx_reflexive_and_symmetric(g1, q15):
    assert seq_approx(g1, g1).holds
    assert seq_approx(g1, scale_pow(g1, 3.0)).holds
    assert seq_approx(scale_pow(g1, 3.0), g1).holds
    assert seq_approx(g1, q15).fails
