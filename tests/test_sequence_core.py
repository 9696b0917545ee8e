"""Sequence layer: constructors, envelope, scaling maps, growth checks."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcomp import (check_56_alternative, check_mg, check_mg_diag,
                        from_file, from_quotients, from_values, gevrey,
                        is_log_convex, log_convex_minorant, log_factorials,
                        mixture, product, q_gevrey, scale_pow, seq_approx,
                        seq_preceq, seq_triangle, tilde)

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
    assert M.log_quotients[3] == pytest.approx(5.0 * np.log(2.0), rel=1e-12)


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
