"""Pair relations: dual-route bridges, transfer results, verdict fusion."""

from __future__ import annotations

import numpy as np
import pytest

from growthcomp import (TrendPolicy, Verdict, bridge_pow_seq,
                        bridge_triangle_seq, check_mg, fails,
                        from_log_quotients, from_values, fuse_conjunction,
                        fuse_unanimous, gevrey, holds, inconclusive,
                        mg_transfer_check, mixture, omega_little_o, pow_routes,
                        product, scale_pow, seq_approx, seq_preceq,
                        tildestrong_check, triangle_routes)
from growthcomp import (AssociatedWeight, Grid, associated_weight, grids,
                        q_gevrey, relations, sequence_core, standard_battery,
                        trend, weight_functions)
from growthcomp.cli import main
from growthcomp.weight_functions import RungSamples, forall_ladder, from_sequence

# ---------------------------------------------------------------------------
# frozen bridge outcomes
# ---------------------------------------------------------------------------

def test_bridge_truth_table(g1, g2, ghalf, q15, q2):
    crawler = product(ghalf, q15)
    table = [
        (g1, g2, "Holds", "Holds"),
        (g2, g1, "Fails", "Fails"),
        (g1, g1, "Fails", "Fails"),
        (q15, q2, "Holds", "Fails"),
        (g1, q15, "Holds", "Holds"),
        (q15, g1, "Fails", "Fails"),
        (q15, crawler, "Holds", "Fails"),
    ]
    for A, B, tri, pw in table:
        assert bridge_triangle_seq(A, B).state.value == tri, (A.label, B.label)
        assert bridge_pow_seq(A, B).state.value == pw, (A.label, B.label)


def test_routes_are_unanimous_for_factorial_pair(g1, fact_sq):
    tri = triangle_routes(g1, fact_sq)
    assert sorted(tri) == ["dilation_bounds", "dilation_gap", "roots"]
    assert all(v.holds for v in tri.values())
    pw = pow_routes(g1, fact_sq)
    assert sorted(pw) == ["compressed_roots", "omega_ratio", "power_gap"]
    assert all(v.holds for v in pw.values())


def test_bridge_agrees_with_its_routes(g1, q15):
    for A, B in ((g1, q15), (q15, g1)):
        states = {v.state for v in triangle_routes(A, B).values()}
        fused = bridge_triangle_seq(A, B)
        if len(states) == 1:
            assert fused.state in states


# ---------------------------------------------------------------------------
# transfer and ordering results
# ---------------------------------------------------------------------------

def test_one_pair_samples_each_forall_ladder_once(ghalf, g1, monkeypatch):
    # both dilation routes share one grid and one evaluation of v and w plus
    # one per dilation rung below 1; the power routes and the omega ratio
    # read the same window and add nothing: at most 2 + 10 closed-form
    # calls, fewer when the session's sequences hold their window already
    calls = []
    evaluate = AssociatedWeight.omega_log

    def counted(self, x, *args, **kwargs):
        calls.append(self.source.label)
        return evaluate(self, x, *args, **kwargs)

    monkeypatch.setattr(AssociatedWeight, "omega_log", counted)
    tri = triangle_routes(ghalf, g1)
    pw = pow_routes(ghalf, g1)
    # every dilation rung is visited: the ladder holds with no failing rung
    assert tri["dilation_gap"].holds and tri["dilation_bounds"].holds
    assert pw["power_gap"].holds
    assert len(calls) <= 12, calls


def test_both_bridges_of_a_pair_evaluate_their_window_once(monkeypatch, capsys):
    # the runs of the longer sequence on the shorter one's grid are formed
    # once for both bridges of a pair, and once for the four bridges of seq
    # compare; each sequence holds one such set, replaced by its next partner
    J = 128
    on_short_grid = []
    real = associated_weight._runs
    short_grid = gevrey(1.0, J).associated_weight.grid.log_t
    long_top = q_gevrey(1.5, J).associated_weight.hull.log_values[-1]

    def counted(P, knots, xs):
        if P[-1] == long_top and np.array_equal(xs, short_grid):
            on_short_grid.append(len(xs))
        return real(P, knots, xs)

    monkeypatch.setattr(associated_weight, "_runs", counted)
    short, long = gevrey(1.0, J), q_gevrey(1.5, J)
    assert short.associated_weight.log_mu_max < long.associated_weight.log_mu_max
    triangle_routes(short, long)
    pow_routes(short, long)
    assert len(on_short_grid) == 1
    held = vars(long.associated_weight)["_partner"]
    assert held[0] is short.associated_weight.grid.log_t
    assert "_partner" not in vars(short.associated_weight)
    # a third sequence, shorter still, takes the slot over
    shorter = gevrey(0.5, J)
    triangle_routes(long, shorter)
    held = vars(long.associated_weight)["_partner"]
    assert held[0] is shorter.associated_weight.grid.log_t
    on_short_grid.clear()
    assert main(["seq", "compare", "gevrey:1", "qgevrey:1.5", "--J", str(J)]) == 0
    capsys.readouterr()
    assert len(on_short_grid) == 1


def test_a_sweep_builds_one_grid_per_member_and_evaluates_it_once(monkeypatch):
    # a fresh battery: the session one may hold grids and evaluations already
    battery = standard_battery(512)
    ends = [M.associated_weight.log_mu_max for M in battery]
    spans = []
    real_span = grids._span_grid

    def counted_span(x_hi):
        spans.append(x_hi)
        return real_span(x_hi)

    for module in (associated_weight, weight_functions):
        monkeypatch.setattr(module, "_span_grid", counted_span)
    made = []
    real_init = Grid.__post_init__

    def counted_init(self):
        made.append(1)
        real_init(self)

    monkeypatch.setattr(Grid, "__post_init__", counted_init)
    # closed-form evaluations on a grid's own (read-only) points, by array
    own: dict[int, list] = {}
    real_closed_form = associated_weight._closed_form

    def counted_closed_form(P, knots, xs):
        if not xs.flags.writeable:
            own.setdefault(id(xs), [xs, 0])[1] += 1
        return real_closed_form(P, knots, xs)

    monkeypatch.setattr(associated_weight, "_closed_form", counted_closed_form)
    for M in battery:
        for N in battery:
            if M is not N:
                triangle_routes(M, N)
                pow_routes(M, N)
    # a grid per member at most, and no more grids than distinct ends: two
    # members share an end, and the longest span is never the shorter one
    assert all(spans.count(e) <= ends.count(e) for e in spans)
    assert len(made) == len(spans) <= len(set(ends))
    # one evaluation on each grid built, by its owner
    assert len(own) == len(spans)
    assert set(own) <= {id(M.associated_weight.grid.log_t) for M in battery}
    assert all(n == 1 for _, n in own.values())


def test_a_sweep_forms_each_rung_runs_once_and_holds_no_floats(monkeypatch):
    # a fresh battery: the session one may hold slots already.  Over all 420
    # ordered pairs the runs of each (member, rung) asked for are formed
    # once; every slot holds integers only (a partner slot keys them by the
    # partner grid's own points), and all runs take at most 0.25 MB
    battery = standard_battery(512)
    asked: set = set()
    formed: dict = {}
    real_rung = AssociatedWeight._rung

    def counted(self, c, start):
        before = vars(self).get("_rungs", {}).get(c)
        out = real_rung(self, c, start)
        key = (self.source.label, c)
        asked.add(key)
        if vars(self).get("_rungs", {}).get(c) is not before:
            formed[key] = formed.get(key, 0) + 1
        return out

    monkeypatch.setattr(AssociatedWeight, "_rung", counted)
    for M in battery:
        for N in battery:
            if M is not N:
                triangle_routes(M, N)
                pow_routes(M, N)
    assert len({M.label for M in battery}) == len(battery)
    assert asked and formed == dict.fromkeys(asked, 1)
    grids_held = [M.associated_weight.grid.log_t for M in battery]
    total = 0
    partners = 0
    for M in battery:
        slots = vars(M.associated_weight)
        runs = [r for _, r in slots.get("_rungs", {}).values()]
        if "_partner" in slots:
            xs, held = slots["_partner"]
            assert any(xs is g for g in grids_held)
            runs.append(held)
            partners += 1
        for width, i, j in runs:
            assert width.dtype == np.uint16 and i.dtype.kind == j.dtype.kind == "i"
            total += width.nbytes + i.nbytes + j.nbytes
    assert partners > 0
    assert 0 < total <= 0.25 * 2 ** 20


def test_the_preceq_ladder_reads_the_trends_the_triangle_ladder_fitted(
        ghalf, g1, monkeypatch):
    # both claims read one classification per rung: after the triangle
    # ladder, the preceq ladder fits nothing on a rung the triangle read
    calls = []
    real_classify = weight_functions.classify

    def counted(*args, **kwargs):
        calls.append(1)
        return real_classify(*args, **kwargs)

    monkeypatch.setattr(weight_functions, "classify", counted)
    fits: list[tuple[float, int]] = []  # (rung, classify calls of one trend)
    real_trend = RungSamples.trend

    def traced(self, c, name):
        before = len(calls)
        out = real_trend(self, c, name)
        fits.append((c, len(calls) - before))
        return out

    monkeypatch.setattr(RungSamples, "trend", traced)
    fitted_later = 0
    # (ghalf, g1) holds on every rung; (g1, g1) fails at its first rung,
    # so the preceq ladder goes on to rungs the triangle never read
    for v, w in ((g1, ghalf), (g1, g1)):
        for family in ("dilate", "power"):
            samples = RungSamples(from_sequence(v), from_sequence(w), family)
            forall_ladder("triangle", samples)
            read = {c for c, _ in samples.trends}
            fits.clear()
            calls.clear()
            forall_ladder("preceq", samples)
            assert sum(n for c, n in fits if c in read) == 0
            assert len(calls) == sum(n for _, n in fits)
            fitted_later += len(calls)
    assert fitted_later > 0


# ---------------------------------------------------------------------------
# fits on held abscissae
# ---------------------------------------------------------------------------

def _bits(rep):
    return rep.kind, rep.peak_inside, np.array([rep.slope]).view(np.int64)[0]


@pytest.mark.parametrize("J", [64, 512, 1024])
def test_every_held_fit_of_the_bridges_is_the_bare_array_fit(J, monkeypatch):
    # every fit on a held abscissa (rung gap, baseline and race suffix
    # fits, the little-o suffix, the index trends) against classify on a
    # fresh copy of its points, over every route of every 21st ordered pair
    real = trend.classify
    held = []

    def checked(x, y, policy, margin=None):
        got = real(x, y, policy, margin)
        if isinstance(x, trend.Abscissa):
            held.append(len(x.x))
            want = real(np.array(x.x), y, policy, margin)
            assert _bits(got) == _bits(want), (len(x.x), policy, margin)
        return got

    for module in (weight_functions, relations, sequence_core):
        monkeypatch.setattr(module, "classify", checked)
    battery = standard_battery(J)
    pairs = [(M, N) for M in battery for N in battery if M is not N][::21]
    for M, N in pairs:
        triangle_routes(M, N)
        pow_routes(M, N)
    assert len(held) > 20 * len(pairs)


def test_a_sweep_forms_each_held_window_once(monkeypatch):
    # the window and quarter scalars of each (grid, start, fraction) are
    # formed at most once over all 420 ordered pairs, and most fits read
    # scalars formed by an earlier fit
    formed: dict[tuple, int] = {}
    owners = []    # keeps every recorded array alive, so no id is reused
    fits = []
    moments = []
    real_moments = trend._moments

    def counted_moments(x, k):
        moments.append(1)
        return real_moments(x, k)

    def recorded(part):
        real = getattr(trend.Abscissa, part)

        def method(self, fraction):
            before = len(moments)
            out = real(self, fraction)
            if len(moments) > before and self.x.base is not None:
                owners.append(self.x)
                key = (part, id(self.x.base), len(self.x), fraction)
                formed[key] = formed.get(key, 0) + 1
            return out
        return method

    monkeypatch.setattr(trend, "_moments", counted_moments)
    for part in ("window", "quarter"):
        monkeypatch.setattr(trend.Abscissa, part, recorded(part))
    real_classify = trend.classify

    def counted(x, *args, **kwargs):
        fits.append(isinstance(x, trend.Abscissa))
        return real_classify(x, *args, **kwargs)

    for module in (weight_functions, relations, sequence_core):
        monkeypatch.setattr(module, "classify", counted)
    battery = standard_battery(512)
    for M in battery:
        for N in battery:
            if M is not N:
                triangle_routes(M, N)
                pow_routes(M, N)
    assert max(formed.values()) == 1
    windows = sum(1 for key in formed if key[0] == "window")
    assert 0 < windows < sum(fits) // 5


def test_mg_transfers_along_equivalence(g1, g2):
    assert mg_transfer_check(g1, scale_pow(g1, 2.0)).holds
    assert mg_transfer_check(g1, g2).state.value == "Inconclusive"


def test_mg_transfer_fails_where_equivalent_sequences_disagree():
    # N is M up to a factor e^(0.25 j sin j), so the two are equivalent, but
    # the wobble makes N's windowed pairing defect rise while M's stays flat
    M = gevrey(2.0, 128)
    j = np.arange(M.J + 1)
    N = from_values(M.log_values + 0.25 * j * np.sin(j))
    assert seq_approx(M, N).holds
    assert check_mg(M).holds and check_mg(N).fails
    vd = mg_transfer_check(M, N)
    assert vd.fails
    assert vd.note.startswith("equivalent sequences received different growth verdicts")
    assert vd.evidence == check_mg(M).evidence + check_mg(N).evidence


def test_little_o_orientation(g1, g2):
    assert omega_little_o(g2, g1).holds
    assert omega_little_o(g1, g2).fails
    assert omega_little_o(g1, g1).fails


def test_little_o_abstains_without_a_window():
    # every quotient of A is e^-8, so omega_A is faithful only below t = e^-8
    vd = omega_little_o(from_log_quotients(np.full(16, -8.0)), gevrey(1.0, 16))
    assert vd.inconclusive and vd.note == "shared faithful range leaves no window"
    # omega_B = 0 below its single quotient e^5, all of the shared window
    vd = omega_little_o(from_log_quotients(np.linspace(-6.5, -6.0, 16)),
                        from_log_quotients(np.full(16, 5.0)))
    assert vd.inconclusive and vd.note == "denominator weight vanishes on the window"


def test_little_o_judges_with_the_policy_it_is_given(g1, g2):
    # omega_g2 / omega_g1 stays below 1: a margin above that decides at once,
    # the default margin reads the trend of the ratio
    vd = omega_little_o(g2, g1, TrendPolicy(margin=1e3))
    assert vd.holds and vd.note == "ratio already below the margin on the whole window"
    assert omega_little_o(g2, g1).note.startswith("ratio falling on the window")


def test_tildestrong_orientation(g1, fact_sq):
    assert tildestrong_check(g1, fact_sq).holds
    assert tildestrong_check(fact_sq, g1).fails


def test_tildestrong_abstains_when_every_rung_is_short():
    vd = tildestrong_check(gevrey(1.0, 7), gevrey(2.0, 7))
    assert vd.inconclusive
    assert vd.note == ("no compression rung decidable "
                       "(short: [1, 2, 4, 8, 16], window-limited: [])")


def test_approx_is_transitive_on_decided_triples(g1, g2, g3):
    chain = [g1, scale_pow(g1, 2.0), scale_pow(g1, 0.5)]
    for A in chain:
        for B in chain:
            assert seq_approx(A, B).holds
    assert seq_approx(g1, g2).fails and seq_approx(g2, g3).fails


def test_strong_comparison_implies_power_comparison(g1, g2, q15, q2,
                                                    fact_sq, ghalf):
    # whenever one side has moderate growth, the strong route forces the
    # power route on the same ordered pair
    members = (g1, g2, q15, q2, fact_sq, product(ghalf, q15))
    premises = 0
    for A in members:
        for B in members:
            if A is B:
                continue
            if not (check_mg(A).holds or check_mg(B).holds):
                continue
            if bridge_triangle_seq(A, B).holds:
                assert bridge_pow_seq(A, B).holds, (A.label, B.label)
                premises += 1
    assert premises >= 3


def test_preceq_respects_mixture_bounds(g1, q15):
    mix = mixture(g1, q15)
    assert seq_preceq(g1, mix).holds
    assert seq_preceq(q15, mix).holds


# ---------------------------------------------------------------------------
# verdict fusion
# ---------------------------------------------------------------------------

def _h() -> Verdict:
    return holds(witnesses={"C": 1.0})


def _f() -> Verdict:
    return fails(evidence=((1.0, 2.0),))


def test_decisive_verdicts_need_support():
    with pytest.raises(ValueError, match="witness"):
        holds()
    with pytest.raises(ValueError, match="witness"):
        fails()


def test_unanimous_fusion():
    assert fuse_unanimous({"a": _h(), "b": _h()}).holds
    assert fuse_unanimous({"a": _f(), "b": _f()}).fails
    mixed = fuse_unanimous({"a": _h(), "b": _f()}, note_prefix="probe")
    assert mixed.state.value == "Inconclusive"
    assert mixed.note.startswith("probe:")
    thin = fuse_unanimous({"a": _h(), "b": inconclusive("thin")})
    assert thin.state.value == "Inconclusive"


def test_conjunctive_fusion():
    assert fuse_conjunction({"a": _h(), "b": _h()}).holds
    v = fuse_conjunction({"a": _h(), "b": _f()})
    assert v.fails and "failing: b" in v.note


def test_verdict_serialization():
    d = holds(witnesses={"C": 2.0}, note="n").to_dict()
    assert d == {"state": "Holds", "witnesses": {"C": 2.0}, "evidence": [],
                 "note": "n"}
