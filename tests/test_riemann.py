"""Envelope construction, wave fans, and self-similar profiles."""

import bisect
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracflow as ff
from fracflow import riemann as rm
from fracflow.flux import f_taylor

from conftest import draw_member

SQRT_HALF = 1.0 / math.sqrt(2.0)


def quadratic_pair():
    return ff.ModelPair(ff.power(1, 2), ff.power(1, 2))


def welge_tangency_oracle():
    """Root of f(s)/s = f'(s) for the quadratic-Corey flux, by bisection."""
    curve = rm.PairFlux(quadratic_pair())
    g = lambda s: curve.value(s) / s - curve.deriv(s)
    lo, hi = 0.55, 0.95
    assert g(lo) * g(hi) < 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) * g(lo) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_convex_flux_is_its_own_lower_envelope():
    pieces = rm.envelope(ff.parse("s^2"), 0.0, 1.0)
    assert len(pieces) == 1
    assert isinstance(pieces[0], rm.ContactArc)
    assert (pieces[0].left_state, pieces[0].right_state) == (0.0, 1.0)


def test_convex_flux_concave_envelope_is_single_chord():
    # a descending fan follows the upper concave envelope
    pieces = rm.envelope(ff.parse("s^2"), 1.0, 0.0)
    assert len(pieces) == 1
    shock = pieces[0]
    assert isinstance(shock, rm.Shock)
    assert (shock.left_state, shock.right_state) == (1.0, 0.0)
    assert abs(shock.speed - 1.0) <= 1e-12


def test_quadratic_corey_concave_envelope_matches_welge_tangent():
    oracle = welge_tangency_oracle()
    assert abs(oracle - SQRT_HALF) <= 1e-12  # known closed form
    pieces = rm.envelope(quadratic_pair(), 1.0, 0.0)
    assert len(pieces) == 2
    arc, shock = pieces  # fan order: from 1 down to the tangent point, then the shock to 0
    assert isinstance(shock, rm.Shock) and isinstance(arc, rm.ContactArc)
    assert shock.right_state == 0.0
    assert abs(shock.left_state - oracle) <= 1e-8
    assert abs(arc.left_state - 1.0) <= 1e-12


def test_degenerate_interval_yields_empty_envelope():
    assert rm.envelope(ff.parse("s^2"), 0.3, 0.3) == []


def test_envelope_sandwich_property():
    rng = np.random.default_rng(77)
    for _ in range(10):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        curve = rm.PairFlux(pair)
        a, b = sorted(rng.uniform(0.0, 1.0, 2))
        if b - a < 1e-3:
            continue
        pieces = rm.envelope(curve, float(a), float(b))
        fa, fb = curve.value(float(a)), curve.value(float(b))
        for p in pieces:
            for t in np.linspace(p.left_state, p.right_state, 20):
                t = float(t)
                env = (
                    curve.value(p.left_state)
                    + (t - p.left_state) * p.speed
                    if isinstance(p, rm.Shock)
                    else curve.value(t)
                )
                # below the flux, above the end-to-end chord
                assert env <= curve.value(t) + 1e-10
                chord_ab = fa + (t - a) / (b - a) * (fb - fa)
                assert env >= min(chord_ab, fa, fb) - 1e-10
                if isinstance(p, rm.ContactArc):
                    assert abs(env - curve.value(t)) <= 1e-10


def test_equal_states_give_empty_fan():
    fan = rm.solve(rm.RiemannProblem(0.3, 0.3, quadratic_pair()))
    assert fan.waves == []
    assert rm.evaluate(fan, -1.0) == 0.3
    assert rm.evaluate(fan, 5.0) == 0.3


@pytest.mark.parametrize("s_L, s_R", [(0.5, math.nextafter(0.5, 1.0)), (math.nextafter(0.5, 1.0), 0.5),
                                      (0.3, 0.3 + 2e-16), (1.0, math.nextafter(1.0, 0.0))])
def test_states_fewer_floats_apart_than_samples_give_one_rarefaction_and_no_warning(s_L, s_R):
    # most of the samples on so short an interval repeat one float: their slopes are 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fan = rm.solve(rm.RiemannProblem(s_L, s_R, quadratic_pair()))
        profile = [rm.evaluate(fan, xi) for xi in np.linspace(-1.0, 3.0, 201)]
    (wave,) = fan.waves
    assert isinstance(wave, rm.Rarefaction) and (wave.left_state, wave.right_state) == (s_L, s_R)
    assert profile[0] == s_L and profile[-1] == s_R
    assert all(min(s_L, s_R) <= s <= max(s_L, s_R) for s in profile)


def test_quadratic_corey_drainage_fan():
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, quadratic_pair()))
    assert len(fan.waves) == 2
    rare, shock = fan.waves
    assert isinstance(rare, rm.Rarefaction) and isinstance(shock, rm.Shock)
    assert rare.left_state == 1.0
    assert abs(shock.left_state - SQRT_HALF) <= 1e-5
    assert shock.right_state == 0.0
    expected_speed = (0.5 / (2.0 - math.sqrt(2.0))) / SQRT_HALF
    assert abs(shock.speed - expected_speed) <= 1e-5


def test_convex_raw_flux_single_shock():
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, ff.parse("s^2")))
    assert len(fan.waves) == 1
    shock = fan.waves[0]
    assert isinstance(shock, rm.Shock)
    assert abs(shock.speed - 1.0) <= 1e-12


def test_mirror_problem_is_state_symmetric():
    fan_down = rm.solve(rm.RiemannProblem(1.0, 0.0, quadratic_pair()))
    fan_up = rm.solve(rm.RiemannProblem(0.0, 1.0, quadratic_pair()))
    assert len(fan_down.waves) == len(fan_up.waves) == 2
    rare_d, shock_d = fan_down.waves
    rare_u, shock_u = fan_up.waves
    assert abs(rare_u.left_state - (1.0 - rare_d.left_state)) <= 1e-9
    assert abs(rare_u.right_state - (1.0 - rare_d.right_state)) <= 1e-9
    assert abs(shock_u.speed - shock_d.speed) <= 1e-9  # f'(s) = f'(1-s) here


def test_evaluate_across_single_shock():
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, ff.parse("s^2")))
    speed = fan.waves[0].speed
    assert rm.evaluate(fan, speed - 1e-6) == 1.0
    assert rm.evaluate(fan, speed + 1e-6) == 0.0


def test_evaluate_inverts_rarefaction():
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, quadratic_pair()))
    curve = fan.flux
    rare = fan.waves[0]
    for xi in np.linspace(rare.speed_lo + 1e-6, rare.speed_hi - 1e-6, 25):
        s = rm.evaluate(fan, float(xi))
        assert abs(curve.deriv(s) - xi) <= 1e-8


def test_evaluate_is_monotone_between_states():
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, quadratic_pair()))
    xi = np.linspace(-0.5, 2.0, 200)
    vals = [rm.evaluate(fan, float(x)) for x in xi]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))  # decreasing here
    assert vals[0] == 1.0 and vals[-1] == 0.0


def test_s_shaped_drainage_is_rarefaction_then_shock():
    rng = np.random.default_rng(99)
    count = 0
    while count < 20:
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        if not ff.inflection_points(pair).s_shaped:
            continue
        count += 1
        fan = rm.solve(rm.RiemannProblem(1.0, 0.0, pair))
        kinds = tuple(type(w) for w in fan.waves)
        assert kinds == (rm.Rarefaction, rm.Shock), (str(pair.m_a), str(pair.m_b))


def _fan_speed_list(fan):
    out = []
    for w in fan.waves:
        if isinstance(w, rm.Shock):
            out.append((w.speed, w.speed))
        else:
            out.append((w.speed_lo, w.speed_hi))
    return out


def test_random_problems_satisfy_wave_invariants():
    rng = np.random.default_rng(2024)
    for k in range(200):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        s_l = float(rng.uniform(0.0, 1.0))
        s_r = float(rng.uniform(0.0, 1.0))
        fan = rm.solve(rm.RiemannProblem(s_l, s_r, pair))
        curve = fan.flux

        # states chain monotonically from s_L to s_R
        states = [s_l]
        for w in fan.waves:
            assert abs(w.left_state - states[-1]) <= 1e-9
            states.append(w.right_state)
        assert abs(states[-1] - s_r) <= 1e-9
        diffs = np.diff(states)
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

        # speeds nondecreasing along the fan
        speeds = _fan_speed_list(fan)
        for (lo, hi) in speeds:
            assert hi >= lo - 1e-9
        for (_, hi), (lo, _) in zip(speeds, speeds[1:]):
            assert lo >= hi - 1e-9

        # Rankine-Hugoniot on every shock
        for w in fan.waves:
            if isinstance(w, rm.Shock):
                jump = w.right_state - w.left_state
                res = w.speed * jump - (curve.value(w.right_state) - curve.value(w.left_state))
                assert abs(res) < 1e-10

        # profile monotone between the states (spot-checked: inversion is slow)
        if fan.waves and k % 4 == 0:
            all_speeds = [x for pairval in speeds for x in pairval]
            xi = np.linspace(min(all_speeds) - 0.2, max(all_speeds) + 0.2, 40)
            vals = np.array([rm.evaluate(fan, float(x)) for x in xi])
            d = np.diff(vals)
            assert np.all(d >= -1e-9) or np.all(d <= 1e-9)


def test_problem_state_validation():
    with pytest.raises(ValueError):
        rm.RiemannProblem(-0.1, 0.5, ff.parse("s^2"))
    with pytest.raises(ValueError):
        rm.RiemannProblem(0.1, 1.5, ff.parse("s^2"))


def test_non_finite_flux_and_nan_xi_are_rejected():
    pair = ff.ModelPair(ff.parse("exp(1000*s)"), ff.parse("exp(1000*s)"))
    with np.errstate(over="ignore", invalid="ignore"):  # exp overflows, inf/inf is NaN
        with pytest.raises(ff.DomainError, match="non-finite flux value") as info:
            rm.envelope(pair, 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, rm.DEFAULT_SAMPLES + 1)
        assert info.value.index == int(np.flatnonzero(~np.isfinite(ff.f_value(pair, xs)))[0])
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, ff.ModelPair(ff.corey_a(), ff.corey_b())))
    with pytest.raises(ValueError, match="NaN"):
        rm.evaluate(fan, math.nan)


def test_chords_sharing_a_hull_vertex_meet_between_their_refined_ends():
    # a dip 0.3 deep and ~0.01 wide under a concave cap: the lower convex
    # envelope is two chords whose tangency points lie ~2e-5 apart in the dip,
    # closer than one sample spacing, so both chords end at one hull vertex
    curve = rm.ExprFlux(ff.parse("s*(1 - s) - 0.3*exp(-20000*(s - 0.4)^2)"))
    pieces = rm.envelope(curve, 0.0, 1.0)
    assert [type(p) for p in pieces] == [rm.Shock, rm.Shock]
    left, right = pieces
    assert (left.left_state, left.right_state, right.right_state) == (0.0, right.left_state, 1.0)
    joint = left.right_state
    assert abs(joint - 0.4) < 1.0 / rm.DEFAULT_SAMPLES
    for shock in pieces:
        assert shock.speed == ((curve.value(shock.right_state) - curve.value(shock.left_state))
                               / (shock.right_state - shock.left_state))
    # the joint is the mean of the two refined ends, where f' equals neither
    # chord's slope but lies about halfway between them
    assert abs(curve.deriv(joint) - 0.5 * (left.speed + right.speed)) < 0.1 * (right.speed - left.speed)


CE3_FLUX = ("s^1.1*(1 + 15*s^30)/(s^1.1*(1 + 15*s^30) + (1 - s)^1.1*(1 + 15*(1 - s)^30))")


@pytest.mark.parametrize("text", ["s^2/(s^2 + (1 - s)^2)", "s^2", CE3_FLUX])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 0.5), (0.05, 0.6), (0.3, 0.95)])
def test_concave_envelope_is_the_convex_envelope_of_the_negated_flux(text, a, b):
    # the upper concave envelope of f, the fan from b down to a, is exactly
    # minus the lower convex envelope of -f, the fan from a up to b: the same
    # pieces in reverse, each with its states swapped and shock speeds negated
    upper = rm.envelope(ff.parse(text), b, a)
    lower = rm.envelope(ff.parse(f"-({text})"), a, b)
    assert upper
    assert upper == [
        rm.Shock(p.right_state, p.left_state, -p.speed) if isinstance(p, rm.Shock)
        else rm.ContactArc(p.right_state, p.left_state) for p in reversed(lower)
    ]


# -- rarefaction inversion ---------------------------------------------------

def plain_bisection(g, lo, hi, tol):
    """Bisection on a sign change of g in [lo, hi], independent of fracflow's
    bracket solver."""
    g_lo = g(lo)
    if g_lo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_profile(fan, xi):
    """evaluate() as plain bisection on f' - xi over each whole arc, with the
    end states at the end speeds."""
    state = fan.s_left
    for w in fan.waves:
        if isinstance(w, rm.Shock):
            if xi < w.speed:
                return state
        else:
            if xi < w.speed_lo:
                return state
            if xi == w.speed_lo:
                return w.left_state
            if xi == w.speed_hi:
                return w.right_state
            if xi < w.speed_hi:
                lo, hi = sorted((w.left_state, w.right_state))
                return plain_bisection(lambda t: fan.flux.deriv(t) - xi, lo, hi, rm.INVERT_TOL)
        state = w.right_state
    return state


def _clipped_end(pair, s):
    try:
        f_taylor(pair, s, 1)
    except ff.DomainError:
        return True
    return False


INVERSION_CASES = [
    (f"{name} {s_L:g}->{1.0 - s_L:g}", ff.ModelPair(m, m), s_L)
    for name, m in ff.catalog().items() for s_L in (1.0, 0.0)
] + [("corey 1->0", ff.ModelPair(ff.corey_a(), ff.corey_b()), 1.0),
     ("corey 0->1", ff.ModelPair(ff.corey_a(), ff.corey_b()), 0.0)]


@pytest.mark.parametrize("name,pair,s_L", INVERSION_CASES, ids=[c[0] for c in INVERSION_CASES])
def test_evaluate_agrees_with_bisection_on_the_exact_slope(name, pair, s_L):
    fan = rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, pair))
    rarefactions = [w for w in fan.waves if isinstance(w, rm.Rarefaction)]
    assert rarefactions
    for w in rarefactions:
        xis = [w.speed_lo, w.speed_hi, *np.linspace(w.speed_lo, w.speed_hi, 23)[1:-1].tolist()]
        if 1.0 in (w.left_state, w.right_state):  # the flat end, f'(1) = 0
            xis += [w.speed_lo + d for d in (1e-12, 1e-9, 1e-6, 1e-3)]
        for xi in xis:
            assert abs(rm.evaluate(fan, xi) - bisection_profile(fan, xi)) <= rm.INVERT_TOL, xi


@pytest.mark.parametrize("name,pair,s_L", INVERSION_CASES, ids=[c[0] for c in INVERSION_CASES])
def test_evaluate_returns_the_end_states_at_the_end_speeds(name, pair, s_L):
    # speed_lo = f'(left_state) and speed_hi = f'(right_state), so the end
    # states are exact roots and need no search; a flat end (f' underflowing
    # to 0 over a stretch) could otherwise resolve to an interior point of it
    fan = rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, pair))
    calls = []
    deriv = fan.flux.deriv
    fan.flux.deriv = lambda t: calls.append(t) or deriv(t)
    for w in fan.waves:
        if isinstance(w, rm.Rarefaction):
            assert rm.evaluate(fan, w.speed_lo) == w.left_state
            assert rm.evaluate(fan, w.speed_hi) == w.right_state
    assert not calls


def test_inversion_cases_cover_clipped_endpoint_speeds():
    clipped = [name for name, pair, s_L in INVERSION_CASES
               if any(_clipped_end(pair, w.left_state) or _clipped_end(pair, w.right_state)
                      for w in rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, pair)).waves
                      if isinstance(w, rm.Rarefaction))]
    assert len(clipped) >= 4, clipped


def test_evaluate_on_a_raw_flux_expression_agrees_with_bisection():
    fan = rm.solve(rm.RiemannProblem(0.0, 1.0, ff.parse(CE3_FLUX)))
    for x in np.linspace(-0.2, 3.0, 101).tolist():
        assert abs(rm.evaluate(fan, x) - bisection_profile(fan, x)) <= rm.INVERT_TOL, x


def test_a_curve_object_with_its_own_value_and_deriv_is_inverted():
    # any object with value(s) and deriv(s, order=1) serves as a fan's curve;
    # the inversion takes f' and f'' from deriv(t, 2)
    class SlopeOnly:
        def __init__(self, curve):
            self.value, self.deriv = curve.value, curve.deriv

    pair = ff.ModelPair(ff.corey_a(), ff.corey_b())
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, SlopeOnly(rm.PairFlux(pair))))
    for x in np.linspace(0.0, 2.0, 41).tolist():
        assert abs(rm.evaluate(fan, x) - bisection_profile(fan, x)) <= rm.INVERT_TOL, x


def test_evaluate_leaves_the_fan_unchanged():
    pair = quadratic_pair()
    fan = rm.solve(rm.RiemannProblem(1.0, 0.0, pair))
    text, twin = repr(fan), rm.WaveFan(fan.s_left, fan.s_right, list(fan.waves), fan.flux)
    fields = set(vars(fan))
    w = next(w for w in fan.waves if isinstance(w, rm.Rarefaction))
    rm.evaluate(fan, 0.5 * (w.speed_lo + w.speed_hi))
    assert repr(fan) == text
    assert fan == twin
    assert set(vars(fan)) == fields


def _counting(fan):
    """The fan's curve with its deriv recording the point of every call."""
    calls, deriv = [], fan.flux.deriv
    fan.flux.deriv = lambda *args: calls.append(args[0]) or deriv(*args)
    return calls


def _end_interval(w, xi):
    """The end state whose speed and nearest edge slope enclose xi (the arc's
    first or last edge interval), or None."""
    _, slopes = w.samples
    sign = 1.0 if w.left_state < w.right_state else -1.0
    j = int(slopes.searchsorted(sign * xi))
    return (min if j == 0 else max)(w.left_state, w.right_state) if j in (0, len(slopes)) else None


@pytest.mark.parametrize("name,pair,s_L", INVERSION_CASES, ids=[c[0] for c in INVERSION_CASES])
def test_inversion_starts_from_the_end_speeds_and_needs_few_slope_calls(name, pair, s_L):
    # the start interpolated among the arc's nodes is within O(h^2) of the
    # root, so one order-2 call for a Newton step and two calls that verify
    # its sign change reach INVERT_TOL: 3 calls per xi, against ~33 for
    # bisection.  Next to an end whose speed is clipped (f' ~ (1 - s)^0.1 for
    # counterexample 1) the step may leave the arc and the whole-arc solver
    # runs, so 3.5 calls per xi holds only away from such an end's edge
    # interval (counterexample 1 takes 4.24 over all its xi); the solver
    # takes its end values from the wave's speeds, so f' is never evaluated
    # at the end states
    fan = rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, pair))
    calls = _counting(fan)
    n_xi, clear = 0, []  # calls per xi away from a clipped end's end interval
    for w in fan.waves:
        if isinstance(w, rm.Rarefaction):
            for xi in np.linspace(w.speed_lo, w.speed_hi, 23)[1:-1].tolist():
                before = len(calls)
                rm.evaluate(fan, xi)
                n_xi += 1
                end = _end_interval(w, xi)
                if end is None or not _clipped_end(pair, end):
                    clear.append(len(calls) - before)
            assert w.left_state not in calls and w.right_state not in calls
    assert n_xi and len(calls) <= 4.5 * n_xi, len(calls) / n_xi
    assert sum(clear) <= 3.5 * len(clear), sum(clear) / len(clear)


@pytest.mark.parametrize("name,pair,s_L", INVERSION_CASES, ids=[c[0] for c in INVERSION_CASES])
def test_xi_in_an_end_interval_with_an_exact_end_speed_takes_three_calls(name, pair, s_L, monkeypatch):
    # the end state at its exact end speed is an interpolation node, so xi
    # between it and the nearest edge slope needs no fallback.  Where f'' also
    # vanishes at the end (Corey's f' ~ (1 - s)^k, k >= 2) the root is nearly
    # a double one, which one Newton step cannot resolve from an O(h^2)
    # start; there only the profile is checked
    fan = rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, pair))
    calls = _counting(fan)
    solves = []
    bisect_ = rm._bisect
    monkeypatch.setattr(rm, "_bisect", lambda *args: solves.append(args[1:3]) or bisect_(*args))
    for w in fan.waves:
        if not isinstance(w, rm.Rarefaction):
            continue
        _, slopes = w.samples
        sign = 1.0 if w.left_state < w.right_state else -1.0
        (a, da), (b, db) = sorted(((w.left_state, sign * w.speed_lo), (w.right_state, sign * w.speed_hi)))
        for end, lo, hi in ((a, da, slopes[0]), (b, slopes[-1], db)):
            if _clipped_end(pair, end):
                continue
            exact = f_taylor(pair, end, 2)[2] != 0.0
            for x in np.linspace(lo, hi, 7)[1:-1].tolist():
                assert _end_interval(w, sign * x) == end
                del calls[:], solves[:]
                s = rm.evaluate(fan, sign * x)
                assert not exact or (len(calls), solves) == (3, []), x
                assert abs(s - bisection_profile(fan, sign * x)) <= rm.INVERT_TOL, x


def test_end_interval_cases_include_exact_end_speeds():
    exact = [name for name, pair, s_L in INVERSION_CASES
             for w in rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, pair)).waves if isinstance(w, rm.Rarefaction)
             for end in (w.left_state, w.right_state)
             if not _clipped_end(pair, end) and f_taylor(pair, end, 2)[2] != 0.0]
    assert len(exact) >= len(INVERSION_CASES), exact


def _interior_xis(fan, count=41):
    """count xi strictly inside each rarefaction's speed range."""
    return [xi for w in fan.waves if isinstance(w, rm.Rarefaction)
            for xi in np.linspace(w.speed_lo, w.speed_hi, count + 2)[1:-1].tolist()]


@pytest.mark.parametrize("s_L", [1.0, 0.0])
def test_hand_built_rarefaction_without_samples_is_inverted_over_the_whole_arc(s_L):
    fan = rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, ff.ModelPair(ff.corey_a(), ff.corey_b())))
    bare = rm.WaveFan(fan.s_left, fan.s_right, [
        rm.Rarefaction(w.left_state, w.right_state, w.speed_lo, w.speed_hi)
        if isinstance(w, rm.Rarefaction) else w for w in fan.waves], fan.flux)
    assert repr(bare) == repr(fan) and bare == fan  # samples are neither shown nor compared
    for xi in _interior_xis(fan):
        assert abs(rm.evaluate(bare, xi) - bisection_profile(bare, xi)) <= rm.INVERT_TOL, xi


@pytest.mark.parametrize("s_L", [1.0, 0.0])
def test_a_newton_step_that_misses_the_root_falls_back_to_the_whole_arc(s_L, monkeypatch):
    # slopes shifted by a tenth of the speed range put the start ~10% of the
    # arc away from the root: neither Newton step from there lands within
    # INVERT_TOL/2 of it, so the check of its sign change fails
    fan = rm.solve(rm.RiemannProblem(s_L, 1.0 - s_L, ff.ModelPair(CE3, CE3)))
    shifted = rm.WaveFan(fan.s_left, fan.s_right, [
        dataclasses.replace(w, samples=(w.samples[0], w.samples[1] + 0.1 * (w.speed_hi - w.speed_lo)))
        if isinstance(w, rm.Rarefaction) else w for w in fan.waves], fan.flux)
    inverted, solves = [], []
    invert, bisect_ = rm._invert, rm._bisect
    monkeypatch.setattr(rm, "_invert", lambda *args: inverted.append(args[2]) or invert(*args))
    monkeypatch.setattr(rm, "_bisect", lambda *args: solves.append(args[1:3]) or bisect_(*args))
    xis = _interior_xis(fan)
    for xi in xis:
        assert abs(rm.evaluate(shifted, xi) - bisection_profile(fan, xi)) <= rm.INVERT_TOL, xi
    arcs = {tuple(sorted((w.left_state, w.right_state))) for w in fan.waves if isinstance(w, rm.Rarefaction)}
    assert inverted == xis and len(solves) == len(xis) and set(solves) <= arcs


def test_seed_one_draw_inverts_within_tol_of_bisection_and_rarely_falls_back(monkeypatch):
    # the riemann_fans benchmark's seed-1 draw, 50 fans with 201-point
    # profiles: 3,840 inverted xi, 42 of which run the whole-arc solver, all
    # next to an end whose f' is clipped (counterexamples' s^1.1 terms)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the draw's multi-root warnings are not under test
        fans = [rm.solve(inp.obj) for inp in workloads.build("riemann_fans", 1)]
    solves, bisect_ = [], rm._bisect
    monkeypatch.setattr(rm, "_bisect", lambda *args: solves.append(args[1:3]) or bisect_(*args))
    n_inverted = 0
    for fan in fans:
        for xi in workloads.profile_xi(fan, workloads.PROFILE_XI).tolist():
            if any(isinstance(w, rm.Rarefaction) and w.speed_lo < xi < w.speed_hi for w in fan.waves):
                n_inverted += 1
                assert abs(rm.evaluate(fan, xi) - bisection_profile(fan, xi)) <= rm.INVERT_TOL, xi
    assert n_inverted == 3840 and len(solves) <= 0.02 * n_inverted, len(solves)


# -- sampled hull -------------------------------------------------------------

def plain_lower_hull(xs, ys):
    """Andrew's monotone chain over every sample."""
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


HULL_CASES = [
    ("corey", ff.ModelPair(ff.corey_a(), ff.corey_b()), 0.0, 1.0),
    *[(f"CE{k}", ff.ModelPair(m, m), 0.0, 1.0)
      for k, m in enumerate(ff.models.parse(t) for t in ff.models.COUNTEREXAMPLES)],
    ("chierici", ff.ModelPair(ff.chierici(1.0, 3.0, 1.0), ff.chierici(1.0, 3.0, 1.0)), 0.0, 1.0),
    # underflowed stretch whose cross products with the neighbours round to 0
    ("chierici flat", ff.ModelPair(ff.parse("exp(-6.4263*((1 - s)/s))"),
                                   ff.parse("exp(-2.3092*((1 - s)/s))")), 0.0, 0.1834),
]


def test_prefiltered_hull_keeps_every_vertex_of_small_inputs():
    assert rm._lower_hull_indices(np.array([0.0]), np.array([1.0])).tolist() == [0]
    assert rm._lower_hull_indices(np.array([0.0, 1.0]), np.array([1.0, 0.0])).tolist() == [0, 1]
    xs = np.linspace(0.0, 1.0, 9)
    for ys in (xs ** 2, -xs ** 2, np.sin(7 * xs), np.zeros_like(xs)):
        assert rm._lower_hull_indices(xs, ys).tolist() == plain_lower_hull(xs, ys)


def _hull_inputs():
    """(name, xs, ys): synthetic samples, then the flux samples of HULL_CASES."""
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 1.0, rm.DEFAULT_SAMPLES + 1)
    with np.errstate(divide="ignore"):
        underflowed = np.exp(-30.0 / xs)  # exact zeros up to s ~ 0.04
    out = [
        ("random", np.sort(rng.uniform(0.0, 1.0, 600)), rng.normal(size=600)),
        ("random convex", xs, xs ** 2 + 1e-4 * rng.normal(size=xs.size)),
        ("collinear", xs, 2.0 * xs - 1.0),
        ("collinear integers", np.arange(200.0), 3.0 * np.arange(200.0) - 7.0),
        ("flat", xs, np.zeros_like(xs)),
        ("underflowed", xs, underflowed),
        ("alternating noise", xs, xs ** 2 + 1e-9 * (-1.0) ** np.arange(xs.size)),
        ("alternating noise, coarse", xs, xs ** 2 + 1e-7 * (-1.0) ** np.arange(xs.size)),
        # the chain's two numpy scans: a streak of 4095 samples that each pop
        # only the one before them, and a late point that pops 3662, or all
        # but the first, of 4095 appended vertices (past 8 pops, one pass)
        ("parabola under a chord from a low left end", xs, np.append(-2.0, (xs[1:] - 0.5) ** 2)),
        ("convex run, late low point", xs, np.append(xs[:-1] ** 2, 0.2)),
        ("convex run, late lowest point", xs, np.append(xs[:-1] ** 2, -10.0)),
        # a streak of 18 under the chord from (1, -1000), ended by a point
        # exactly on the line through (0, 0) and (1, -1000), which pops it
        ("streak ending on a collinear point", np.arange(23.0),
         np.concatenate(([0.0, -1000.0], (np.arange(2.0, 22.0) - 2.0) ** 2, [-22000.0]))),
    ]
    for name, pair, a, b in HULL_CASES:
        s = np.linspace(a, b, rm.DEFAULT_SAMPLES + 1)
        out.append((name, s, ff.f_value(pair, s)))
    return out


HULL_INPUTS = _hull_inputs()


@pytest.mark.parametrize("name,xs,ys", HULL_INPUTS, ids=[c[0] for c in HULL_INPUTS])
@pytest.mark.parametrize("orientation", ["convex_lower", "concave_upper"])
def test_prefiltered_hull_matches_the_plain_chain(name, xs, ys, orientation):
    sign = 1.0 if orientation == "convex_lower" else -1.0
    assert rm._lower_hull_indices(xs, sign * ys).tolist() == plain_lower_hull(xs, sign * ys)


def test_hull_is_the_plain_chain_up_to_vertices_collinear_within_rounding():
    # samples 0-11 step by -2, so sample 9 lies on the line through 0 and 11;
    # its cross product with its neighbours is 6.9e-18, rounding noise, and
    # the chain keeps it where the plain chain pops it
    xs = np.linspace(0.0, 1.0, 450)
    ys = -np.round(100.0 * np.sin(8.845527254079828 * xs))
    hull, plain = set(rm._lower_hull_indices(xs, ys).tolist()), set(plain_lower_hull(xs, ys))
    for v in hull ^ plain:
        other = sorted(plain if v in hull else hull)  # the hull without v
        k = bisect.bisect(other, v)
        o, a = other[k - 1], other[k]
        terms = ((xs[v] - xs[o]) * (ys[a] - ys[o]), (ys[v] - ys[o]) * (xs[a] - xs[o]))
        assert abs(terms[0] - terms[1]) <= 1e-12 * (abs(terms[0]) + abs(terms[1])), v


def scipy_lower_hull(xs, ys):
    """Lower hull vertices by Qhull: counterclockwise from the leftmost vertex
    to the rightmost one."""
    spatial = pytest.importorskip("scipy.spatial")
    ring = spatial.ConvexHull(np.column_stack([xs, ys])).vertices.tolist()
    ring = ring[ring.index(int(np.argmin(xs))):] + ring[:ring.index(int(np.argmin(xs)))]
    return ring[:ring.index(int(np.argmax(xs))) + 1]


@pytest.mark.parametrize("seed", range(6))
def test_hull_vertices_match_qhull_in_general_position(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 2000))
    xs = np.sort(rng.uniform(0.0, 1.0, n))
    # from scattered points (a short hull) to a noisy convex curve (long runs)
    ys = (xs - 0.5) ** 2 * 10.0 ** rng.uniform(-2.0, 2.0) + 10.0 ** rng.uniform(-6.0, 0.0) * rng.normal(size=n)
    assert rm._lower_hull_indices(xs, ys).tolist() == scipy_lower_hull(xs, ys)


# -- chord test ---------------------------------------------------------------

def per_edge_chords(curve, s_left, s_right):
    """The envelope's chord test one hull edge at a time, over the fan's
    states in ascending order: the edge is a chord where one of the samples
    it skips leaves the line through its ends by more than dev_tol.  Returns
    the chords' end samples, in ascending order."""
    sign = 1.0 if s_left < s_right else -1.0
    xs = np.linspace(min(s_left, s_right), max(s_left, s_right), rm.DEFAULT_SAMPLES + 1)
    ys = sign * np.asarray(rm._as_curve(curve).value(xs), dtype=float)
    dev_tol = 1e-12 * max(1.0, float(np.max(np.abs(ys))))
    hull = rm._lower_hull_indices(xs, ys).tolist()
    out = []
    for i, j in zip(hull, hull[1:]):
        line = ys[i] + (xs[i + 1:j] - xs[i]) * ((ys[j] - ys[i]) / (xs[j] - xs[i]))
        if j > i + 1 and float(np.max(np.abs(ys[i + 1:j] - line))) > dev_tol:
            out.append((float(xs[i]), float(xs[j])))
    return out


def _cubic(c):
    return rm.ExprFlux(ff.parse(f"{c}*s*(s - 0.5)*(s - 1)"))


CE3 = ff.models.parse(ff.models.COUNTEREXAMPLES[2])
CHIERICI = ff.chierici(1.0, 3.0, 1.0)
# (name, curve, s_left, s_right, chords found); a descending fan ("concave")
# follows the upper concave envelope
CHORD_CASES = [
    ("flat", rm.ExprFlux(ff.parse("0.5")), 0.01, 1.0, 0),
    ("underflowed", rm.ExprFlux(ff.parse("exp(-30/s)")), 0.01, 1.0, 0),
    ("underflowed, concave", rm.ExprFlux(ff.parse("exp(-30/s)")), 1.0, 0.01, 0),
    ("underflowed pair", ff.ModelPair(CHIERICI, CHIERICI), 1.0, 0.0, 1),
    # largest sample deviations 0.59 and 0.62 dev_tol, then 1.18 and 1.25 dev_tol
    ("near-tangent within tol", _cubic(1e-11), 0.01, 1.0, 0),
    ("near-tangent within tol, concave", _cubic(1e-11), 1.0, 0.01, 0),
    ("near-tangent past tol", _cubic(2e-11), 0.01, 1.0, 1),
    ("near-tangent past tol, concave", _cubic(2e-11), 1.0, 0.01, 1),
    ("CE3 tangent chord", ff.ModelPair(CE3, CE3), 0.0, 1.0, 1),
    ("corey tangent chord", ff.ModelPair(ff.corey_a(), ff.corey_b()), 1.0, 0.0, 1),
]


@pytest.mark.parametrize("name,curve,s_left,s_right,n_chords", CHORD_CASES, ids=[c[0] for c in CHORD_CASES])
def test_one_pass_chord_test_gives_the_per_chord_pieces(name, curve, s_left, s_right, n_chords):
    pieces = rm.envelope(curve, s_left, s_right)
    assert pieces[0].left_state == s_left and pieces[-1].right_state == s_right
    assert all(p.right_state == q.left_state for p, q in zip(pieces, pieces[1:]))
    sign = 1.0 if s_left < s_right else -1.0
    assert all(sign * p.left_state < sign * p.right_state for p in pieces)
    shocks = sorted(sorted((p.left_state, p.right_state)) for p in pieces if isinstance(p, rm.Shock))
    edges = per_edge_chords(curve, s_left, s_right)
    assert len(shocks) == len(edges) == n_chords
    # refinement slides each end by at most one spacing in each of 3 passes
    h = abs(s_right - s_left) / rm.DEFAULT_SAMPLES
    for (s_lo, s_hi), (lo, hi) in zip(shocks, edges):
        assert abs(s_lo - lo) <= 3 * h and abs(s_hi - hi) <= 3 * h


def test_fan_records_its_samples_and_tolerances():
    pair = quadratic_pair()
    for s_L, s_R in ((1.0, 0.0), (0.5, 0.5)):
        fan = rm.solve(rm.RiemannProblem(s_L, s_R, pair))
        assert (fan.samples, fan.refine_tol, fan.invert_tol) == (rm.DEFAULT_SAMPLES, rm.REFINE_TOL, rm.INVERT_TOL)
    # they record the module's settings; no fan is built with others
    with pytest.raises(TypeError):
        rm.WaveFan(1.0, 0.0, fan.waves, fan.flux, rm.DEFAULT_SAMPLES)
    with pytest.raises(ValueError):
        dataclasses.replace(fan, invert_tol=1e-3)


# -- finite-volume oracle -------------------------------------------------------

def engquist_osher(pair, s_L, s_R, x_lo, x_hi, n_cells, t_end=1.0):
    """Cell centres and averages at t_end of the first-order Engquist-Osher
    scheme (LeVeque 2002, ch. 16) for Riemann data jumping at x = 0.  The
    numerical flux f+(u_left) + f-(u_right) uses cumulative integrals of the
    positive and negative parts of f', tabulated once."""
    grid = np.linspace(0.0, 1.0, 8193)
    slope = f_taylor(pair, np.clip(grid, 1e-9, 1.0 - 1e-9), 1)[1]

    def integral(v):
        return np.concatenate(([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(grid))))

    f_plus, f_minus = integral(np.maximum(slope, 0.0)), integral(np.minimum(slope, 0.0))
    dx = (x_hi - x_lo) / n_cells
    x = x_lo + dx * (np.arange(n_cells) + 0.5)
    u = np.where(x < 0.0, s_L, s_R)
    steps = int(np.ceil(t_end * np.max(np.abs(slope)) / (0.9 * dx)))
    for _ in range(steps):
        ghost = np.concatenate(([u[0]], u, [u[-1]]))
        flux = np.interp(ghost[:-1], grid, f_plus) + np.interp(ghost[1:], grid, f_minus)
        u = u - (t_end / steps) / dx * np.diff(flux)
    return x, u


def _fv_cases():
    rng = np.random.default_rng(31)
    seeded = [(f"seeded {k}", ff.ModelPair(draw_member(rng), draw_member(rng)),
               *(float(v) for v in rng.uniform(0.0, 1.0, 2))) for k in range(3)]
    ce3 = ff.models.parse(ff.models.COUNTEREXAMPLES[2])
    return [("corey 1->0", ff.ModelPair(ff.corey_a(), ff.corey_b()), 1.0, 0.0),
            ("CE3 0->1", ff.ModelPair(ce3, ce3), 0.0, 1.0)] + seeded


FV_CASES = _fv_cases()


@pytest.mark.parametrize("name,pair,s_L,s_R", FV_CASES, ids=[c[0] for c in FV_CASES])
def test_profile_is_the_limit_of_a_monotone_finite_volume_scheme(name, pair, s_L, s_R):
    fan = rm.solve(rm.RiemannProblem(s_L, s_R, pair))
    speeds = [v for lo_hi in _fan_speed_list(fan) for v in lo_hi]
    x_lo, x_hi = min(min(speeds) - 0.5, -0.5), max(speeds) + 0.5
    errors = []
    for n_cells in (400, 1600):
        x, u = engquist_osher(pair, s_L, s_R, x_lo, x_hi, n_cells)
        exact = np.array([rm.evaluate(fan, xi) for xi in x.tolist()])
        errors.append(float(np.sum(np.abs(u - exact)) * (x_hi - x_lo) / n_cells))
    # first-order monotone schemes converge at least like dx^(1/2) in L1
    # (Kuznetsov); a profile off the entropy solution would stall instead
    assert errors[1] < 0.6 * errors[0], errors
    assert errors[1] < 0.005, errors


def test_drawn_profiles_are_the_limit_of_the_finite_volume_scheme():
    # the first 12 drawn fans whose fastest wave reaches |xi| >= 0.1 (a slower
    # fan stays within a few cells, where scheme and profile agree to rounding
    # at every resolution).  x = 0 is a cell edge at both resolutions, so the
    # scheme starts from exact cell averages, and the profile's cell averages
    # are exact too: d(xi*s - f(s))/dxi = s where f'(s) = xi, and xi*[s] = [f]
    # across a shock.  With a rarefaction the L1 error falls at least like
    # dx^(1/2) (~0.33 per 4x cells here); a shock's is O(dx) but depends on
    # where the shock falls in its cell, so it need only fall.
    n_fans, cells = 0, 100
    for pair, s_L, s_R in _drawn_fans():
        fan = rm.solve(rm.RiemannProblem(s_L, s_R, pair))
        speeds = [v for lo_hi in _fan_speed_list(fan) for v in lo_hi]
        if max(abs(v) for v in speeds) < 0.1:
            continue
        x_lo, x_hi = min(min(speeds) - 0.5, -0.5), max(speeds) + 0.5
        dx = (x_hi - x_lo) / cells
        x_lo = -dx * math.ceil(-x_lo / dx)
        x_hi = x_lo + cells * dx
        errors = []
        for n_cells in (cells, 4 * cells):
            _, u = engquist_osher(pair, s_L, s_R, x_lo, x_hi, n_cells)
            edges = np.linspace(x_lo, x_hi, n_cells + 1)
            s = np.array([rm.evaluate(fan, xi) for xi in edges.tolist()])
            average = np.diff(edges * s - ff.f_value(pair, s)) / np.diff(edges)
            errors.append(float(np.sum(np.abs(u - average)) * (x_hi - x_lo) / n_cells))
        assert errors[1] < errors[0], (s_L, s_R, errors)
        if any(isinstance(w, rm.Rarefaction) for w in fan.waves):
            assert errors[1] < 0.6 * errors[0], (s_L, s_R, errors)
        n_fans += 1
        if n_fans == 12:
            break
    assert n_fans == 12


# -- Osher's formula and Oleinik's entropy condition ---------------------------

def _drawn_fans():
    """60 fans of drawn pairs: every third pair symmetric, every fourth fan
    with an end state of 0 or 1."""
    rng = np.random.default_rng(16)
    out = []
    for k in range(60):
        m_a = draw_member(rng)
        pair = ff.ModelPair(m_a, m_a if k % 3 == 0 else draw_member(rng))
        s_L, s_R = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        if k % 4 == 0:
            s_L, s_R = (float(rng.integers(0, 2)), s_R) if k % 8 == 0 else (s_L, float(rng.integers(0, 2)))
        out.append((pair, s_L, s_R))
    return out


def test_profiles_follow_osher_and_shocks_satisfy_oleinik():
    # Osher (SIAM J. Numer. Anal. 21, 1984): s(xi) minimises f(s) - xi*s over
    # [s_L, s_R] when s_L < s_R and maximises it over [s_R, s_L] when s_L > s_R.
    # The envelope resolves flux values to 1e-12 * max(1, max |f|), so s(xi)
    # must lie within one spacing of the grid points whose objective is that
    # close to the optimum: at a shock speed these are both states, and where
    # f is flat to within that resolution (an underflowed stretch) all of it.
    n_points = n_decided = 0
    for pair, s_L, s_R in _drawn_fans():
        fan = rm.solve(rm.RiemannProblem(s_L, s_R, pair))
        sign = 1.0 if s_L < s_R else -1.0
        grid = np.linspace(min(s_L, s_R), max(s_L, s_R), rm.DEFAULT_SAMPLES + 1)
        f = ff.f_value(pair, grid)
        spacing = float(grid[1] - grid[0])
        resolution = 1e-12 * max(1.0, float(np.max(np.abs(f))))
        speeds = [v for lo_hi in _fan_speed_list(fan) for v in lo_hi]
        for xi in np.linspace(min(speeds) - 0.5, max(speeds) + 0.5, 101).tolist():
            objective = sign * (f - xi * grid)
            optimal = grid[objective <= np.min(objective) + resolution]
            assert optimal[0] - spacing <= rm.evaluate(fan, xi) <= optimal[-1] + spacing, (s_L, s_R, xi)
            n_points += 1
            n_decided += bool(optimal[-1] - optimal[0] <= 2 * spacing)
        # Oleinik: a shock's chord lies below f on the lower convex envelope,
        # above it on the upper concave one
        for w in fan.waves:
            if isinstance(w, rm.Shock):
                lo, hi = sorted((w.left_state, w.right_state))
                s = np.linspace(lo, hi, rm.DEFAULT_SAMPLES + 1)
                f_s = ff.f_value(pair, s)
                chord = ff.f_value(pair, lo) + w.speed * (s - lo)
                assert np.min(sign * (f_s - chord)) >= -1e-12 * max(1.0, float(np.max(np.abs(f_s))))
    assert n_points == 6060 and n_decided >= 6000, (n_points, n_decided)
