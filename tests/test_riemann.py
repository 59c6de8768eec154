"""Envelope construction, wave fans, and self-similar profiles."""

import math

import numpy as np
import pytest

import fracflow as ff
from fracflow import riemann as rm

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
    pieces = rm.envelope(ff.parse("s^2"), 0.0, 1.0, "convex_lower")
    assert len(pieces) == 1
    assert isinstance(pieces[0], rm.ContactArc)
    assert (pieces[0].s_lo, pieces[0].s_hi) == (0.0, 1.0)


def test_convex_flux_concave_envelope_is_single_chord():
    pieces = rm.envelope(ff.parse("s^2"), 0.0, 1.0, "concave_upper")
    assert len(pieces) == 1
    chord = pieces[0]
    assert isinstance(chord, rm.Chord)
    assert (chord.s_lo, chord.s_hi) == (0.0, 1.0)
    assert abs(chord.slope - 1.0) <= 1e-12


def test_quadratic_corey_concave_envelope_matches_welge_tangent():
    oracle = welge_tangency_oracle()
    assert abs(oracle - SQRT_HALF) <= 1e-12  # known closed form
    pieces = rm.envelope(quadratic_pair(), 0.0, 1.0, "concave_upper")
    assert len(pieces) == 2
    chord, arc = pieces
    assert isinstance(chord, rm.Chord) and isinstance(arc, rm.ContactArc)
    assert chord.s_lo == 0.0
    assert abs(chord.s_hi - oracle) <= 1e-8
    assert abs(arc.s_hi - 1.0) <= 1e-12


def test_degenerate_interval_yields_empty_envelope():
    assert rm.envelope(ff.parse("s^2"), 0.3, 0.3, "convex_lower") == []


def test_envelope_sandwich_property():
    rng = np.random.default_rng(77)
    for _ in range(10):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        curve = rm.PairFlux(pair)
        a, b = sorted(rng.uniform(0.0, 1.0, 2))
        if b - a < 1e-3:
            continue
        pieces = rm.envelope(curve, float(a), float(b), "convex_lower")
        fa, fb = curve.value(float(a)), curve.value(float(b))
        for p in pieces:
            for t in np.linspace(p.s_lo, p.s_hi, 20):
                t = float(t)
                env = (
                    curve.value(p.s_lo)
                    + (t - p.s_lo) * p.slope
                    if isinstance(p, rm.Chord)
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


def test_envelope_orientation_validation():
    with pytest.raises(ValueError):
        rm.envelope(ff.parse("s^2"), 0.0, 1.0, "sideways")
    with pytest.raises(ValueError):
        rm.envelope(ff.parse("s^2"), 0.7, 0.3, "convex_lower")


CE3_FLUX = ("s^1.1*(1 + 15*s^30)/(s^1.1*(1 + 15*s^30) + (1 - s)^1.1*(1 + 15*(1 - s)^30))")


@pytest.mark.parametrize("text", ["s^2/(s^2 + (1 - s)^2)", "s^2", CE3_FLUX])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 0.5), (0.05, 0.6), (0.3, 0.95)])
def test_concave_envelope_is_the_convex_envelope_of_the_negated_flux(text, a, b):
    # the upper concave envelope of f is exactly minus the lower convex
    # envelope of -f: same pieces, same ends, chord slopes negated
    upper = rm.envelope(ff.parse(text), a, b, "concave_upper")
    lower = rm.envelope(ff.parse(f"-({text})"), a, b, "convex_lower")
    assert upper
    assert upper == [
        rm.Chord(p.s_lo, p.s_hi, -p.slope) if isinstance(p, rm.Chord) else p for p in lower
    ]
