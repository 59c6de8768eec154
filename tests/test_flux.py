"""Fractional-flow construction, closed-form cross-checks, inflections."""

import math
import warnings

import numpy as np
import pytest

import fracflow as ff
from fracflow.flux import (
    DEFAULT_EPS, DEFAULT_GRID_N, ZERO_TOL, _tangency_suspects, f2_closed, f_jet, f_taylor, f_value,
    find_s1, find_s2, inflection_points,
)

from conftest import draw_member, rel_close


def symmetric(expr_text):
    m = ff.parse(expr_text)
    return ff.ModelPair(m, m)


def test_symmetric_pair_is_half_at_half():
    pair = ff.ModelPair(ff.power(1, 2), ff.power(1, 2))
    assert f_jet(pair, 0.5).f0 == 0.5


def test_symmetry_identity_on_grid():
    for m in (ff.power(1, 2), ff.corey_b(), ff.parse("s^1.1 * exp(s^10)")):
        pair = ff.ModelPair(m, m)
        s = np.linspace(0.01, 0.99, 100)
        total = f_value(pair, s) + f_value(pair, 1.0 - s)
        assert np.all(np.abs(total - 1.0) <= 1e-12)


def test_mixed_pair_value():
    pair = ff.ModelPair(ff.power(1, 2), ff.power(1, 3))
    # 0.25 / (0.25 + 0.125)
    assert rel_close(float(f_value(pair, 0.5)), 2.0 / 3.0, 1e-15)


def test_f2_closed_vanishes_at_symmetry_point():
    for pair in (symmetric("s^2"), symmetric("s^1.1 * exp(s^10)")):
        assert abs(float(f2_closed(pair, 0.5))) <= 1e-12


def test_f2_sign_orientation_for_quadratic_pair():
    pair = symmetric("s^2")
    assert float(f2_closed(pair, 0.25)) > 0.0
    assert float(f2_closed(pair, 0.75)) < 0.0


def test_f2_closed_agrees_with_jets():
    # the 1e-3 floor makes draws that land next to an inflection (where
    # both routes cancel to ~1e-14) an absolute comparison at 1e-13
    rng = np.random.default_rng(5)
    for _ in range(1000):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        s = float(rng.uniform(0.01, 0.99))
        a = float(f2_closed(pair, s))
        b = float(f_jet(pair, s).f2)
        assert rel_close(a, b, 1e-10, floor=1e-3)


def test_first_derivative_identity():
    # f' = h/m^2 with h = m_a'*m_b + m_a*m_b'
    rng = np.random.default_rng(6)
    for _ in range(1000):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        s = float(rng.uniform(0.01, 0.99))
        ja = pair.m_a.eval_jet(s)
        jb = pair.m_b.eval_jet(1.0 - s)
        h = ja.f1 * jb.f0 + ja.f0 * jb.f1
        m = ja.f0 + jb.f0
        assert rel_close(float(f_jet(pair, s).f1), float(h / m ** 2), 1e-10, floor=1e-3)


def test_flux_monotone_for_admissible_pairs():
    # f' = h/m^2 > 0; numerically the slope is only representable where f
    # itself has not saturated to 0 or 1 (a vanishing mobility floors the
    # quotient rule at rounding level), so require strict positivity there
    # and no real negativity anywhere
    rng = np.random.default_rng(8)
    s = np.linspace(1e-6, 1.0 - 1e-6, 2000)
    for _ in range(20):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        j = f_jet(pair, s)
        f0 = np.asarray(j.f0)
        f1 = np.asarray(j.f1)
        assert np.all(f1 >= -1e-13)
        both_present = (f0 > 1e-12) & (f0 < 1.0 - 1e-12)
        assert np.all(f1[both_present] > 0.0)


def test_boundary_values():
    for m in (ff.power(1, 2), ff.corey_b(), ff.chierici(1, 3, 1)):
        pair = ff.ModelPair(m, m)
        assert float(f_value(pair, 1e-6)) <= 1e-3
        assert float(f_value(pair, 1.0 - 1e-6)) >= 1.0 - 1e-3
        assert f_value(pair, 0.0) == 0.0
        assert f_value(pair, 1.0) == 1.0


def test_find_s1_s2_symmetric_pair():
    pair = symmetric("s^2")
    assert abs(find_s1(pair) - 0.5) <= 1e-9
    assert abs(find_s2(pair) - 0.5) <= 1e-9


def test_find_s1_mixed_pair_against_quadratic_formula():
    # root of 2s - 3(1-s)^2 on (0,1): s = (4 - sqrt(7))/3
    pair = ff.ModelPair(ff.power(1, 2), ff.power(1, 3))
    expected = (4.0 - math.sqrt(7.0)) / 3.0
    assert abs(find_s1(pair) - expected) <= 1e-9


def test_s1_absent_when_no_sign_change():
    # m_a' - m_b'(1-s) stays positive when m_a is much steeper everywhere
    pair = ff.ModelPair(ff.parse("5*s + s^2"), ff.parse("0.01*s^2"))
    assert find_s1(pair) is None


@pytest.mark.parametrize(
    "text, count",
    [
        ("s^1.1 * exp(s^10)", 3),
        ("s^1.1 * (1 + 15*s^10)", 3),
        ("s^1.1 * (1 + 15*s^30)", 5),
        ("s^2", 1),
    ],
)
def test_inflection_counts(text, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # s2 multiplicity flags for the counterexamples
        analysis = inflection_points(symmetric(text))
    assert len(analysis.inflections) == count
    assert analysis.s_shaped == (count == 1)
    assert all(0.0 < i.s < 1.0 for i in analysis.inflections)
    ss = [i.s for i in analysis.inflections]
    assert ss == sorted(ss)


def test_middle_inflection_and_direction():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        analysis = inflection_points(symmetric("s^1.1 * exp(s^10)"))
    middle = analysis.inflections[1]
    assert abs(middle.s - 0.5) <= 1e-9
    assert middle.direction == "-+"
    assert analysis.f3_at_half > 0.0


def test_fifth_counterexample_orientation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        analysis = inflection_points(symmetric("s^1.1 * (1 + 15*s^30)"))
    assert analysis.f3_at_half < 0.0


def test_symmetric_inflection_set_is_reflection_invariant():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text in ("s^1.1 * exp(s^10)", "s^1.1 * (1 + 15*s^30)"):
            ss = [i.s for i in inflection_points(symmetric(text)).inflections]
            mirrored = sorted(1.0 - s for s in ss)
            assert np.allclose(ss, mirrored, atol=1e-9)


def test_f3_at_half_only_for_identical_expressions():
    same = inflection_points(symmetric("s^2"))
    assert same.f3_at_half is not None
    mixed = inflection_points(ff.ModelPair(ff.power(1, 2), ff.power(1, 3)))
    assert mixed.f3_at_half is None


def test_unique_inflection_lies_between_s1_and_s2():
    rng = np.random.default_rng(42)
    for _ in range(100):
        pair = ff.ModelPair(draw_member(rng), draw_member(rng))
        analysis = inflection_points(pair)
        assert len(analysis.inflections) == 1, (str(pair.m_a), str(pair.m_b))
        lo, hi = sorted((analysis.s1, analysis.s2))
        assert lo - 1e-9 <= analysis.inflections[0].s <= hi + 1e-9


def test_positive_criterion_forces_extra_inflections():
    # symmetric pairs with a positive symmetry-point criterion cannot be
    # S-shaped: at least three inflections
    family = [
        "s^1.1 * exp(s^10)",
        "s^1.1 * (1 + 15*s^10)",
        "s^1.2 * (1 + 20*s^12)",
        "s^1.5 * exp(s^8)",
    ]
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text in family:
            m = ff.parse(text)
            if ff.criterion_T3(m) > 0.0:
                checked += 1
                assert len(inflection_points(ff.ModelPair(m, m)).inflections) >= 3, text
    assert checked >= 3


def test_inflection_grid_precondition():
    with pytest.raises(ValueError):
        inflection_points(symmetric("s^2"), grid_n=100)


def test_zero_total_mobility_raises():
    pair = ff.ModelPair(ff.parse("s - s"), ff.parse("s - s"))
    with pytest.raises(ff.DomainError, match="total mobility"):
        f_jet(pair, 0.5)


# -- tangency suspects ---------------------------------------------------------

def reference_suspects(s, y, roots):
    """The tangency-suspect scan as a per-sample loop."""
    spacing = s[1] - s[0]
    out = []
    for i in np.flatnonzero(np.abs(y) < ZERO_TOL):
        if roots.size == 0 or np.min(np.abs(roots - s[i])) > 2.0 * spacing:
            out.append(float(s[i]))
    return out


@pytest.mark.parametrize("m, near_zero", [(ff.chierici(1, 8, 1), 1000), (ff.parse("6.2771*s^7.5624"), 38)])
def test_tangency_warnings_equal_the_per_sample_scan(m, near_zero):
    pair = ff.ModelPair(m, m)
    analysis = inflection_points(pair)
    s = np.linspace(DEFAULT_EPS, 1.0 - DEFAULT_EPS, DEFAULT_GRID_N)
    y = np.asarray(f_taylor(pair, s, 2)[2], dtype=float)
    roots = np.array([i.s for i in analysis.inflections])
    assert len(analysis.tangency_warnings) >= near_zero
    assert analysis.tangency_warnings == reference_suspects(s, y, roots)


def test_tangency_suspects_skip_near_zero_samples_next_to_a_root():
    # dyadic grid: the sample at 0.25 lies exactly two spacings from the root
    # 0.5 and is not a suspect, the one at 0.125 is
    s = np.linspace(0.0, 1.0, 9)
    y = np.ones(9)
    y[[1, 2, 4, 5, 8]] = 0.0
    spacing = s[1] - s[0]
    for roots in (np.array([0.5]), np.array([0.5, 0.9]), np.array([])):
        expected = reference_suspects(s, y, roots)
        assert _tangency_suspects(s, y, roots, 2.0 * spacing) == expected
    assert reference_suspects(s, y, np.array([0.5])) == [0.125, 1.0]
    assert reference_suspects(s, y, np.array([])) == [0.125, 0.25, 0.5, 0.625, 1.0]
