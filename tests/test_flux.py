"""Fractional-flow construction, closed-form cross-checks, inflections."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracflow as ff
from fracflow import flux
from fracflow.flux import (
    DEFAULT_EPS, DEFAULT_GRID_N, ZERO_TOL, FluxAnalysis, _tangency_suspects, f2_closed, f_jet, f_taylor,
    f_value, find_s1, find_s2, inflection_points,
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


def test_scalar_f2_closed_raises_a_float_overflow_at_its_point():
    pair = ff.ModelPair(ff.parse("1e200*s^2"), ff.parse("1e200*s^2"))
    with pytest.raises(ff.DomainError, match=r"^float overflow at s=0\.8$"):
        f2_closed(pair, 0.8)
    assert not np.isfinite(f2_closed(pair, np.array([0.8]))).any()  # the array form gives inf or nan


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


def _f_value_by_interior(pair, s):
    """The array f_value as the interior's values scattered between exact ends."""
    out = np.array(s == 1.0, dtype=float)
    interior = (s != 0.0) & (s != 1.0)
    if np.any(interior):
        out[interior] = f_taylor(pair, s[interior], 0)[0]
    return out


@pytest.mark.parametrize("s", [
    np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 12).reshape(3, 4), np.array([0, 1, 1, 0]),
    np.array([[0, 1], [1, 0]]), np.linspace(0.0, 1.0, 9, dtype=np.float32), np.array([1.0, 0.0, 1.0]),
    np.array([]), np.array([], dtype=int), np.array(0.3), np.array(1.0),
], ids=["1-D", "2-D", "int", "int 2-D", "float32", "all ends", "empty", "empty int", "0-D", "0-D end"])
@pytest.mark.parametrize("pair", [symmetric("s^1.1 * exp(s^10)"), ff.ModelPair(ff.chierici(1, 8, 1), ff.parse("s^2"))],
                         ids=["CE1 same", "Chierici s^2"])
def test_array_f_value_is_the_interior_between_exact_ends_in_float64(s, pair):
    got = f_value(pair, s)
    assert got.dtype == np.float64 and got.shape == s.shape
    assert got.tobytes() == _f_value_by_interior(pair, s).tobytes()


def test_flux_domain_error_on_an_empty_array_names_no_element():
    pair = ff.ModelPair(ff.parse("s"), ff.parse("s/(1-1)"))
    with pytest.raises(ff.DomainError, match=r"while evaluating s/\(1 - 1\) at an empty s$") as info:
        f_taylor(pair, np.array([]), 1)
    assert info.value.index is None


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


# -- s1 and s2 of an analysis --------------------------------------------------

CATALOG = ff.catalog()
ANALYSIS_PAIRS = (
    [(name, ff.ModelPair(m, m)) for name, m in CATALOG.items()]
    + [(f"{a}|{b}", ff.ModelPair(CATALOG[a], CATALOG[b]))
       for a, b in (("power_quadratic", "corey_b"), ("corey_a", "corey_b"), ("power_generic", "chierici_B3"),
                    ("brooks_b_3_2.5", "power_quadratic"), ("counterexample_1", "counterexample_3"))]
)
# m_a' - m_b' = 4(s - 0.2)(s - 0.5)(s - 0.8) and m_a'' = 12s^2 - 12s + 2.64: three s1 and two s2 roots
WIGGLY = ff.ModelPair(ff.parse("s^4 - 2*s^3 + 1.32*s^2 - 0.32*s"), ff.parse("1"))


def _recorded(fn, *args, **kwargs):
    """fn's result and the messages of the warnings it raised, each of which
    names the line that called fn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    assert all(w.filename == __file__ for w in caught), [w.filename for w in caught]
    return result, [str(w.message) for w in caught]


def _assert_roots_match_the_finders(pair):
    analysis, _ = _recorded(inflection_points, pair)
    for got, find in ((analysis.s1, find_s1), (analysis.s2, find_s2)):
        want, _ = _recorded(find, pair)
        assert (got is None) == (want is None), (find.__name__, got, want)
        if got is not None:
            assert abs(got - want) <= 2.0 * analysis.tol, (find.__name__, got, want)


@pytest.mark.parametrize("pair", [p for _, p in ANALYSIS_PAIRS] + [WIGGLY],
                         ids=[name for name, _ in ANALYSIS_PAIRS] + ["wiggly"])
def test_analysis_s1_s2_equal_the_direct_finders(pair):
    _assert_roots_match_the_finders(pair)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(1.01, 8.0), st.floats(0.1, 10.0), st.floats(1.01, 8.0))
def test_analysis_s1_s2_equal_the_direct_finders_on_power_pairs(A, a, B, b):
    _assert_roots_match_the_finders(ff.ModelPair(ff.power(A, a), ff.power(B, b)))


@pytest.mark.parametrize("pair, messages", [
    (WIGGLY, ["s1 has 3 sign changes; reporting the first", "s2 has 2 sign changes; reporting the first"]),
    (symmetric(ff.models.COUNTEREXAMPLES[0]), ["s2 has 3 sign changes; reporting the first"]),
    (symmetric(ff.models.COUNTEREXAMPLES[2]), ["s2 has 5 sign changes; reporting the first"]),
    (symmetric("s^2"), []),
])
def test_multiplicity_warnings_are_those_of_the_direct_finders(pair, messages):
    _, analysis_messages = _recorded(inflection_points, pair)
    direct = _recorded(find_s1, pair)[1] + _recorded(find_s2, pair)[1]
    assert analysis_messages == direct == messages


def test_analysis_reports_the_first_of_several_roots():
    analysis, _ = _recorded(inflection_points, WIGGLY)
    assert abs(analysis.s1 - 0.2) <= 1e-9
    assert abs(analysis.s2 - (1.0 - math.sqrt(0.12)) / 2.0) <= 1e-9


def test_symmetric_admissible_pairs_have_s1_and_s2_at_one_half():
    rng = np.random.default_rng(7)
    admissible = [m for name, m in CATALOG.items() if not name.startswith("counterexample")]
    for m in [*admissible, *(draw_member(rng) for _ in range(20))]:
        analysis, _ = _recorded(inflection_points, ff.ModelPair(m, m))
        for root in (analysis.s1, analysis.s2):
            assert abs(root - 0.5) <= analysis.tol, (str(m), root)


def test_analysis_takes_s1_and_s2_on_its_own_grid_and_tol(monkeypatch):
    calls = []
    original = flux.sign_changes
    monkeypatch.setattr(flux, "sign_changes", lambda s, values, func, tol: calls.append((len(s), s[0], tol))
                        or original(s, values, func, tol))
    analysis, _ = _recorded(inflection_points, WIGGLY, grid_n=1500, tol=1e-9, eps=1e-4)
    assert calls == [(1500, 1e-4, 1e-9)] * 3  # f'', s1, s2
    assert (analysis.grid_n, analysis.eps, analysis.tol) == (1500, 1e-4, 1e-9)
    calls.clear()
    defaults = inflection_points(symmetric("s^2"))
    assert calls == [(DEFAULT_GRID_N, DEFAULT_EPS, 1e-12)] * 3
    assert (defaults.grid_n, defaults.eps, defaults.tol) == (DEFAULT_GRID_N, DEFAULT_EPS, 1e-12)


def test_analysis_built_by_position_records_the_default_settings():
    analysis = FluxAnalysis([], 0.5, None, False, None)
    assert analysis.tangency_warnings == []
    assert (analysis.grid_n, analysis.eps, analysis.tol) == (DEFAULT_GRID_N, DEFAULT_EPS, 1e-12)


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


# -- the pair program's edges, on a float and on an array ----------------------

@pytest.mark.parametrize("order", range(4))
def test_constant_pair_gives_components_shaped_like_s(order):
    pair = ff.ModelPair(ff.parse("1"), ff.parse("1"))
    for s in (0.3, np.array([0.3, 0.7]), np.array([[0.2], [0.4]])):
        out = pair.program(order, isinstance(s, np.ndarray))(s)
        assert len(out) == 3 * (order + 1)  # f, then m_a's jet, then m_b's
        for c, want in zip(out, (0.5, 0.0, 0.0, 0.0)[:order + 1] + ((1.0, 0.0, 0.0, 0.0)[:order + 1]) * 2):
            if isinstance(s, np.ndarray):
                assert isinstance(c, np.ndarray) and c.shape == s.shape and (c == want).all()
            else:
                assert type(c) is float and c == want
    analysis = inflection_points(pair, grid_n=1000)
    assert (analysis.inflections, analysis.s1, analysis.s2) == ([], None, None)
    assert len(analysis.tangency_warnings) == 1000  # f'' is 0 on the whole grid


def test_zero_pair_fails_on_a_float_and_returns_empty_arrays_on_an_empty_s():
    pair = ff.ModelPair(ff.parse("0*s"), ff.parse("0*s"))
    for order in range(4):
        out = f_taylor(pair, np.array([]), order)
        assert len(out) == order + 1 and all(isinstance(c, np.ndarray) and c.shape == (0,) for c in out)
        with pytest.raises(ff.DomainError, match=r"^zero total mobility at s=0\.5$") as info:
            f_taylor(pair, 0.5, order)
        assert info.value.index is None


@pytest.mark.parametrize("m_a, m_b, s, message, index", [
    # m_a fails at s
    ("(s - 0.2)^1.5", "s^2", 0.1, "non-integer power 1.5 of a non-positive value while evaluating (s - 0.2)^1.5"
     " at s=0.1", None),
    ("(s - 0.2)^1.5", "s^2", np.array([0.9, 0.1]), "non-integer power 1.5 of a non-positive value while"
     " evaluating (s - 0.2)^1.5 at s[1]=0.1", 1),
    # m_b fails at 1 - s, the point its error names
    ("s^2", "(s - 0.5)^1.5", 0.9, "non-integer power 1.5 of a non-positive value while evaluating (s - 0.5)^1.5"
     " at s=0.09999999999999998", None),
    ("s^2", "(s - 0.5)^1.5", np.array([0.9]), "non-integer power 1.5 of a non-positive value while evaluating"
     " (s - 0.5)^1.5 at s[0]=0.09999999999999998", 0),
    # m_a(s) + m_b(1 - s) = 0.5 - s
    ("s - 0.5", "2*(s - 0.5)", 0.5, "zero total mobility at s=0.5", None),
    ("s - 0.5", "2*(s - 0.5)", np.array([0.25, 0.5, 0.5]), "zero total mobility at s[1]=0.5", 1),
    ("s - 0.5", "2*(s - 0.5)", np.float64(0.5), "zero total mobility at s=0.5", None),  # runs as a float
], ids=["m_a", "m_a-array", "m_b", "m_b-array", "total", "total-array", "total-numpy-scalar"])
@pytest.mark.parametrize("order", range(4))
def test_pair_errors_name_the_failing_tree_and_point(m_a, m_b, s, message, index, order):
    pair = ff.ModelPair(ff.parse(m_a), ff.parse(m_b))
    if order == 0:  # the plain value's power rule
        message = message.replace("non-positive", "negative")
    with pytest.raises(ff.DomainError) as info:
        f_taylor(pair, s, order)
    assert (str(info.value), info.value.index) == (message, index)


def test_pair_analyses_and_fans_compile_no_tree_program():
    analysed = ff.ModelPair(ff.parse("s^1.1 * exp(s^10)"), ff.parse("s^2.5"))
    inflection_points(analysed)
    corey = ff.ModelPair(ff.corey_a(), ff.corey_b())
    fan = ff.riemann.solve(ff.riemann.RiemannProblem(1.0, 0.0, corey))
    speeds = [getattr(w, name) for w in fan.waves for name in ("speed", "speed_lo", "speed_hi") if hasattr(w, name)]
    for xi in np.linspace(min(speeds) - 0.1, max(speeds) + 0.1, 51).tolist():
        ff.riemann.evaluate(fan, xi)
    for pair in (analysed, corey):
        assert pair._programs
        assert not pair.m_a.__dict__.get("_programs") and not pair.m_b.__dict__.get("_programs")


# mobilities whose float64 values overflow: a power, an exp, a product with
# an exp and a large constant (its squares overflow)
_OVERFLOWING = ("(1000*s)^201", "exp(1000*s)", "s^2*exp(800*s)", "1e200*s^2")


def _library_calls(pair: ff.ModelPair) -> list:
    """Every library function that evaluates the pair, or its m_a, on an array, as a call."""
    m, s = pair.m_a, np.linspace(0.0, 1.0, 101)
    calls = [partial(m.taylor, s, k) for k in range(4)] + [partial(f_taylor, pair, s, k) for k in range(4)]
    calls += [partial(m.eval_jet, s), partial(f_value, pair, s), partial(f2_closed, pair, s),
              partial(ff.check_conditions, m), partial(inflection_points, pair), partial(find_s1, pair),
              partial(find_s2, pair)]
    calls += [partial(ff.monotonicity_change_of_ratio, m, which) for which in ("m2/m", "m2/m1", "m1/m")]
    for states in ((0.2, 0.0), (0.0, 0.2), (0.2, 0.9), (0.9, 0.2)):
        calls += [partial(ff.riemann.envelope, pair, *states),
                  partial(ff.riemann.solve, ff.riemann.RiemannProblem(*states, pair))]
    return calls


@pytest.mark.parametrize("m_a, m_b", [(text, text) for text in _OVERFLOWING]
                         + [("(1000*s)^201", "s^2"), ("s^2", "(1000*s)^201")])
def test_overflowing_mobilities_raise_only_domain_or_value_errors(m_a, m_b):
    # an overflow ends a call in a DomainError on the non-finite value (or a
    # ValueError), with no numpy RuntimeWarning on the way, also outside the CLI
    pair = ff.ModelPair(ff.parse(m_a), ff.parse(m_b))
    for call in _library_calls(pair) + [partial(f2_closed, pair, s) for s in (0.2, 0.5, 0.8)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call()
            except (ff.DomainError, ValueError):
                pass
