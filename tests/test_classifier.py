"""Admissibility condition checks and ratio monotonicity."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fracflow as ff
from fracflow.classifier import (_bisect_sign_change, check_conditions, report_to_text,
                                 sign_changes)
from fracflow.flux import f_taylor
from fracflow.models import Const, Prod

from bracket_reference import BRACKET_FUNCTIONS, BRACKET_KINDS, draw_bracket, same_trace, traced, two_loop_solver
from sign_reference import EDGES, UNDECIDED, array_traces, check_trace
from conftest import draw_c4star_candidate, draw_member, rel_close


def test_quadratic_power_is_admissible():
    r = check_conditions(ff.power(1, 2))
    assert (r.c1, r.c2, r.c3, r.c4) == ("pass",) * 4
    assert r.c4star == "pass"
    assert r.in_class_M


def test_first_counterexample_fails_only_c4():
    r = check_conditions(ff.parse("s^1.1 * exp(s^10)"))
    assert (r.c1, r.c2, r.c3) == ("pass",) * 3
    assert r.c4 == "fail"
    assert not r.in_class_M
    assert any(w.condition == "c4" and w.kind == "fail" for w in r.witnesses)


def test_chierici_b3_is_admissible():
    r = check_conditions(ff.chierici(A=1, B=3, M=1))
    assert r.in_class_M


def test_chierici_b1_fails_convexity():
    # m'' changes sign at s = B/2 = 0.5
    r = check_conditions(ff.chierici(A=1, B=1, M=1))
    assert r.c3 == "fail"
    assert not r.in_class_M
    witnesses = [w for w in r.witnesses if w.condition == "c3" and w.kind == "fail"]
    assert witnesses and all(w.s > 0.5 for w in witnesses)


def test_brooks_alpha_between_two_and_three_fails_c4_near_one():
    # the bracket factor 1-(1-s)^alpha has a third derivative growing like
    # (1-s)^(alpha-3), so for alpha in (2,3) the ratio m''/m' turns around
    # and increases toward s=1 (verified symbolically: m''/m' at
    # 0.99/0.999/0.9999 is 0.8284../0.9418../0.9813.. for eta=2, alpha=2.5)
    r = check_conditions(ff.brooks_b(eta=2, alpha=2.5))
    assert (r.c1, r.c2, r.c3) == ("pass",) * 3
    assert r.c4 == "fail"
    witnesses = [w for w in r.witnesses if w.condition == "c4" and w.kind == "fail"]
    assert witnesses and all(w.s > 0.9 for w in witnesses)


def test_brooks_alpha_two_and_five_are_admissible():
    for eta in (2.0, 2.5, 3.0, 5.0):
        assert check_conditions(ff.brooks_b(eta, 2.0)).in_class_M
        assert check_conditions(ff.brooks_b(eta, 5.0)).in_class_M


def test_brooks_alpha_below_two_fails_convexity_near_one():
    r = check_conditions(ff.brooks_b(eta=2, alpha=1.5))
    assert r.c3 == "fail"
    worst = min(
        (w for w in r.witnesses if w.condition == "c3" and w.kind == "fail"),
        key=lambda w: w.value,
    )
    assert worst.s > 0.99


def test_sqrt_fails_c2_and_c3():
    r = check_conditions(ff.parse("s^0.5"))
    assert r.c2 == "fail"
    assert r.c3 == "fail"


def test_linear_plus_square_fails_slope_endpoint():
    # m'(0) = 1 != 0, yet the model is convex and c4-monotone
    r = check_conditions(ff.parse("s + s^2"))
    assert r.c2 == "fail"
    assert r.c3 == "pass"
    assert r.c4 == "pass"


def test_nonvanishing_value_fails_c1():
    r = check_conditions(ff.parse("1 + s^2"))
    assert r.c1 == "fail"


def test_criterion_signs_for_counterexamples():
    assert ff.criterion_T3(ff.parse("s^1.1 * exp(s^10)")) > 0.0
    assert ff.criterion_T3(ff.parse("s^1.1 * (1 + 15*s^10)")) > 0.0
    assert ff.criterion_T3(ff.parse("s^1.1 * (1 + 15*s^30)")) < 0.0


def test_criterion_value_for_quadratic():
    # m = s^2: (m''/m^3)' = -12 s^-7, so -12 * 2^7 = -1536 at one half
    assert rel_close(ff.criterion_T3(ff.power(1, 2)), -1536.0, 1e-12)


def test_criterion_value_whose_m_to_the_fourth_underflows():
    # m(0.5)^4 is 2^-1200 for s^300 and 6.25e-402 for 1e-100*s^2, below the smallest float
    assert rel_close(ff.criterion_T3(ff.power(1, 300)), _t3_mpmath(lambda s: s ** 300), 1e-12)
    scaled, plain = check_conditions(ff.parse("1e-100*s^2")), check_conditions(ff.parse("s^2"))
    verdicts = lambda r: (r.c1, r.c2, r.c3, r.c4, r.c4star, r.in_class_M)
    assert verdicts(scaled) == verdicts(plain) == ("pass",) * 5 + (True,)
    assert rel_close(scaled.criterion_T3, -1536.0e200, 1e-12)


def _t3_mpmath(m):
    """(m'''*m - 3*m''*m')/m^4 at s = 0.5, to 50 digits."""
    with mpmath.workdps(50):
        d = [mpmath.diff(m, mpmath.mpf(0.5), k) for k in range(4)]
        return float((d[3] * d[0] - 3 * d[2] * d[1]) / d[0] ** 4)


def test_ratio_change_location_for_first_counterexample():
    # (m''/m)' = s^-3 (1800 s^20 + 896 s^10 - 0.22): root from the
    # quadratic formula in s^10
    x = (-896.0 + math.sqrt(896.0 ** 2 + 4.0 * 1800.0 * 0.22)) / (2.0 * 1800.0)
    expected = x ** 0.1
    roots = ff.monotonicity_change_of_ratio(ff.parse("s^1.1 * exp(s^10)"), "m2/m")
    assert len(roots) == 1
    assert abs(roots[0] - expected) < 1e-6
    assert abs(roots[0] - 0.4355) < 1e-3


def test_monotone_ratios_have_no_changes():
    assert ff.monotonicity_change_of_ratio(ff.power(1, 2), "m2/m1") == []
    assert ff.monotonicity_change_of_ratio(ff.power(1, 3), "m1/m") == []


def test_ratio_name_validation():
    with pytest.raises(ValueError, match="which"):
        ff.monotonicity_change_of_ratio(ff.power(1, 2), "m3/m")


def test_precondition_validation():
    with pytest.raises(ValueError):
        check_conditions(ff.power(1, 2), grid_n=50)
    with pytest.raises(ValueError):
        check_conditions(ff.power(1, 2), eps=0.5)


CE1 = ff.parse(ff.models.COUNTEREXAMPLES[0])
# each function on the clipped grid, with the smallest grid_n it accepts
GRID_FUNCTIONS = {
    "check_conditions": (lambda **kw: check_conditions(CE1, **kw), 100),
    "monotonicity_change_of_ratio": (lambda **kw: ff.monotonicity_change_of_ratio(CE1, "m2/m1", **kw), 100),
    "find_s1": (lambda **kw: ff.find_s1(ff.ModelPair(CE1, CE1), **kw), 100),
    "find_s2": (lambda **kw: ff.find_s2(ff.ModelPair(CE1, CE1), **kw), 100),
    "inflection_points": (lambda **kw: ff.inflection_points(ff.ModelPair(CE1, CE1), **kw), 1000),
}


@pytest.mark.parametrize("eps", [0.0, 0.7, -0.5])
@pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
def test_grid_functions_reject_an_eps_outside_the_clip_range(name, eps):
    # eps = 0.7 used to give a descending grid and CE1 a single inflection
    with pytest.raises(ValueError, match=r"eps must be in \(0, 1e-3\)"):
        GRID_FUNCTIONS[name][0](eps=eps)


@pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
def test_grid_functions_reject_a_grid_below_their_minimum(name):
    fn, min_n = GRID_FUNCTIONS[name]
    for grid_n in (1, min_n - 1):
        with pytest.raises(ValueError, match=f"grid_n must be >= {min_n}, got {grid_n}$"):
            fn(grid_n=grid_n)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_sign_changes_rejects_a_tol_that_is_not_positive(tol):
    pair = ff.ModelPair(ff.power(1, 2), ff.power(1, 2))
    with pytest.raises(ValueError, match="tol must be positive"):
        ff.inflection_points(pair, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        ff.monotonicity_change_of_ratio(ff.power(1, 2), "m1/m", tol=tol)


def test_sign_changes_names_the_first_non_finite_sample():
    s = np.linspace(0.0, 1.0, 5)
    values = np.array([-1.0, 1.0, np.inf, np.nan, 1.0])
    with pytest.raises(ff.DomainError, match=r"non-finite sample at s\[2\]=0.5") as info:
        sign_changes(s, values, lambda t: t - 0.5, 1e-12)
    assert info.value.index == 2


def test_check_conditions_rejects_non_finite_condition_values():
    # m = s^2*exp(800*s) overflows past s ~ 0.887, and the c4 numerator
    # m'''m' - m''^2 already past s ~ 0.43; the overflowed samples used to pass
    m = ff.parse("s^2*exp(800*s)")
    s = np.linspace(1e-6, 1.0 - 1e-6, 4096)
    with np.errstate(over="ignore", invalid="ignore"):
        j = m.eval_jet(s)
        first = int(np.flatnonzero(~np.isfinite(j.f3 * j.f1 - j.f2 ** 2))[0])
        assert np.isfinite([j.f0[:first + 1], j.f1[:first + 1], j.f2[:first + 1]]).all()
        with pytest.raises(ff.DomainError, match=rf"non-finite c4 value at s\[{first}\]=") as info:
            check_conditions(m)
    assert info.value.index == first


def test_power_family_admissible():
    rng = np.random.default_rng(101)
    for _ in range(50):
        A = float(rng.uniform(1e-6, 10.0))
        a = float(rng.uniform(1.0, 8.0))
        if a <= 1.0 + 1e-3:  # below endpoint-test resolution
            a += 1e-3
        assert check_conditions(ff.power(A, a)).in_class_M, (A, a)


def test_c4_implies_slope_ratio_decreasing():
    # over the catalog and random parameterizations: no model passes c4
    # while failing the m'/m-decreasing half of c4star
    rng = np.random.default_rng(23)
    pool = list(ff.catalog().values())
    for _ in range(200):
        pool.append(draw_c4star_candidate(rng))
    for m in pool:
        r = check_conditions(m)
        if r.c4 == "pass":
            assert r.c4star == "pass", str(m)


def test_product_closure_of_starred_condition():
    rng = np.random.default_rng(31)
    accepted = []
    while len(accepted) < 60:
        m = draw_c4star_candidate(rng)
        if check_conditions(m).c4star == "pass":
            accepted.append(m)
    for k in range(100):
        m1 = accepted[int(rng.integers(len(accepted)))]
        m2 = accepted[int(rng.integers(len(accepted)))]
        assert check_conditions(ff.product(m1, m2)).c4star == "pass", (str(m1), str(m2))


def test_product_closure_of_the_class():
    # the paper's closure theorem: the product of two members of the class
    # (c1-c4) is a member
    rng = np.random.default_rng(11)
    products = 0
    while products < 240:
        m1, m2 = draw_member(rng), draw_member(rng)
        if check_conditions(m1).in_class_M and check_conditions(m2).in_class_M:
            products += 1
            assert check_conditions(ff.product(m1, m2)).in_class_M, (str(m1), str(m2))


def _verdicts(r):
    return r.c1, r.c2, r.c3, r.c4, r.c4star, r.in_class_M


def test_verdicts_do_not_change_under_a_positive_scale():
    # the conditions hold for c*m (c > 0) exactly when they hold for m, and the
    # endpoint rule compares two values of one component.  Scales of 1e-10 and
    # below are left out: c^2 times a c4 numerator falls under ZERO_TOL there.
    rng = np.random.default_rng(7)
    for m in [*ff.catalog().values(), *(draw_member(rng) for _ in range(100))]:
        expected = _verdicts(check_conditions(m))
        for k in (-3, 3, 10, 100):
            assert _verdicts(check_conditions(Prod((Const(10.0 ** k), m)))) == expected, (k, str(m))


def test_reports_are_deterministic():
    m = ff.parse("s^1.1 * exp(s^10)")
    r1 = check_conditions(m, grid_n=2048, eps=1e-6)
    r2 = check_conditions(m, grid_n=2048, eps=1e-6)
    assert r1 == r2


def test_report_serialization_mirrors_fields():
    r = check_conditions(ff.power(1, 2))
    d = dataclasses.asdict(r)  # what `fracflow check --json` prints
    assert d["c1"] == "pass" and d["in_class_M"] is True
    assert set(d) >= {"c1", "c2", "c3", "c4", "c4star", "in_class_M", "witnesses", "criterion_T3"}
    text = report_to_text(r)
    assert "in_class_M: true" in text


# -- the bracket solver ------------------------------------------------------

def _counted(func):
    calls = []

    def wrapped(t):
        calls.append(t)
        return func(t)
    return wrapped, calls


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BRACKET_FUNCTIONS)),
    lo=st.floats(-2.0, 1.0),
    width=st.floats(1e-8, 3.0),
    where=st.floats(0.0, 1.0),
    negate=st.booleans(),
    tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
)
def test_bracket_solver_finds_the_sign_change_within_twice_the_bisection_budget(
    name, lo, width, where, negate, tol
):
    assume(width > 10.0 * tol)
    hi = lo + width
    r = lo + where * width
    shape = BRACKET_FUNCTIONS[name]
    func, calls = _counted(lambda t: -shape(t - r) if negate else shape(t - r))
    root = _bisect_sign_change(func, lo, hi, tol, func(lo), func(hi))
    assert len(calls) <= 2 * math.ceil(math.log2(width / tol)) + 3
    assert lo <= root <= hi
    assert abs(root - r) <= tol or func(root) == 0.0, (root, r)


def test_bracket_solver_is_capped_on_a_high_order_root():
    # pure Illinois regula falsi creeps on (t - 0.3)^11; the step budget
    # hands the bracket to bisection
    func, calls = _counted(lambda t: (t - 0.3) ** 11)
    root = _bisect_sign_change(func, 0.0, 1.0, 1e-12, func(0.0), func(1.0))
    assert len(calls) <= 2 * math.ceil(math.log2(1e12)) + 3
    assert abs(root - 0.3) <= 1e-12 or func(root) == 0.0


def test_bracket_solver_without_a_sign_change_bisects_toward_hi():
    func, calls = _counted(lambda t: 1.0 + t)
    root = _bisect_sign_change(func, 0.0, 1.0, 1e-6, func(0.0), func(1.0))
    assert 1.0 - 1e-6 <= root <= 1.0
    assert len(calls) == 2 + math.ceil(math.log2(1e6))


def test_bracket_solver_returns_an_exact_zero_at_an_end():
    for func, end in ((lambda t: t - 1.0, 1.0), (lambda t: t, 0.0)):
        assert _bisect_sign_change(func, 0.0, 1.0, 1e-12, func(0.0), func(1.0)) == end
    assert _bisect_sign_change(lambda t: 1.0 / 0.0, 0.0, 1.0, 1e-12, 0.0, -1.0) == 0.0


def test_bracket_solver_survives_a_nan_inside_the_bracket():
    # the first secant step lands at 0.7, inside the NaN stretch
    func, calls = _counted(lambda t: float("nan") if 0.65 < t < 0.75 else t - 0.7)
    root = _bisect_sign_change(func, 0.0, 1.0, 1e-12, func(0.0), func(1.0))
    assert calls[2] == pytest.approx(0.7)
    assert 0.0 <= root <= 1.0
    assert len(calls) <= 2 * math.ceil(math.log2(1e12)) + 3


def test_bracket_solver_ends_at_two_neighbouring_floats():
    # tol lies below the spacing of the two ends, and no float lies between
    # them: the bracket cannot narrow, so an end of it is returned
    lo, hi = 0.5, float(np.nextafter(0.5, 1.0))
    calls = []

    def func(t):
        calls.append(t)
        if len(calls) > 200:
            raise RuntimeError("the solver does not end")
        return t - 0.5 - 1e-17
    assert _bisect_sign_change(func, lo, hi, 1e-20, func(lo), func(hi)) in (lo, hi)


@pytest.mark.parametrize("kind", BRACKET_KINDS)
def test_bracket_solver_evaluates_as_the_two_loop_reference(kind):
    # the same points in the same order and the same value as the two-loop
    # solver it replaced, on drawn brackets where that one terminates
    rng = np.random.default_rng(BRACKET_KINDS.index(kind))
    for _ in range(300):
        bracket = draw_bracket(rng, kind)
        assert same_trace(traced(_bisect_sign_change, *bracket), traced(two_loop_solver, *bracket)), bracket[1:]


@pytest.mark.parametrize("name,count", [("counterexample_1", 3), ("counterexample_2", 3), ("counterexample_3", 5)])
def test_counterexample_brackets_take_at_most_eight_evaluations(name, count):
    m = ff.catalog()[name]
    pair = ff.ModelPair(m, m)
    s = np.linspace(1e-6, 1.0 - 1e-6, 8192)
    y = np.asarray(f_taylor(pair, s, 2)[2], dtype=float)
    f2 = lambda t: float(f_taylor(pair, t, 2)[2])
    brackets = np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)
    assert len(brackets) == count
    for i in brackets:
        func, calls = _counted(f2)
        root = _bisect_sign_change(func, float(s[i]), float(s[i + 1]), 1e-12, float(y[i]), float(y[i + 1]))
        assert len(calls) <= 8, (i, len(calls))
        assert f2(root) == 0.0 or f2(root - 1e-12) * f2(root + 1e-12) < 0.0, root


# -- grid sign decisions from reductions -------------------------------------

_SAMPLE = st.one_of(st.sampled_from(EDGES + [1e308, -1e308]), st.floats(-1e3, 1e3))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _sampled_values(draw):
    """Sampled values with edge samples (+-ZERO_TOL, +-0.0, subnormals),
    undecided runs at the start, the middle or the end (or everywhere), at
    most one NaN or +-inf, or finite values whose sum overflows."""
    values = draw(st.lists(_SAMPLE, min_size=1, max_size=40))
    n = len(values)
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.sampled_from([0, n // 2, n - 1, draw(st.integers(0, n - 1))]))
        hi = draw(st.sampled_from([n, lo + 1, draw(st.integers(lo, n))]))
        values[lo:hi] = [draw(st.sampled_from(UNDECIDED)) for _ in values[lo:hi]]
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(_NON_FINITE)
    elif draw(st.integers(0, 4)) == 0:
        values[: min(n, 4)] = [1e308] * min(n, 4)
    return np.array(values)


@settings(max_examples=400, deadline=None)
@given(values=_sampled_values())
def test_grid_sign_decisions_equal_the_mask_reference(values):
    # verdicts, witness reprs, the (lo, hi, f_lo, f_hi) handed to the solver,
    # and each DomainError's message and index, against the mask-based code
    s = np.linspace(0.0, 1.0, len(values))
    for what, (want, got) in array_traces(s, values):
        assert got == want, what


@settings(max_examples=150, deadline=None)
@given(conditions=st.lists(_sampled_values(), min_size=5, max_size=5), n=st.integers(100, 140), data=st.data())
def test_check_conditions_sign_stage_equals_the_mask_reference(conditions, n, data):
    # the five condition arrays of one grid, tiled from drawn values, each with
    # at most one more non-finite value, so the stacked rule picks among
    # conditions and grid points
    arrays = tuple(np.resize(values, n) for values in conditions)
    for values in arrays:
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, n - 1))] = data.draw(_NON_FINITE)
    want, got = check_trace(arrays)
    assert got == want
