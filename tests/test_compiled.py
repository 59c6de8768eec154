"""Compiled tree evaluation: order truncation, scalar vs array, mpmath oracle,
and the hard inputs at the domain boundary."""

import collections
import functools
import pickle

import mpmath
import numpy as np
import pytest

import fracflow as ff
from fracflow import jet, models, riemann
from fracflow.flux import f_taylor

from conftest import draw_member, rel_close


def trees():
    rng = np.random.default_rng(23)
    out = list(ff.catalog().items())
    out += [(f"draw_{i}", draw_member(rng)) for i in range(12)]
    return out


TREES = trees()
POINTS = np.random.default_rng(5).uniform(1e-4, 1.0 - 1e-4, 200)


@pytest.mark.parametrize("name,m", TREES)
def test_orders_truncate_order_three_exactly(name, m):
    for s in POINTS.tolist():
        full = m.taylor(s, 3)
        j = m.eval_jet(s)
        assert full == (j.f0, j.f1, j.f2, j.f3)
        for k in (1, 2):
            assert m.taylor(s, k) == full[: k + 1], (name, k, s)
    full = m.taylor(POINTS, 3)
    for k in (1, 2):
        got = m.taylor(POINTS, k)
        assert len(got) == k + 1
        for a, b in zip(got, full):
            assert np.array_equal(a, b), (name, k)


@pytest.mark.parametrize("name,m", TREES)
def test_order_zero_is_the_value(name, m):
    # order 0 follows the plain value rules (b**p for powers), which round
    # differently from the jet's repeated multiplication
    for s in POINTS[:50].tolist():
        assert m.taylor(s, 0) == (m.eval(s),)
        assert rel_close(m.eval(s), m.taylor(s, 3)[0], 1e-13)


@pytest.mark.parametrize("name,m", TREES)
def test_scalar_matches_array_element(name, m):
    for k in range(4):
        arr = m.taylor(POINTS, k)
        for i in range(0, len(POINTS), 7):
            scalar = m.taylor(float(POINTS[i]), k)
            for j in range(k + 1):
                assert rel_close(float(scalar[j]), float(arr[j][i]), 1e-13, floor=1e-300), (name, k, j)


def _mp_function(m):
    text = str(m).replace("^", "**")
    return lambda s: eval(text, {"exp": mpmath.exp, "s": s})


@pytest.mark.parametrize("name,m", TREES)
def test_orders_match_mpmath(name, m):
    f = _mp_function(m)
    with mpmath.workdps(40):
        for s in (0.2, 0.5, 0.8):
            x = mpmath.mpf(s)
            exact = [mpmath.diff(f, x, n) for n in range(4)]
            for k in range(4):
                got = m.taylor(s, k)
                for j in range(k + 1):
                    assert rel_close(float(got[j]), float(exact[j]), 1e-9, floor=1e-12), (name, k, j, s)


def test_zero_base_under_noninteger_power():
    m = ff.parse("s^1.1")
    assert m.eval(0.0) == 0.0
    assert m.eval(np.array([0.0, 1.0]))[0] == 0.0
    for k in (1, 2, 3):
        with pytest.raises(ff.DomainError, match="s=0.0"):
            m.taylor(0.0, k)
    with pytest.raises(ff.DomainError):
        m.eval_jet(0.0)


def test_pair_flux_derivative_falls_back_to_clipped_point():
    pair = ff.ModelPair(ff.parse("s^1.1 * exp(s^10)"), ff.parse("s^2.5"))
    curve = riemann.PairFlux(pair)
    assert curve.deriv(0.0) == float(f_taylor(pair, riemann._CLIP, 1)[1])
    assert curve.deriv(1.0) == float(f_taylor(pair, 1.0 - riemann._CLIP, 1)[1])
    expr = riemann.ExprFlux(ff.parse("s^1.5"))
    assert expr.deriv(0.0) == float(ff.parse("s^1.5").taylor(riemann._CLIP, 1)[1])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_division_by_zero_raises_in_both_paths(order):
    m = ff.parse("1/(s - 0.5)")
    with pytest.raises(ff.DomainError, match=r"at s=0\.5$"):
        m.taylor(0.5, order)
    with pytest.raises(ff.DomainError, match=r"at s\[2\]=0\.5$") as info:
        m.taylor(np.linspace(0.0, 1.0, 5), order)
    assert info.value.index == 2


@pytest.mark.parametrize("text,s", [
    ("1/(s - 0.5)", 0.5), ("1/s", 0.0), ("s^-2", 0.0), ("(s - 0.5)^-1", 0.5),
    ("s^-1.5", 0.0), ("s/(s*s)", 0.0), ("exp(1/s)", 0.0),
])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_no_bare_zero_division_from_scalar_path(text, s, order):
    # a ZeroDivisionError would escape pytest.raises and fail the test
    with pytest.raises(ff.DomainError):
        ff.parse(text).taylor(s, order)


def test_order_outside_range_is_rejected():
    with pytest.raises(ValueError, match="order"):
        ff.parse("s^2").taylor(0.5, 4)


def test_evaluated_tree_pickles_without_its_programs():
    m = ff.parse("s^1.1 * exp(s^10)")
    before = m.taylor(0.3, 2)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m
    assert "_programs" not in copy.__dict__
    assert copy.taylor(0.3, 2) == before


def _walk(m, s):
    """Order-3 jet of m by composing the single-rule Jet3 programs node by node."""
    if isinstance(m, models.Const):
        return jet.constant(m.value * np.ones_like(s))
    if isinstance(m, models.Var):
        return jet.seed(s)
    if isinstance(m, models.Sum):
        return functools.reduce(jet.add, (_walk(t, s) for t in m.terms))
    if isinstance(m, models.Prod):
        return functools.reduce(jet.mul, (_walk(f, s) for f in m.factors))
    if isinstance(m, models.Quot):
        return jet.div(_walk(m.num, s), _walk(m.den, s))
    if isinstance(m, models.Pow):
        return jet.pow_const(_walk(m.base, s), m.exponent)
    return jet.exp_jet(_walk(m.arg, s))


LEAF_TREES = [ff.parse(t) for t in ("s", "2", "s^0", "(1 + s)^0", "s^-2", "3*s^2 + 1")]


@pytest.mark.parametrize("name,m", TREES + [(str(m), m) for m in LEAF_TREES])
def test_array_program_equals_node_by_node_composition(name, m):
    walked = _walk(m, POINTS)
    full = (walked.f0, walked.f1, walked.f2, walked.f3)
    for k in range(1, 4):
        got = m.taylor(POINTS, k)
        for a, b in zip(got, full):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, k)


def test_array_program_allocates_one_ones_and_one_zeros(monkeypatch):
    calls = collections.Counter()
    for maker in ("_ones_like", "_zeros_like"):
        original = getattr(jet, maker)
        monkeypatch.setattr(jet, maker, lambda s, f=original, n=maker: calls.update([n]) or f(s))
    jet._maker.cache_clear()  # recompile with the counting fills
    m = ff.parse("s^1.1*(1 + 15*s^3) + 2*s^4 - (1 + s)^2/(3 + s)^2")
    for order in (1, 2, 3):
        calls.clear()
        m._programs.clear()
        m.taylor(POINTS, order)
        assert calls == {"_ones_like": 1, "_zeros_like": 1}, order
    jet._maker.cache_clear()


@pytest.mark.parametrize("m", LEAF_TREES + [m for _, m in TREES[:4]], ids=str)
def test_returned_components_are_separate_arrays(m):
    for order in (1, 2, 3):
        for j in range(order + 1):
            comps = m.taylor(POINTS.copy(), order)
            before = [c.copy() for c in comps]
            comps[j][:] = 7.0
            for i, (c, b) in enumerate(zip(comps, before)):
                if i != j:
                    assert np.array_equal(c, b), (str(m), order, j, i)
