"""Compiled tree evaluation: order truncation, scalar vs array, mpmath oracle,
and the hard inputs at the domain boundary."""

import pickle

import mpmath
import numpy as np
import pytest

import fracflow as ff
from fracflow import riemann
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
