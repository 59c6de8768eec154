"""Compiled tree evaluation: order truncation, scalar vs array, mpmath oracle,
and the hard inputs at the domain boundary."""

import collections
import functools
import math
import pickle
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracflow as ff
from fracflow import jet, models, riemann
from fracflow.flux import f_taylor, pair_program

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
    # differently from the jet's chain rule
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


# base text -> (the base as a program rounds it, its exact slope in s)
INT_POWER_BASES = {
    "s": (lambda s: s, 1),
    "1 - s": (lambda s: 1.0 - s, -1),
    "2*s - 1": (lambda s: 2.0 * s - 1.0, 2),  # negative below 1/2
    "s - s": (lambda s: s - s, 0),  # an exact zero that is not known when compiled
}
# one ** (at most 1 ulp), three products by the base and one by the
# coefficient (half an ulp each); products by the slope are exact
INT_POWER_RTOL = 4 * 2.0 ** -52
TINY = np.finfo(float).tiny


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 60), st.sampled_from(sorted(INT_POWER_BASES)), st.integers(0, 3),
       st.lists(st.floats(0.0, 1.0), max_size=6))
def test_integer_powers_match_mpmath(p, base, order, points):
    """(base)^p against the exact derivatives p*(p-1)*...*(p-j+1)*a0^(p-j)*slope^j
    at the base a0 as the program rounds it: within INT_POWER_RTOL where the
    exact value and the power a0^(p-j) are normal floats, exactly zero where
    the exact value is zero, and no error at zero or negative bases."""
    to_base, slope = INT_POWER_BASES[base]
    m = ff.parse(f"({base})^{p}")
    points = [0.0, 0.5, 1.0] + points  # the zero of each base
    array = m.taylor(np.array(points), order)
    for i, s in enumerate(points):
        a0 = mpmath.mpf(to_base(s))
        scalar = m.taylor(s, order)
        for j in range(order + 1):
            coeff = math.prod(range(p - j + 1, p + 1))  # 0 for j > p
            power = a0 ** (p - j) if coeff else mpmath.mpf(0)
            exact = coeff * power * slope ** j
            for got in (scalar[j], float(array[j][i])):
                if exact == 0:
                    assert got == 0.0, (base, p, order, j, s, got)
                elif TINY <= abs(exact) and TINY <= abs(power):
                    assert abs(got - exact) <= INT_POWER_RTOL * abs(exact), (base, p, order, j, s, got)


def test_integer_powers_keep_their_parity_up_to_two_to_the_53():
    # at and beyond 2**53 every float is even and p - 3 rounds, so the
    # chain rule would give (-1)**p the wrong sign: a negative base is refused
    m = models.Pow(ff.parse("2*s - 1"), 2.0 ** 53 - 1)
    assert m.taylor(0.0, 3) == (-1.0, 2.0 * (2.0 ** 53 - 1), -4.0 * (2.0 ** 53 - 1) * (2.0 ** 53 - 2),
                                8.0 * (2.0 ** 53 - 1) * (2.0 ** 53 - 2) * (2.0 ** 53 - 3))
    m = models.Pow(ff.parse("2*s - 1"), 2.0 ** 53)
    assert m.taylor(0.0, 0) == (1.0,)
    with pytest.raises(ff.DomainError, match="of a non-positive value") as info:
        m.taylor(0.0, 1)
    assert str(info.value).startswith("power 9007199254740992.0 of a non-positive value (an integer from "
                                      "2**53 on is too large for the exact integer rule) while evaluating")


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_negative_integer_power_at_zero_keeps_its_message(order):
    message = ("zero raised to negative power -2.0" if order == 0
               else "division by a jet with zero value") + " while evaluating s^-2 at "
    m = ff.parse("s^-2")
    with pytest.raises(ff.DomainError) as info:
        m.taylor(0.0, order)
    assert str(info.value) == message + "s=0.0"
    with pytest.raises(ff.DomainError) as info:
        m.taylor(np.array([0.5, 0.0]), order)
    assert str(info.value) == message + "s[1]=0.0" and info.value.index == 1


@pytest.mark.parametrize("array", [False, True])
def test_integer_power_programs_take_one_float_power(array):
    # s^30 at order 2: one ** for s^27, then s^28 .. s^30 as products;
    # s^1.1 likewise: one ** for it, then s^0.1 and s^-0.9 as quotients by s
    tape = jet.Tape(array)
    models._emit(tape, ff.parse(models.COUNTEREXAMPLES[2]), "s", 2)
    powers = [line for line in tape.lines if "**" in line]
    assert len(powers) == 2  # s^1.1 and s^27
    assert sum(" = " in line and not line.startswith("bad") for line in tape.lines) <= 18


@pytest.mark.parametrize("array", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [-2.0, 2.0, 3.0, 7.0, 30.0, -1.5, 0.5, 1.1, 5.7, 2.0 ** 53, 2.0 ** 60])
def test_each_power_node_runs_one_float_power(p, order, array):
    # the rule rows hold no **: only the power's own a0**p (or the integer
    # rule's a0**(p-3)) does, and integers up to 3 need none past order 0
    tape = jet.Tape(array)
    tape.pow(tuple(f"a{j}" for j in range(order + 1)), p)
    want = 0 if order and p == round(p) and abs(p) <= 3 else 1
    assert sum("**" in line for line in tape.lines) == want


@pytest.mark.parametrize("M,want", [(1.0, 0), (1.5, 1)])
def test_chierici_array_program_powers(M, want):
    # a1 = -1/s^2 of (1-s)/s is negative: a1^3 in the chain rule is products
    tape = jet.Tape(True)
    models._emit(tape, ff.chierici(1.0, 3.0, M), "s", 3)
    assert sum("**" in line for line in tape.lines) == want


def _mp_power_jet(base, p, s):
    """Exact order-3 jet of base(s)^p at the float s, 50 digits, by Faa di
    Bruno on the exact jet of the base."""
    s = mpmath.mpf(s)
    u = {"s": (s, 1, 0, 0), "1 - s": (1 - s, -1, 0, 0),
         "(1 - s)/s": (1 / s - 1, -1 / s ** 2, 2 / s ** 3, -6 / s ** 4)}[base]
    phi = (u[0] ** p, p * u[0] ** (p - 1), p * (p - 1) * u[0] ** (p - 2),
           p * (p - 1) * (p - 2) * u[0] ** (p - 3))
    return (phi[0], phi[1] * u[1], phi[2] * u[1] ** 2 + phi[1] * u[2],
            phi[3] * u[1] ** 3 + 3 * phi[2] * u[1] * u[2] + phi[1] * u[3])


@pytest.mark.parametrize("base", ["s", "1 - s", "(1 - s)/s"])
def test_noninteger_powers_match_mpmath(base):
    """Each a0**(p-j) is a0**(p-j+1) / a0: components 1-3 of base^p for
    non-integer p in (1, 6) within 1e-13 of 50-digit values, at scalar and
    array points in [1e-6, 1 - 1e-6]."""
    rng = np.random.default_rng(29)
    points = np.concatenate([[1e-6, 1.0 - 1e-6], rng.uniform(1e-6, 1.0 - 1e-6, 30)])
    for p in rng.uniform(1.0, 6.0, 6).tolist():
        m = ff.parse(f"({base})^{p!r}")
        array = m.taylor(points, 3)
        with mpmath.workdps(50):
            for i, s in enumerate(points.tolist()):
                exact = _mp_power_jet(base, mpmath.mpf(p), s)
                for got in (m.taylor(s, 3), [c[i] for c in array]):
                    for j in (1, 2, 3):
                        assert rel_close(float(got[j]), float(exact[j]), 1e-13, floor=0.0), (base, p, s, j)


def test_scalar_power_overflow_is_a_domain_error_at_the_point():
    m = ff.parse("(1000*s)^201")
    for order in range(4):
        with pytest.raises(ff.DomainError, match=r"^float overflow while evaluating "
                                                 r"\(1000\*s\)\^201 at s=0\.8$"):
            m.taylor(0.8, order)
        with np.errstate(over="ignore"):  # numpy's power overflows to inf
            assert np.isinf(m.taylor(np.array([0.8]), order)[0]).all()


def test_scalar_exp_overflow_is_a_domain_error_at_the_point():
    # math.exp raises OverflowError where numpy's exp gave inf and a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ff.DomainError, match=r"^float overflow while evaluating exp\(1000\*s\) at s=0\.9$"):
            ff.parse("exp(1000*s)").taylor(0.9, 1)


def _plain_floats(fn, s):
    """Whether every component fn(s) returns is a Python float (True where
    fn raises DomainError)."""
    try:
        out = fn(s)
    except ff.DomainError:
        return True
    return all(type(c) is float for c in (out if isinstance(out, tuple) else (out,)))


def _scalar_results(m_a, m_b):
    """Every scalar taylor order of m_a and m_b, and the pair's curve value and slope."""
    curve = riemann.PairFlux(ff.ModelPair(m_a, m_b))
    return [curve.value, curve.deriv] + [functools.partial(m.taylor, order=k) for m in (m_a, m_b) for k in range(4)]


@pytest.mark.parametrize("name,m", TREES)
def test_scalar_programs_compute_in_plain_floats(name, m):
    # a numpy scalar (np.exp's np.float64) would turn every later operation into numpy arithmetic
    for s in POINTS[::20].tolist():
        assert all(_plain_floats(fn, s) for fn in _scalar_results(m, m)), name


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


# one case per kind of domain check, each failing at s = 0.25: (name, evaluate, orders, message)
_NAN_CASES = [
    ("zero divisor", ff.parse("1/(s - 0.25)").taylor, (0, 1, 2, 3), "division by"),
    ("zero total mobility", functools.partial(f_taylor, ff.ModelPair(ff.parse("s - s"), ff.parse("s - s"))),
     (0, 1, 2, 3), "zero total mobility"),
    ("non-positive base", ff.parse("(s - 0.5)^1.5").taylor, (0, 1, 2, 3), "non-integer power 1.5 of a n"),
    ("zero to a negative power", ff.parse("(s - 0.25)^-2").taylor, (0,), "zero raised to negative power"),
]


@pytest.mark.parametrize("evaluate, order, message", [
    pytest.param(evaluate, k, message, id=f"{name}-{k}") for name, evaluate, orders, message in _NAN_CASES
    for k in orders])
def test_nan_fails_no_domain_check(evaluate, order, message):
    # flux.f_value masks the exact ends of an array as NaN and relies on this
    with np.errstate(all="raise"):
        jet = evaluate(np.array([np.nan, np.nan]), order)
        assert all(np.isnan(c).all() for c in jet)
        with pytest.raises(ff.DomainError, match=rf"{message}.* at s\[1\]=0\.25$") as info:
            evaluate(np.array([np.nan, 0.25]), order)
    assert info.value.index == 1


@pytest.mark.parametrize("text,s", [
    ("1/(s - 0.5)", 0.5), ("1/s", 0.0), ("s^-2", 0.0), ("(s - 0.5)^-1", 0.5),
    ("s^-1.5", 0.0), ("s/(s*s)", 0.0), ("exp(1/s)", 0.0), ("((1 - 2)^0.5)^1.5", 0.5),
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


@pytest.mark.parametrize("text,counts", [
    ("s^1.1*(1 + 15*s^3) + 2*s^4 - (1 + s)^2/(3 + s)^2", [{}, {}, {}]),
    ("s", [{"_ones_like": 1}, {"_ones_like": 1, "_zeros_like": 1}, {"_ones_like": 1, "_zeros_like": 2}]),
    ("3*s^2 + 1", [{}, {"_ones_like": 1}, {"_ones_like": 1, "_zeros_like": 1}]),  # f2 = 6, f3 = 0
    ("(1 + s)^0", [{"_ones_like": 1, "_zeros_like": 1}, {"_ones_like": 1, "_zeros_like": 2},
                   {"_ones_like": 1, "_zeros_like": 3}]),
    ("s - s", [{"_zeros_like": 1}, {"_zeros_like": 2}, {"_zeros_like": 3}]),  # f0 = s - s is computed
])
def test_array_programs_allocate_only_returned_known_components(text, counts, monkeypatch):
    calls = collections.Counter()
    for maker in ("_ones_like", "_zeros_like"):
        original = getattr(jet, maker)
        monkeypatch.setattr(jet, maker, lambda s, f=original, n=maker: calls.update([n]) or f(s))
    jet._maker.cache_clear()  # recompile with the counting makers
    m = ff.parse(text)
    for order, want in enumerate(counts, 1):
        calls.clear()
        m._programs.clear()
        m.taylor(POINTS, order)
        assert calls == want, order
    jet._maker.cache_clear()


# a binary operation with a literal operand that folding removes
IDENTITY_OP = re.compile(r"[*/] 1\.0\b|\b1\.0 \*|[-+*] 0\.0\b|\b0\.0 [-+*]")


@pytest.mark.parametrize("text", models.COUNTEREXAMPLES)
def test_counterexample_programs_emit_no_identity_operations(text):
    m = ff.parse(text)
    for order in range(4):
        for array in (False, True):
            tape = jet.Tape(array)
            models._emit(tape, m, "s", order)
            assert not [line for line in tape.lines if IDENTITY_OP.search(line)], (order, array)
    assert IDENTITY_OP.search("v3 = v1 * 1.0") and IDENTITY_OP.search("v3 = 0.0 - v1")
    assert not IDENTITY_OP.search("if s <= 0.0: raise DomainError(k0)")


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


# -- scalar curve programs ------------------------------------------------------

def _trees(leaves=st.nothing(), exponents=(-2.0, -1.5, 0.5, 1.1, 2.0, 3.0)):
    leaves = st.one_of(st.just(models.Var()),
                       st.floats(-3.0, 3.0, allow_nan=False).map(models.Const), leaves)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda t: models.Sum(tuple(t))),
            st.lists(children, min_size=2, max_size=3).map(lambda t: models.Prod(tuple(t))),
            st.tuples(children, children).map(lambda t: models.Quot(*t)),
            st.tuples(children, st.sampled_from(exponents)).map(
                lambda t: models.Pow(*t)),
            children.map(models.Exp),
        )
    return st.recursive(leaves, extend, max_leaves=8)


# -- folding against the unfolded composition ---------------------------------

CONSTANT_SUBTREES = [ff.parse(t) for t in ("2*3", "s^0", "(1 + s)^0", "0*s", "s - s", "1/(2 + 0*s)")]


def _power(a, p):
    """a**p as Tape.pow takes it: the one-rule pow program, with a negative
    integer power taken as 1 over it from a unit jet of real ones and zeros,
    so that nothing in the oracle folds."""
    if p != round(p) or p >= 0:
        return jet.pow_const(a, p)
    one = jet.constant(np.ones_like(a.f0) if isinstance(a.f0, np.ndarray) else 1.0)
    return jet.div(one, _power(a, -p))


def _exp(a):
    """exp(a) as Tape.exp takes it: numpy's exp on arrays; on floats
    math.exp, whose overflow the programs raise as a DomainError, and the
    chain rule's rows written out term by term."""
    if isinstance(a.f0, np.ndarray):
        return jet.exp_jet(a)
    try:
        e = math.exp(a.f0)
    except OverflowError:
        raise ff.DomainError("float overflow") from None
    return jet.Jet3(e, e * a.f1, e * a.f1 * a.f1 + e * a.f2,
                    e * a.f1 * a.f1 * a.f1 + 3.0 * e * a.f1 * a.f2 + e * a.f3)


def _unfolded(m, s):
    """Order-3 jet of m composed node by node from single-rule programs whose
    operands are all parameters: the ones and zeros of seeds and constants are
    real floats or arrays, multiplied and added at run time."""
    if isinstance(m, models.Const):
        return jet.constant(m.value * (np.ones_like(s) if isinstance(s, np.ndarray) else 1.0))
    if isinstance(m, models.Var):
        return jet.seed(s)
    if isinstance(m, models.Sum):
        return functools.reduce(jet.add, (_unfolded(t, s) for t in m.terms))
    if isinstance(m, models.Prod):
        return functools.reduce(jet.mul, (_unfolded(f, s) for f in m.factors))
    if isinstance(m, models.Quot):
        return jet.div(_unfolded(m.num, s), _unfolded(m.den, s))
    if isinstance(m, models.Pow):
        return _power(_unfolded(m.base, s), m.exponent)
    return _exp(_unfolded(m.arg, s))


def _jet_outcome(fn, s):
    """fn()'s components, or its error as (type name, flat index into s)."""
    try:
        return tuple(fn())
    except (ArithmeticError, ValueError) as exc:
        # an overflowing float power or exp is a DomainError of a line that a
        # lower order may not run, unlike a domain check, which every order keeps
        name = "overflow" if "float overflow" in str(exc) else type(exc).__name__
        return name, getattr(exc, "index", None) if isinstance(s, np.ndarray) else None


def _assert_folded(got, want, invalid):
    """got equals want: bit for bit where want is finite and nonzero, by value
    at zeros and infinities, and with nan at the same places unless the
    unfolded run met an invalid operation (inf*0 there is nan, 0 when folded)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    exact = np.isfinite(want) & (want != 0.0)
    assert got[exact].tobytes() == want[exact].tobytes()
    assert np.array_equal(got[want == 0.0], want[want == 0.0])
    assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])
    if not invalid:
        assert np.array_equal(np.isnan(got), np.isnan(want))


def _meets_invalid(fn, *args):
    """Whether fn on args as arrays meets an invalid operation such as inf*0."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            fn(*map(np.atleast_1d, args))
    except FloatingPointError:
        return True
    except ArithmeticError:
        pass
    return False


@settings(max_examples=200, deadline=None)
@given(_trees(leaves=st.sampled_from(CONSTANT_SUBTREES),
              exponents=[-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -1.5, 0.5, 1.1]))
def test_folded_programs_equal_the_unfolded_composition(m):
    for s in (POINTS, *POINTS[::50].tolist()):
        invalid = _meets_invalid(lambda x: _unfolded(m, x), s)
        with np.errstate(all="ignore"):
            want = _jet_outcome(lambda: _unfolded(m, s).__dict__.values(), s)
            for k in (1, 2, 3):
                got = _jet_outcome(lambda: m.taylor(s, k), s)
                if isinstance(want[0], str) or isinstance(got[0], str):
                    # a float power may overflow in the order-3 components
                    # alone; a known 0 may make a nan divisor (0*inf) zero
                    if (k == 3 or want[0] == "DomainError") and not invalid:
                        assert got == want, (str(m), k)
                    continue
                assert len(got) == k + 1, (str(m), k)
                for j in range(k + 1):
                    _assert_folded(got[j], want[j], invalid)


RULES = [("add", 2, ()), ("sub", 2, ()), ("mul", 2, ()), ("div", 2, ()), ("neg", 1, ()),
         ("reflect", 1, ()), ("exp", 1, ())] + [("pow", 1, (p,)) for p in (-2.0, 0.0, 3.0, -1.5, 1.1)]
RULE_POINTS = np.random.default_rng(11).uniform(-2.0, 2.0, 64)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r[0]}{r[2]}")
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.booleans(),
       st.lists(st.sampled_from([None, None, 0.0, -0.0, 1.0, 1.0, -1.0, 2.0]) | st.floats(-4.0, 4.0),
                min_size=8, max_size=8))
def test_each_rule_folds_like_its_unfolded_program(rule, order, array, values):
    """One rule on jets whose components are known (a value) or parameters
    (None), folded, against the unfolded rule of the same kind of program (a
    scalar one takes math.exp) fed the known values at run time."""
    name, n_jets, params = rule
    tape = jet.Tape(array)
    jets = [tuple(f"x{4 * i + j}" if values[4 * i + j] is None else tape._known(values[4 * i + j])
                  for j in range(order + 1)) for i in range(n_jets)]
    unknown = [c for jet_ in jets for c in jet_ if c.startswith("x")] or ["x0"]
    folded = tape.build(unknown, getattr(tape, name)(*jets, *params))
    run = unfolded = jet._program(name, n_jets, *params)  # an array program: numpy probes it for invalid operations
    if not array:
        scalar = jet.Tape(False)
        comps = [tuple(f"x{4 * i + j}" for j in range(4)) for i in range(n_jets)]
        run = scalar.build([c for jet_ in comps for c in jet_], getattr(scalar, name)(*comps, *params))
    for s in ([RULE_POINTS] if array else RULE_POINTS[::16].tolist()):
        inputs = [s + 0.5 * k for k in range(4 * n_jets)]
        one = np.ones_like(s) if array else 1.0
        runtime = [inputs[k] if v is None else v * one for k, v in enumerate(values[:4 * n_jets])]
        invalid = _meets_invalid(unfolded, *runtime)
        with np.errstate(all="ignore"):
            want = _jet_outcome(lambda: run(*runtime), s)
            got = _jet_outcome(lambda: folded(*(inputs[int(c[1:])] for c in unknown)), s)
        if isinstance(want[0], str) or isinstance(got[0], str):
            if (order == 3 or want[0] == "DomainError") and not invalid:
                assert got == want, (name, jets)
            continue
        assert len(got) == order + 1, (name, jets)
        for j in range(order + 1):
            _assert_folded(got[j], want[j], invalid)


def test_known_zero_absorbs_an_overflowed_factor():
    # unfolded, 0 * exp(1000*s) is 0 * inf = nan where exp overflows; folded,
    # the known 0 makes the product 0 whatever the other factor holds
    m = ff.parse("0*exp(1000*s) + s^2")
    s = np.array([0.25, 0.75])
    with np.errstate(all="ignore"):
        unfolded = _unfolded(m, s)
        folded = m.taylor(s, 3)
        assert ff.check_conditions(m).in_class_M  # `fracflow check` exited 2 on the nan
    assert np.isnan(unfolded.f0[1]) and np.isfinite(unfolded.f0[0])
    assert [c.tolist() for c in folded] == [(s * s).tolist(), (s + s).tolist(), [2.0, 2.0], [0.0, 0.0]]


def test_dead_locals_are_not_computed(monkeypatch):
    # the known 0 leaves exp(1000*s) and its chain-rule products unread: the
    # program drops them, so nothing overflows and numpy has nothing to report
    sources = []
    maker = jet._maker.__wrapped__
    monkeypatch.setattr(jet, "_maker", lambda src: sources.append(src) or maker(src))
    m = ff.parse("0*exp(1000*s) + s^2")
    s = np.array([0.25, 0.75])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in range(4):
            assert [c.tolist() for c in m.taylor(s, order)] == [(s * s).tolist(), (s + s).tolist(), [2.0, 2.0],
                                                                [0.0, 0.0]][:order + 1]
            assert m.taylor(0.75, order) == (0.5625, 1.5, 2.0, 0.0)[:order + 1]
    assert len(sources) == 8 and not [src for src in sources if "exp(" in src]


@pytest.mark.parametrize("order", [0, 1, 3])
def test_dead_locals_keep_their_domain_checks(order):
    # (s - 2)^1.5 is multiplied by a known 0, but its base check still reads s - 2
    m = ff.parse("0*(s - 2)^1.5 + s")
    for s in (0.5, np.array([0.25, 0.5])):
        with pytest.raises(ff.DomainError, match="non-integer power 1.5"):
            m.taylor(s, order)


@pytest.mark.parametrize("m", [m for _, m in TREES] + [ff.parse(t) for t in (
    "0*exp(10*s) + s^2", "s + 0*(1 + s)^2.5*s", "(s - s)*exp(s)/(1 + s) + s^3", "0*(s/(1 + s))^3 + exp(s)")], ids=str)
def test_dropping_dead_locals_changes_no_bit(m, monkeypatch):
    def outputs():
        m._programs.clear()
        out = []
        for order in range(4):
            for s in (POINTS, *POINTS[:20].tolist()):
                out.append([np.asarray(c, dtype=float).tobytes() for c in m.taylor(s, order)])
        return out

    pruned = outputs()
    jet._maker.cache_clear()
    monkeypatch.setattr(jet.Tape, "_live", lambda tape, result: tape.lines)  # every line, no del
    try:
        assert outputs() == pruned
    finally:
        jet._maker.cache_clear()
        m._programs.clear()


def _outcome(fn, s):
    """What fn(s) gives, bit for bit: the value's type and repr, or the error."""
    try:
        with np.errstate(all="ignore"):
            v = fn(s)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(v).__name__, repr(v if isinstance(v, tuple) else float(v))


def _clipped_slope(taylor, s, order=1):
    """f' (or f' and f'' for order 2) as the curves took it from taylor alone:
    at s, or where s is outside the derivative's domain at s clipped into
    [_CLIP, 1 - _CLIP]."""
    try:
        out = taylor(s, order)
    except ff.DomainError:
        out = taylor(min(max(s, riemann._CLIP), 1.0 - riemann._CLIP), order)
    return float(out[1]) if order == 1 else (float(out[1]), float(out[2]))


@settings(max_examples=200, deadline=None)
@given(_trees(), _trees(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_curve_programs_equal_the_taylor_route_bit_for_bit(m_a, m_b, s):
    pair = ff.ModelPair(m_a, m_b)
    curve = riemann.PairFlux(pair)
    taylor = functools.partial(f_taylor, pair)
    assert _outcome(curve.deriv, s) == _outcome(functools.partial(_clipped_slope, taylor), s)
    assert _outcome(curve.value, s) == _outcome(functools.partial(ff.f_value, pair), s)
    expr = riemann.ExprFlux(m_a)
    assert _outcome(expr.deriv, s) == _outcome(functools.partial(_clipped_slope, m_a.taylor), s)
    for c, taylor in ((curve, taylor), (expr, m_a.taylor)):  # order 2: f' and f''
        assert _outcome(lambda t: c.deriv(t, 2), s) == _outcome(functools.partial(_clipped_slope, taylor, order=2), s)


@settings(max_examples=200, deadline=None)
@given(_trees(), _trees(leaves=st.sampled_from(CONSTANT_SUBTREES), exponents=[-2.0, 0.0, 3.0, -1.5, 1.1]),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_drawn_scalar_programs_compute_in_plain_floats(m_a, m_b, s):
    assert all(_plain_floats(fn, s) for fn in _scalar_results(m_a, m_b))


@pytest.mark.parametrize("s", [0.0, 1.0, 0.5, riemann._CLIP, 0.3])
def test_curve_programs_keep_the_endpoint_clip_and_the_messages(s):
    for pair in (ff.ModelPair(ff.parse("s^1.1"), ff.parse("s^1.1")),
                 ff.ModelPair(ff.parse("s^1.1 * exp(s^10)"), ff.parse("s^2.5")),
                 ff.ModelPair(ff.parse("s - 0.5"), ff.parse("s - 0.5")),   # m_a + m_b(1-s) = 0 at 0.5
                 ff.ModelPair(ff.parse("1/(s - 0.3)"), ff.parse("s^2"))):  # m_a undefined at 0.3
        curve = riemann.PairFlux(pair)
        taylor = functools.partial(f_taylor, pair)
        assert _outcome(curve.deriv, s) == _outcome(functools.partial(_clipped_slope, taylor), s)
        assert _outcome(curve.value, s) == _outcome(functools.partial(ff.f_value, pair), s)
    zero = ff.ModelPair(ff.parse("s - 0.5"), ff.parse("s - 0.5"))
    with pytest.raises(ff.DomainError, match=r"^zero total mobility at s=0\.5$"):
        riemann.PairFlux(zero).deriv(0.5)
    with pytest.raises(ff.DomainError, match=r"^zero total mobility at s=0\.5$"):
        riemann.PairFlux(zero).value(0.5)
    clip = riemann.PairFlux(ff.ModelPair(ff.parse("s^1.1"), ff.parse("s^1.1")))
    assert (clip.value(0.0), clip.value(1.0)) == (0.0, 1.0)
    assert clip.deriv(0.0) == float(f_taylor(clip.pair, riemann._CLIP, 1)[1])
    assert clip.deriv(1.0) == float(f_taylor(clip.pair, 1.0 - riemann._CLIP, 1)[1])


def test_pair_programs_are_compiled_once_and_pickle_away():
    pair = ff.ModelPair(ff.parse("s^1.1 * exp(s^10)"), ff.parse("s^2"))
    curve = riemann.PairFlux(pair)
    assert "_programs" not in pair.__dict__  # nothing is compiled before the first call
    assert riemann.PairFlux(pair)._df is curve._df
    assert sorted(pair._programs) == [1]
    assert riemann.PairFlux(pair)._d2f is curve._d2f is pair_program(pair, 2)
    assert sorted(pair._programs) == [1, 2]
    copy = pickle.loads(pickle.dumps(pair))
    assert copy == pair and "_programs" not in copy.__dict__
    assert riemann.PairFlux(copy).deriv(0.3) == curve.deriv(0.3)
    assert riemann.PairFlux(copy).deriv(0.3, 2) == curve.deriv(0.3, 2) == tuple(f_taylor(pair, 0.3, 2)[1:])
