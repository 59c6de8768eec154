"""Expression grammar, presets, and model algebra."""

import math
import sys

import numpy as np
import pytest

import fracflow as ff
from fracflow.models import (
    Const,
    Exp,
    ParseError,
    Pow,
    Prod,
    Quot,
    Sum,
    Var,
    parse_model_file,
)

from conftest import rel_close


def test_parse_counterexample_structure():
    got = ff.parse("s^1.1 * exp(s^10)")
    assert got == Prod((Pow(Var(), 1.1), Exp(Pow(Var(), 10.0))))


def test_parse_bare_variable():
    assert ff.parse("s") == Var()


def test_parse_eval_matches_direct_arithmetic():
    m = ff.parse("s^1.1 * (1 + 15*s^30)")
    s = 0.5
    expected = s ** 1.1 * (1 + 15 * s ** 30)
    assert rel_close(float(m.eval(s)), expected, 1e-15)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        ff.parse("s^1.1 * (1 + ")
    assert "position" in str(err.value)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'x'"):
        ff.parse("x^2")


def test_parse_exp_needs_parens():
    with pytest.raises(ParseError):
        ff.parse("exp s")


def _parse_above(frames, text):
    # parse text with that many more frames below it on the stack
    return _parse_above(frames - 1, text) if frames else ff.parse(text)


def test_parse_nesting_around_the_stack_limit_raises_parse_error():
    # unclosed, so every depth is an error; a nesting level takes 5 frames,
    # so with 0-4 more below, the stack runs out at every token there is,
    # the end of input included
    around = sys.getrecursionlimit() // 5
    for frames in range(5):
        for depth in range(around - 60, around + 10):
            with pytest.raises(ParseError):
                _parse_above(frames, "(" * depth)


def test_parse_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        ff.parse("s^2 )")


def test_parse_numeric_exponent_required():
    with pytest.raises(ParseError):
        ff.parse("s^s")


@pytest.mark.parametrize("text, position", [("s^1e999", 2), ("1e999*s", 0), ("s + 2e400", 4)])
def test_parse_rejects_literals_that_overflow(text, position):
    with pytest.raises(ParseError, match="number out of range") as err:
        ff.parse(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text",
    [
        "s^1.1 * exp(s^10)",
        "s^1.1 * (1 + 15*s^10)",
        "s^2*(1 - (1 - s)^2)",
        "exp(-3*((1 - s)/s))",
        "1 - 2*s + s^2",
        "-s^2 + 1/(1 + s)",
        "s^-2 * 3e-2",
    ],
)
def test_print_parse_round_trip_is_fixed_point(text):
    tree = ff.parse(text)
    printed = str(tree)
    assert ff.parse(printed) == tree
    assert str(ff.parse(printed)) == printed


def test_catalog_presets_round_trip():
    for name, m in ff.catalog().items():
        assert ff.parse(str(m)) == m, name


@pytest.mark.parametrize("value", [-1.0, -2.5])
def test_one_factor_product_of_a_negative_constant_prints(value):
    e = Sum((Var(), Prod((Const(value),))))
    text = str(e)
    assert text == f"s - {-value:g}"
    for s in (0.1, 0.5, 0.9):
        assert ff.parse(text).eval(s) == e.eval(s)


def test_power_preset_jet():
    j = ff.power(1, 2).eval_jet(0.5)
    assert (j.f0, j.f1, j.f2, j.f3) == (0.25, 1.0, 2.0, 0.0)


def test_chierici_value_at_half():
    # exp(-B*(1-s)/s) at s = 0.5 is exp(-B)
    m = ff.chierici(A=1, B=3, M=1)
    assert rel_close(float(m.eval(0.5)), math.exp(-3.0), 1e-15)


def test_brooks_b_degenerates_to_corey():
    b = ff.brooks_b(eta=2, alpha=2)
    c = ff.corey_b()
    s = np.linspace(0.01, 0.99, 100)
    assert np.all(np.abs(b.eval(s) - c.eval(s)) <= 1e-15)


@pytest.mark.parametrize(
    "builder, kwargs",
    [
        (ff.power, {"A": -1.0, "a": 2.0}),
        (ff.power, {"A": 1.0, "a": 1.0}),
        (ff.brooks_b, {"eta": 0.5, "alpha": 2.0}),
        (ff.brooks_b, {"eta": 2.0, "alpha": 1.0}),
        (ff.chierici, {"A": 1.0, "B": 0.0, "M": 1.0}),
        (ff.chierici, {"A": 1.0, "B": 3.0, "M": -1.0}),
    ],
)
def test_preset_parameter_validation(builder, kwargs):
    with pytest.raises(ValueError):
        builder(**kwargs)


def test_preset_by_name():
    assert ff.preset("power", A=2, a=3) == ff.power(2, 3)
    with pytest.raises(ValueError, match="unknown preset"):
        ff.preset("nope")


def test_product_builds_counterexample_family():
    built = ff.product(ff.power(1, 1.1), ff.parse("1 + 15*s^10"))
    direct = ff.parse("s^1.1 * (1 + 15*s^10)")
    assert built == direct


def test_product_with_unit_constant():
    m = ff.parse("s^2")
    p = ff.product(m, Const(1.0))
    s = np.linspace(0.01, 0.99, 50)
    assert np.all(p.eval(s) == m.eval(s))


def test_product_of_powers_adds_exponents():
    p = ff.product(ff.power(1, 2), ff.power(1, 3))
    s = np.linspace(0.01, 0.99, 100)
    assert np.all(np.abs(p.eval(s) - s ** 5) <= 1e-14)


def test_product_jet_is_jet_product():
    rng = np.random.default_rng(11)
    cat = list(ff.catalog().values())
    for _ in range(100):
        m1 = cat[rng.integers(len(cat))]
        m2 = cat[rng.integers(len(cat))]
        s = float(rng.uniform(0.01, 0.99))
        combined = ff.product(m1, m2).eval_jet(s)
        split = ff.mul(m1.eval_jet(s), m2.eval_jet(s))
        for x, y in zip(
            (combined.f0, combined.f1, combined.f2, combined.f3),
            (split.f0, split.f1, split.f2, split.f3),
        ):
            assert rel_close(float(x), float(y), 1e-13)


def test_presets_positive_on_open_interval():
    rng = np.random.default_rng(13)
    s = np.linspace(0.01, 0.99, 200)
    for _ in range(50):
        for m in (
            ff.power(float(rng.uniform(0.1, 10)), float(rng.uniform(1.01, 8))),
            ff.brooks_b(float(rng.uniform(1, 6)), float(rng.uniform(1.01, 6))),
        ):
            assert np.all(m.eval(s) > 0.0)
        # the exponential preset underflows to 0.0 near s = 0 for large B;
        # it is nonnegative everywhere and positive once representable
        m = ff.chierici(float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 10)), 1.0)
        assert np.all(m.eval(s) >= 0.0)
        assert np.all(m.eval(s[s >= 0.1]) > 0.0)


def test_model_file_parsing():
    text = """
# quadratic pair
m_a = s^2
m_b = s^2*(1 - (1 - s)^2)
"""
    defs = parse_model_file(text)
    assert defs["m_a"] == ff.parse("s^2")
    assert defs["m_b"] == ff.corey_b()


def test_model_file_rejects_unknown_keys():
    with pytest.raises(ValueError, match="line 1"):
        parse_model_file("m_c = s^2")


def test_domain_error_carries_point():
    m = ff.parse("1/(s - 0.5)")
    with pytest.raises(ff.DomainError, match="s=0.5"):
        m.eval_jet(0.5)
    pair = ff.ModelPair(ff.parse("s - s"), ff.parse("s - s"))
    with pytest.raises(ff.DomainError, match=r"^zero total mobility at s=0\.5$"):
        ff.f_value(pair, 0.5)


def test_domain_error_on_array_names_first_failing_point():
    m = ff.parse("1/(s - 0.5)")
    s = np.array([0.1, 0.5, 0.7, 0.5])
    for evaluate in (m.eval, m.eval_jet):
        with pytest.raises(ff.DomainError, match=r"at s\[1\]=0\.5$") as info:
            evaluate(s)
        assert info.value.index == 1
    pair = ff.ModelPair(ff.parse("s - s"), ff.parse("s - s"))
    for flux in (ff.f_jet, ff.f_value):
        with pytest.raises(ff.DomainError, match=r"zero total mobility at s\[0\]=0\.25$") as info:
            flux(pair, np.array([0.25, 0.75]))
        assert info.value.index == 0


def test_array_f_value_names_the_failing_element_of_the_whole_input():
    pair = ff.ModelPair(ff.parse("s - s"), ff.parse("s - s"))
    with pytest.raises(ff.DomainError, match=r"^zero total mobility at s\[1\]=0\.25$") as info:
        ff.f_value(pair, np.array([0.0, 0.25, 0.5]))
    assert info.value.index == 1
    pair = ff.ModelPair(ff.parse("s"), ff.parse("(s - 0.5)^1.5"))
    with pytest.raises(ff.DomainError, match=r"\(s - 0\.5\)\^1\.5 at s\[3\]=0\.25$") as info:
        ff.f_value(pair, np.array([1.0, 0.0, 0.25, 0.75]))  # m_b fails at 1 - 0.75
    assert info.value.index == 3
    with pytest.raises(ff.DomainError, match=r"\(s - 0\.5\)\^1\.5 at s\[2\]=0\.25$") as info:
        ff.f_value(pair, np.array([[1.0, 0.25], [0.75, 0.0]]))  # a flat index
    assert info.value.index == 2


@pytest.mark.parametrize("pair, message", [
    (ff.ModelPair(ff.parse("0"), ff.parse("0")), "zero total mobility"),
    (ff.ModelPair(ff.parse("s/(1-1)"), ff.parse("s")), r"division by zero while evaluating s/\(1 - 1\)"),
], ids=["zero pair", "constant divisor"])
def test_array_f_value_with_a_check_failing_at_every_s_names_the_first_point_that_is_not_an_end(pair, message):
    # the check reads no s, so it also fails at the ends masked as NaN; the
    # error names the first sample that is not an end, not a masked one
    with pytest.raises(ff.DomainError, match=rf"^{message} at s\[1\]=0\.25$") as info:
        ff.f_value(pair, np.array([0.0, 0.25, 0.5, 1.0]))
    assert info.value.index == 1
    with pytest.raises(ff.DomainError, match=rf"^{message} at s\[2\]=0\.3$") as info:
        ff.f_value(pair, np.array([[1.0, 0.0], [0.3, 0.0]]))
    assert info.value.index == 2
    for s in (np.array([0.0, 1.0]), np.array([[1.0], [0.0]], dtype=np.float32), np.array([]), np.array(1.0)):
        got = ff.f_value(pair, s)  # only exact ends: no evaluation, their exact limits
        assert got.dtype == np.float64 and got.shape == s.shape and got.tolist() == s.tolist()
