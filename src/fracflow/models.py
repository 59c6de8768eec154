"""Mobility-model expressions: grammar, parser, printer, and preset catalog.

Expressions are trees over the saturation variable ``s`` built from
constants, sums, products, quotients, real powers, and ``exp``.  The text
grammar (used inline on the CLI and in model spec files) is::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' number)?
    base   := number | 's' | '(' expr ')' | 'exp' '(' expr ')'

Numbers are unsigned decimals with optional exponent notation; a leading
'-' is handled by the unary rule, and a '-' directly after '^' is allowed.
Model spec files hold one assignment per line (``m_a = <expr>``,
``m_b = <expr>``); lines starting with '#' are ignored.

Trees are immutable; equality is structural.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .jet import DomainError, Jet3, Real, Tape, point


class ParseError(ValueError):
    """Syntax or lookup failure, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# expression tree


class _Compiled:
    """Straight-line programs (see jet.Tape) cached on the instance."""

    @cached_property
    def _programs(self) -> dict:
        return {}

    def __getstate__(self) -> dict:
        # programs are rebuilt on first use; they cannot be pickled
        return {k: v for k, v in self.__dict__.items() if k != "_programs"}


class ModelExpr(_Compiled):
    """Base class for mobility-expression nodes.

    A tree is compiled on first use into straight-line programs, one per
    derivative order and per scalar or array input, and each program is
    cached on the node it was compiled for.
    """

    def taylor(self, s: Real, order: int = 3) -> tuple:
        """Value and first `order` derivatives at s (scalar or array), order 0..3.

        Order 0 is the plain value, which also allows a zero base under a
        positive non-integer power; orders 1-3 are the first components of
        the order-3 jet, bit for bit.
        """
        key = (order, isinstance(s, np.ndarray))
        fn = self._programs.get(key) or self.program(*key)
        try:
            return fn(s)
        except DomainError as exc:
            raise DomainError(f"{exc} while evaluating {self} at {point(s, exc.index)}", exc.index) from None

    def eval_jet(self, s: Real) -> Jet3:
        """Value and first three derivatives at s (scalar or array)."""
        return Jet3(*self.taylor(s))

    def eval(self, s: Real) -> Real:
        """Value only; cheaper than eval_jet for plain sampling."""
        return self.taylor(s, 0)[0]

    def program(self, order: int, array: bool):
        """The program taylor runs: a function of s returning the components,
        whose DomainError does not name the tree or the point."""
        key = (order, array)
        if key not in self._programs:
            self._programs[key] = _compile(self, order, array)
        return self._programs[key]

    def __str__(self) -> str:
        return _print(self, _PREC_SUM)


@dataclass(frozen=True)
class Const(ModelExpr):
    value: float


@dataclass(frozen=True)
class Var(ModelExpr):
    pass


@dataclass(frozen=True)
class Sum(ModelExpr):
    terms: tuple[ModelExpr, ...]


@dataclass(frozen=True)
class Prod(ModelExpr):
    factors: tuple[ModelExpr, ...]


@dataclass(frozen=True)
class Quot(ModelExpr):
    num: ModelExpr
    den: ModelExpr


@dataclass(frozen=True)
class Pow(ModelExpr):
    base: ModelExpr
    exponent: float


@dataclass(frozen=True)
class Exp(ModelExpr):
    arg: ModelExpr


def _compile(expr: ModelExpr, order: int, array: bool):
    """One straight-line program for the first `order` derivatives of expr."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0, 1, 2 or 3, got {order!r}")
    tape = Tape(array)
    return tape.build(["s"], _emit(tape, expr, "s", order))


def _emit(tape: Tape, e: ModelExpr, s: str, order: int):
    """Append the first `order` derivatives of e at the local s to tape and
    return the names of the jet's components."""
    sub = lambda node: _emit(tape, node, s, order)
    if isinstance(e, Const):
        return tape.constant(e.value, order)
    if isinstance(e, Var):
        return tape.seed(s, order)
    if isinstance(e, Sum):
        return reduce(tape.add, map(sub, e.terms))
    if isinstance(e, Prod):
        return reduce(tape.mul, map(sub, e.factors))
    if isinstance(e, Quot):
        return tape.div(sub(e.num), sub(e.den))
    if isinstance(e, Pow):
        return tape.pow(sub(e.base), e.exponent)
    if isinstance(e, Exp):
        return tape.exp(sub(e.arg))
    raise TypeError(f"unknown node {type(e).__name__}")


@dataclass(frozen=True)
class ModelPair(_Compiled):
    """Mobilities of the two phases.

    m_a is evaluated at s, m_b at 1 - s; the reflection is applied by the
    flux module, never baked into the stored expressions.  The flux module
    caches its scalar programs of the pair's flux on the pair.
    """

    m_a: ModelExpr
    m_b: ModelExpr


# ---------------------------------------------------------------------------
# canonical printer

_PREC_SUM, _PREC_TERM, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _num_str(x: float) -> str:
    if float(x).is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _split_negation(e: ModelExpr):
    # Return the positive counterpart if e prints with a leading minus.
    lead = e.factors[0] if isinstance(e, Prod) else e
    if isinstance(lead, Const) and lead.value < 0:
        return _negate(e)
    return None


def _prec(e: ModelExpr) -> int:
    if isinstance(e, Sum):
        return _PREC_SUM
    if isinstance(e, (Prod, Quot)):
        return _PREC_TERM
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _print(e: ModelExpr, ctx: int) -> str:
    if isinstance(e, Const):
        text = _num_str(e.value)
    elif isinstance(e, Var):
        text = "s"
    elif isinstance(e, Sum):
        parts = [_print(e.terms[0], _PREC_TERM)]
        for t in e.terms[1:]:
            pos = _split_negation(t)
            if pos is not None:
                parts.append(" - " + _print(pos, _PREC_TERM))
            else:
                parts.append(" + " + _print(t, _PREC_TERM))
        text = "".join(parts)
    elif isinstance(e, Prod):
        # '*'/'/' chains are left-associative: only non-first quotient
        # factors need parens
        parts = [_print(e.factors[0], _PREC_TERM)]
        parts += [_print(f, _PREC_POW) for f in e.factors[1:]]
        text = "*".join(parts)
    elif isinstance(e, Quot):
        left = _print(e.num, _PREC_TERM)
        right = _print(e.den, _PREC_POW)
        if isinstance(e.den, (Prod, Quot)):
            right = "(" + right + ")"
        text = left + "/" + right
    elif isinstance(e, Pow):
        base = _print(e.base, _PREC_SUM)
        # a negative literal base would re-parse as unary minus on the power
        if _prec(e.base) < _PREC_ATOM or (isinstance(e.base, Const) and e.base.value < 0):
            base = "(" + base + ")"
        text = base + "^" + _num_str(e.exponent)
        return text if ctx <= _PREC_POW else "(" + text + ")"
    elif isinstance(e, Exp):
        return "exp(" + _print(e.arg, _PREC_SUM) + ")"
    else:  # pragma: no cover
        raise TypeError(f"unknown node {type(e).__name__}")
    return text if _prec(e) >= ctx else "(" + text + ")"


# ---------------------------------------------------------------------------
# recursive-descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if m.lastgroup == "num":
            value = float(m.group("num"))
            if not math.isfinite(value):
                raise ParseError("number out of range", m.start("num"))
            tokens.append(("num", value, m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def take(self, ops: str):
        """Consume and return the next token if it is one of the operators ops, else None."""
        kind, val, _ = self.tokens[self.i]
        if kind == "op" and val in ops:
            self.i += 1
            return val

    def expect_op(self, op: str):
        if not self.take(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def parse(self) -> ModelExpr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return e

    def expr(self) -> ModelExpr:
        terms = [self.term()]
        while op := self.take("+-"):
            rhs = self.term()
            terms.append(_negate(rhs) if op == "-" else rhs)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> ModelExpr:
        current = self.unary()
        while op := self.take("*/"):
            rhs = self.unary()
            if op == "/":
                current = Quot(current, rhs)
            else:
                current = Prod((*current.factors, rhs) if isinstance(current, Prod) else (current, rhs))
        return current

    def unary(self) -> ModelExpr:
        return _negate(self.unary()) if self.take("-") else self.factor()

    def factor(self) -> ModelExpr:
        base = self.base()
        if not self.take("^"):
            return base
        sign = -1.0 if self.take("-") else 1.0
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected a numeric exponent after '^'", pos)
        return Pow(base, sign * val)

    def base(self) -> ModelExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(val)
        if kind == "ident":
            if val == "s":
                return Var()
            if val == "exp":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Exp(arg)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"expected an expression, got {val!r}" if val else "unexpected end of input", pos)


def _negate(e: ModelExpr) -> ModelExpr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Prod) and len(e.factors) == 1:
        return _negate(e.factors[0])
    if isinstance(e, Prod):
        first = e.factors[0]
        if isinstance(first, Const):
            if first.value == -1.0 and len(e.factors) == 2:
                return e.factors[1]
            if first.value == -1.0:
                return Prod(e.factors[1:])
            return Prod((Const(-first.value),) + e.factors[1:])
        return Prod((Const(-1.0),) + e.factors)
    return Prod((Const(-1.0), e))


def parse(text: str) -> ModelExpr:
    """Parse an expression in the grammar above into a ModelExpr."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # nesting deeper than the interpreter's stack
        raise ParseError("expression nested too deeply", parser.tokens[parser.i - 1][2]) from None


# ---------------------------------------------------------------------------
# preset catalog

def _one_minus(e: ModelExpr) -> ModelExpr:
    return Sum((Const(1.0), _negate(e)))


def power(A: float = 1.0, a: float = 2.0) -> ModelExpr:
    """Power-law mobility A*s^a (A > 0, a > 1)."""
    if not (A > 0 and a > 1):
        raise ValueError(f"power preset needs A > 0 and a > 1, got A={A}, a={a}")
    body = Pow(Var(), float(a))
    return body if A == 1.0 else Prod((Const(float(A)), body))


def corey_a() -> ModelExpr:
    """Wetting-phase Corey mobility s^4."""
    return Pow(Var(), 4.0)


def corey_b() -> ModelExpr:
    """Non-wetting Corey mobility s^2*(1 - (1-s)^2), as a function of its own saturation."""
    return brooks_b(2.0, 2.0)


def brooks_b(eta: float, alpha: float) -> ModelExpr:
    """Brooks-Corey family s^eta*(1 - (1-s)^alpha) (eta >= 1, alpha > 1)."""
    if not (eta >= 1 and alpha > 1):
        raise ValueError(f"brooks_b preset needs eta >= 1 and alpha > 1, got eta={eta}, alpha={alpha}")
    return Prod((Pow(Var(), float(eta)), _one_minus(Pow(_one_minus(Var()), float(alpha)))))


def chierici(A: float = 1.0, B: float = 3.0, M: float = 1.0) -> ModelExpr:
    """Chierici exponential mobility A*exp(-B*((1-s)/s)^M) (A, B, M > 0).

    The negative exponent of the original (s/(1-s))^-M form is folded into
    the reciprocal base so the power node keeps a positive exponent.
    """
    if not (A > 0 and B > 0 and M > 0):
        raise ValueError(f"chierici preset needs A, B, M > 0, got A={A}, B={B}, M={M}")
    ratio = Quot(_one_minus(Var()), Var())
    arg = ratio if M == 1.0 else Pow(ratio, float(M))
    body = Exp(Prod((Const(-float(B)), arg)))
    return body if A == 1.0 else Prod((Const(float(A)), body))


_PRESETS = {
    "power": power,
    "corey_a": corey_a,
    "corey_b": corey_b,
    "brooks_b": brooks_b,
    "chierici": chierici,
}


def preset(name: str, **params: float) -> ModelExpr:
    """Build a catalog preset by name; see _PRESETS for the choices."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(_PRESETS)}") from None
    return builder(**params)


def product(m1: ModelExpr, m2: ModelExpr) -> ModelExpr:
    """Product of two mobility expressions (flattens nested products)."""
    f1 = m1.factors if isinstance(m1, Prod) else (m1,)
    f2 = m2.factors if isinstance(m2, Prod) else (m2,)
    return Prod(f1 + f2)


# the paper's three counterexamples: mobilities that satisfy c1-c3 but whose
# symmetric pairs have more than one flux inflection
COUNTEREXAMPLES = ("s^1.1 * exp(s^10)", "s^1.1 * (1 + 15*s^10)", "s^1.1 * (1 + 15*s^30)")


def catalog() -> dict[str, ModelExpr]:
    """Representative named instances of every model family in the catalog."""
    return {
        "power_quadratic": power(1.0, 2.0),
        "power_generic": power(2.5, 3.5),
        "corey_a": corey_a(),
        "corey_b": corey_b(),
        "brooks_b_2_2": brooks_b(2.0, 2.0),
        "brooks_b_3_2.5": brooks_b(3.0, 2.5),
        "chierici_B3": chierici(1.0, 3.0, 1.0),
        **{f"counterexample_{k}": parse(text) for k, text in enumerate(COUNTEREXAMPLES, 1)},
    }


# ---------------------------------------------------------------------------
# model spec files

def parse_model_file(text: str) -> dict[str, ModelExpr]:
    """Read `m_a = <expr>` / `m_b = <expr>` assignments from spec-file text."""
    out: dict[str, ModelExpr] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rhs = line.partition("=")
        key = key.strip()
        if not sep or key not in ("m_a", "m_b"):
            raise ValueError(f"line {lineno}: expected 'm_a = <expr>' or 'm_b = <expr>', got {raw!r}")
        out[key] = parse(rhs)
    return out


def load_model_file(path: str) -> dict[str, ModelExpr]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_file(fh.read())
