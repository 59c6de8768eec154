"""Truncated Taylor ("jet") arithmetic through third order.

A jet carries a function value together with its first k derivatives at a
point (k <= 3).  Propagating jets through arithmetic gives exact derivatives
of composed expressions, with none of the cancellation noise of finite
differences.

Each rule (sum, Leibniz product, quotient recurrence, Faa di Bruno for real
powers and exp) is written once, as a Tape method that records its result
components as a straight-line program, one operation per line.  A line is
data (see Tape); Python source is written only when a program is built,
from the lines it keeps.  Component j of every rule reads only components
<= j of its operands, so a program built from jets of k+1 components is
the exact truncation of the order-3 one.  Components known as the program
is built are folded away, and a local read for the last time takes the
result of the operation that reads it, in place (see Tape).
models compiles whole expression trees this way; the Jet3 functions below
are order-3 programs of a single rule.  Components may be Python floats or
numpy arrays (for whole-grid evaluation); every rule is elementwise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

Real = Union[float, np.ndarray]
Names = tuple[str, ...]  # source names (or literals) of a jet's components


class DomainError(ArithmeticError):
    """Evaluation left the domain (zero divisor, bad power base, ...).

    index is the flat index of the first failing element when the evaluation
    ran on an array, None for a scalar evaluation.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


def point(s: Real, index: Optional[int]) -> str:
    """Where an evaluation failed: 's=<value>', 's[i]=<value>' for the first
    failing element of an array (flat index), or 'an empty s' for an array
    without elements (where a check on a constant still fails)."""
    if not isinstance(s, np.ndarray):
        return f"s={s!r}"
    return f"s[{index}]={float(s.flat[index])!r}" if s.size else "an empty s"


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives of a scalar function at a point."""

    f0: Real
    f1: Real
    f2: Real
    f3: Real


def _zeros_like(s: Real) -> Real:
    return np.zeros_like(s) if isinstance(s, np.ndarray) else 0.0


def _ones_like(s: Real) -> Real:
    return np.ones_like(s) if isinstance(s, np.ndarray) else 1.0


def _copy(x: Real) -> Real:
    return x.copy() if isinstance(x, np.ndarray) else x


# Component j of each rule; aj, bj: operand components, cj: result components
# already computed, pj: derivatives of the outer function.  Rows hold no **:
# a1^3 is a1*a1*a1, since numpy 2.4.6's x**3 on a negative base (as a1 = -1/s^2
# of (1-s)/s is) took ~100x the time of x*x*x on an AVX-512 x86-64 host.
_LEIBNIZ = (
    "a0*b0",
    "a1*b0 + a0*b1",
    "a2*b0 + 2.0*a1*b1 + a0*b2",
    "a3*b0 + 3.0*a2*b1 + 3.0*a1*b2 + a0*b3",
)
# solves the Leibniz recurrence for c in a = c*b, each row divided by b0
_QUOTIENT = (
    "a0",
    "a1 - c0*b1",
    "a2 - 2.0*c1*b1 - c0*b2",
    "a3 - 3.0*c2*b1 - 3.0*c1*b2 - c0*b3",
)
# Faa di Bruno for g = phi(a)
_CHAIN = (
    "p0",
    "p1*a1",
    "p2*a1*a1 + p1*a2",
    "p3*a1*a1*a1 + 3.0*p2*a1*a2 + p1*a3",
)
_UNIT = ("1.0", "0.0", "0.0", "0.0")  # the jet of 1
_INPLACE = {f"{{}} {op} {{}}": op for op in ("+", "-", "*", "/", "**")}  # formats a local can take as `x op= y`
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "**": operator.pow, "==": operator.eq, "<": operator.lt, "<=": operator.le}
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")  # wraps array programs of s (Tape)


@lru_cache(maxsize=256)
def _maker(src: str) -> Callable:
    # Constants and messages are arguments of `make`, so trees of one shape
    # (one source text) share one code object and differ only in closures,
    # as do a scalar and an array program whose texts agree.
    namespace = {"np": np, "exp": np.exp, "math_exp": math.exp, "DomainError": DomainError,
                 "_ones_like": _ones_like, "_zeros_like": _zeros_like, "_copy": _copy}
    exec(compile(src, "<jet tape>", "exec"), namespace)
    return namespace["make"]


class Tape:
    """A straight-line program under construction, one local per operation.

    With array=False the program runs on plain floats, with math.exp, and
    domain checks are float comparisons.  With array=True components are
    numpy arrays and a failed check reports the flat index of the first
    failing element.  The rules take jets as tuples of component names and
    return the names of their result; the order is the length of the tuples
    minus one.  Components known as they are emitted (`known`: seeds' 1 and
    0s, constants, and what rules make of those) fold: x*1, x/1, x+0 and x-0
    are x, x*0 is 0, 0-x is -x, known operands compute here in the program's
    own arithmetic, and the rest keeps its order, so only zeros differ from
    the unfolded program (+0.0 for -0.0, 0 for 0*inf).
    A built program runs no assignment that neither its result nor a domain
    check reads, so a float `**` that would raise OverflowError there (as in
    0*(1000*s)^200.5) no longer raises.

    The scan that drops those lines also updates in place: where
    `vN = a op b` (+ - * / **) is the last read of a local a of floats, it
    becomes `vN op= b` and the lines before it name a vN; for + and *,
    `vN = k op a` with a known k that is not nan becomes `vN op= k` (with
    two nan operands, which one comes out depends on the order).  So an
    array program reuses the intermediates it no longer reads, and a scalar
    one computes what it did.  Never updated: s and other parameters,
    constants, returned components, a local that may hold integers (made
    from the parameters by + - * and negation alone, with no float
    constant: an int s makes it an int array), and anything in a program
    of several parameters, whose arrays may differ in shape or dtype.

    A line is a tuple (target, format, *operands): the local it assigns or
    None for a domain check, and its text with a {} per name it reads, as
    ("v5", "{} * {}", "v3", "s"); `build` renders only the lines it keeps.

    An array program of s alone (a tree's or a pair's) runs under _QUIET, so
    it never warns; a Jet3 rule's, of several parameters, runs in its
    caller's np.errstate, so numpy's flags can still be read through it.
    """

    def __init__(self, array: bool):
        self.array = array
        self.lines: list[tuple] = []
        self.consts: list = []
        self.known: dict = {"0.0": 0.0, "1.0": 1.0, "2.0": 2.0, "3.0": 3.0}
        self.floats: set[str] = set(self.known)  # names that hold floats whatever the parameters hold
        self._n = 0

    def let(self, fmt: str, *operands: str, floats: bool = False) -> str:
        """A new local, fmt with its {}s the operands; floats: it holds floats whatever s holds."""
        name = f"v{self._n}"
        self._n += 1
        self.lines.append((name, fmt, *operands))
        if floats:
            self.floats.add(name)
        return name

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def check(self, x: str, op: str, message: str) -> None:
        """Raise DomainError(message) where `x op 0.0` holds; NaN never fails a check."""
        if x in self.known and not _OPS[op](self.known[x], 0.0):
            return
        if self.array:
            self.lines.append((None, f"bad = np.asarray({{}} {op} 0.0)", x))
            self.lines.append((None, f"if bad.any(): raise DomainError({self.const(message)}, int(bad.argmax()))"))
        else:
            self.lines.append((None, f"if {{}} {op} 0.0: raise DomainError({self.const(message)})", x))

    def build(self, params: list[str], result: Names) -> Callable:
        """Compile the program into a function of params returning the tuple result."""
        if self.array:  # known components become arrays like params[0]; a local returned twice is copied
            out: list[str] = []
            for name in result:
                if name in self.known:
                    name = self.opaque((name,), params[0])[0]
                elif name in out:
                    name = self.let("_copy({})", name)
                out.append(name)
            result = tuple(out)
        body = "".join(f"            {line}\n" for line in self._live(result, len(params) == 1))
        src = (  # a float ** or math.exp that overflows raises OverflowError; arrays get inf
            f"def make({', '.join(f'k{i}' for i in range(len(self.consts)))}):\n"
            f"    def run({', '.join(params)}):\n"
            f"        try:\n{body}"
            f"            return ({', '.join(result)},)\n"
            "        except OverflowError:\n"
            "            raise DomainError('float overflow') from None\n"
            "    return run\n"
        )
        run = _maker(src)(*self.consts)
        return _QUIET(run) if self.array and len(params) == 1 else run

    def _live(self, result: Names, inplace: bool) -> list[str]:
        """The source of the lines that the result or a domain check reads, in
        one scan from the end; an array program gets a `del` after each local's
        last read, so it holds only its live intermediates.  With inplace, a
        dying local of floats takes a result in place (see Tape)."""
        live, out, into = set(result), [], {}  # into: a local -> the later local it becomes
        for target, fmt, *operands in reversed(self.lines):
            target = into.get(target, target)
            if target is not None and target not in live:  # domain checks always stay
                continue
            operands = [into.get(name, name) for name in operands]
            fresh = {name for name in operands if name[0] == "v"}.difference(live)
            line = fmt.format(*operands) if target is None else f"{target} = {fmt.format(*operands)}"
            op = inplace and _INPLACE.get(fmt)
            if op:
                x, y = operands
                commutes = op in "+*" and x in self.known and not math.isnan(self.known[x])
                for a, b in ((x, y), (y, x))[:1 + commutes]:
                    if a in fresh and a in self.floats:
                        line, into[a] = f"{target} {op}= {target if b == a else b}", target
                        fresh.discard(a)
                        break
            if fresh and self.array:
                out.append(f"del {', '.join(sorted(fresh))}")
            live |= fresh
            out.append(line)
        return out[::-1]

    def _known(self, value) -> str:
        if type(value) is float and value in (0.0, 1.0):
            return "1.0" if value else "0.0"
        self.known[name := self.const(value)] = value
        self.floats.add(name)
        return name

    def _fold(self, fn: Callable, *args):
        """fn(*args) as the program computes it; None where a float program raises
        or leaves floats (it then runs the operation itself)."""
        if self.array and (fn in (operator.pow, np.exp) or fn is operator.truediv and not args[1]):
            with np.errstate(all="ignore"):  # numpy's own powers, exp and x/0; the rest is IEEE
                return float(fn(*map(np.asarray, args)))
        try:
            value = fn(*args)
        except ArithmeticError:
            return None
        return value if type(value) is float else None

    def _op(self, x: str, op: str, y: str, neg: bool = False) -> str:
        """x op y folded: a known name, x or y itself, or a new local, which
        with neg computes -x op y, that is (-x) op y."""
        kx, ky = self.known.get(x), self.known.get(y)
        if op == "*" and 0.0 in (kx, ky):  # a known 0 times anything, also a known inf or nan
            return "0.0"
        if x in self.known and y in self.known:
            value = self._fold(_OPS[op], kx, ky)
            if value is not None:
                return self._known(value)
        elif op == "*" and kx == 1.0 or op == "+" and kx == 0.0:
            return y
        elif op in "*/" and ky == 1.0 or op in "+-" and ky == 0.0:
            return x
        elif op == "-" and kx == 0.0:
            return self.let("-{}", y, floats=y in self.floats)
        return self.let(f"{'-' * neg}{{}} {op} {{}}", x, y, floats=op in ("/", "**") or x in self.floats or y in self.floats)

    def opaque(self, comps: Names, like: str) -> Names:
        """comps with each known component bound to a new local, in an array
        program an array shaped like the local `like`: rules then fold none."""
        def bind(c: str) -> str:
            if not self.array:
                return self.let("{}", c)
            fill = f"_{'zeros' if c == '0.0' else 'ones'}_like({{}})"
            return self.let(fill, like) if c in _UNIT else self.let("{} * " + fill, c, like)
        return tuple(bind(c) if c in self.known else c for c in comps)

    def _rule(self, rows: tuple, order: int, divisor: Optional[str] = None, **operands: Names) -> Names:
        names = {f"{key}{j}": c for key, comps in operands.items() for j, c in enumerate(comps)}
        for j in range(order + 1):
            tokens = ("+ " + rows[j]).split(" ")
            acc = None
            for sign, term in zip(tokens[::2], tokens[1::2]):
                # 0 - f1*f2*... is (-f1)*f2*..., as Python reads the text -f1 * f2:
                # equal to -(f1*f2*...) but for the sign of a nan made there
                prod, neg = None, sign == "-" and self.known.get(acc) == 0.0
                for factor in term.split("*"):
                    x = names.get(factor, factor)
                    if prod is None:
                        prod = x
                        continue
                    last, prod = prod, self._op(prod, "*", x, neg)
                    if neg and prod not in (last, x) and prod not in self.known:
                        neg, sign = False, "+"  # the new local holds (-f1)*f2
                acc = prod if acc is None else self._op(acc, sign, prod)
            names[f"c{j}"] = acc if divisor is None else self._op(acc, "/", divisor)
        return tuple(names[f"c{j}"] for j in range(order + 1))

    # -- leaves ----------------------------------------------------------

    def seed(self, s: str, order: int) -> Names:
        """Jet of the identity function at s: (s, 1, 0, 0)."""
        return (s,) + _UNIT[:order]

    def constant(self, value: float, order: int) -> Names:
        """Jet of a constant: (c, 0, 0, 0), all known."""
        return (self._known(float(value) if self.array else value * 1.0),) + _UNIT[1:order + 1]

    # -- rules -----------------------------------------------------------

    def add(self, a: Names, b: Names) -> Names:
        return tuple(self._op(x, "+", y) for x, y in zip(a, b))

    def sub(self, a: Names, b: Names) -> Names:
        return tuple(self._op(x, "-", y) for x, y in zip(a, b))

    def neg(self, a: Names) -> Names:
        return tuple(self._op("0.0", "-", x) for x in a)

    def reflect(self, a: Names) -> Names:
        """Jet of s -> m(1 - s) from the jet of m at 1 - s: odd derivatives flip sign."""
        return tuple(self._op("0.0", "-", x) if j % 2 else x for j, x in enumerate(a))

    def mul(self, a: Names, b: Names) -> Names:
        """Product via the Leibniz rule."""
        return self._rule(_LEIBNIZ, len(a) - 1, a=a, b=b)

    def div(self, a: Names, b: Names, message: Optional[str] = None) -> Names:
        """Quotient; a zero divisor raises DomainError(message)."""
        order = len(a) - 1
        if message is None:
            message = "division by zero" if order == 0 else "division by a jet with zero value"
        self.check(b[0], "==", message)
        return self._rule(_QUOTIENT, order, b[0], a=a, b=b)

    def pow(self, a: Names, p: float) -> Names:
        """a**p for a constant real exponent p.

        Order 0 is the plain power b**p: a non-integer power needs a
        non-negative base, a negative power a nonzero one.  Derivatives go
        through the chain rule.  A non-integer p needs a positive base; one
        `**` gives a0**p, bit for bit b**p, and a0**(p-j) is a0**(p-j+1) / a0
        (bits are lost where a0**p is subnormal).  An integer 0 < p < 2**53
        takes any base: one `**` gives a0**(p - min(3, p)), the lowest power
        order 3 needs (so lower orders stay its exact truncation), and
        products by a0 give the rest; a few ulps from b**p.  An integer
        p >= 2**53 takes the non-integer rule and its domain.  A negative
        integer p is 1 / a**-p.
        """
        order = len(a) - 1
        if order == 0:
            if p != round(p):
                self.check(a[0], "<", f"non-integer power {p} of a negative value")
            if p < 0:
                self.check(a[0], "==", f"zero raised to negative power {p}")
            return (self._op(a[0], "**", self._known(p)),)
        if p == round(p) and p < 0:
            return self.div(_UNIT[:order + 1], self.pow(a, -p))
        if p == round(p) and p < 2.0 ** 53:  # beyond, p - 3 rounds to an even float
            top = int(min(3, p))
            powers = [self._op(a[0], "**", self._known(float(p - top))) if p > top else "1.0"]
            for _ in range(top):
                powers.insert(0, self._op(powers[0], "*", a[0]))
            powers += ["0.0"] * (3 - top)  # a0**(p-j) for j > p, whose coefficient is 0
        else:
            message = (f"non-integer power {p} of a non-positive value" if p != round(p) else
                       f"power {p} of a non-positive value (an integer from 2**53 on is too large"
                       " for the exact integer rule)")
            self.check(a[0], "<=", message)
            powers = [self._op(a[0], "**", self._known(p))]
            for _ in range(order):
                powers.append(self._op(powers[-1], "/", a[0]))
        # phi_j = p*(p-1)*...*(p-j+1) * a0**(p-j), the coefficient folded into a constant
        coeff, phis = 1.0, [powers[0]]
        for j in range(1, order + 1):
            coeff *= p - (j - 1.0)
            phis.append(self._op(self._known(coeff), "*", powers[j]))
        return self._rule(_CHAIN, order, p=tuple(phis), a=a)

    def exp(self, a: Names) -> Names:
        """exp(a); a known a0 folds unless math.exp overflows, which the float
        program then raises as it runs."""
        value = self._fold(np.exp if self.array else math.exp, self.known[a[0]]) if a[0] in self.known else None
        e = self.let(f"{'exp' if self.array else 'math_exp'}({{}})", a[0], floats=True) if value is None else self._known(value)
        return self._rule(_CHAIN, len(a) - 1, p=(e,) * len(a), a=a)


# ---------------------------------------------------------------------------
# order-3 rules on Jet3 values


@lru_cache(maxsize=64)
def _program(rule: str, n_jets: int, *params) -> Callable:
    """Order-3 program of one Tape rule, compiled on first use."""
    tape = Tape(array=True)
    jets = [tuple(f"x{i}_{j}" for j in range(4)) for i in range(n_jets)]
    return tape.build([c for jet in jets for c in jet], getattr(tape, rule)(*jets, *params))


def _apply(rule: str, *jets: Jet3, params: tuple = ()) -> Jet3:
    fn = _program(rule, len(jets), *params)
    return Jet3(*fn(*(c for j in jets for c in (j.f0, j.f1, j.f2, j.f3))))


def seed(s: Real) -> Jet3:
    """Jet of the identity function at s: (s, 1, 0, 0)."""
    return Jet3(s, _ones_like(s), _zeros_like(s), _zeros_like(s))


def constant(c: Real) -> Jet3:
    """Jet of a constant: (c, 0, 0, 0)."""
    return Jet3(c, _zeros_like(c), _zeros_like(c), _zeros_like(c))


def add(a: Jet3, b: Jet3) -> Jet3:
    return _apply("add", a, b)


def sub(a: Jet3, b: Jet3) -> Jet3:
    return _apply("sub", a, b)


def neg(a: Jet3) -> Jet3:
    return _apply("neg", a)


def mul(a: Jet3, b: Jet3) -> Jet3:
    """Product jet via the Leibniz rule through third order."""
    return _apply("mul", a, b)


def div(a: Jet3, b: Jet3) -> Jet3:
    """Quotient jet; solves the Leibniz recurrence for c in a = c*b."""
    return _apply("div", a, b)


def pow_const(a: Jet3, p: float) -> Jet3:
    """Jet of a**p for a constant real exponent p (see Tape.pow)."""
    return _apply("pow", a, params=(p,))


def exp_jet(a: Jet3) -> Jet3:
    """Jet of exp(a)."""
    return _apply("exp", a)


def reflect(m: Callable[[Real], Jet3], s: Real) -> Jet3:
    """Jet of s -> m(1 - s), given an evaluator for the jet of m.

    The derivatives of m at 1 - s pick up alternating signs from the inner
    reflection.
    """
    return _apply("reflect", m(1.0 - s))
