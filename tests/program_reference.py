"""The straight-line emission that `jet.Tape` replaced, kept as a test-only
reference: one local per jet component, each rule row one compound
expression, and no local updated in place.  It folds a known 0 times a
known inf or nan to 0, as jet.Tape now does, where it used to fold it to
nan; every other fold is the one it made.

The programs `jet.Tape` builds now (one local per operation, a local of
floats updated in place at its last read) must return the same components,
bit for bit, with the same type, dtype and shape, and raise the same errors,
with the same type, message and index.  Run as a script,

    PYTHONPATH=src python tests/program_reference.py

it checks that for every catalog tree and every check_sweep, analyze_sweep
and riemann_fans pool tree of perfbench/ at orders 0-3, as scalar and as
array programs, and for every analyze_sweep and riemann_fans pool pair's
flux programs at orders 0-3 of both kinds, on the check grid, on an array
across the ends of (0, 1) and at scalar points from it, and exits 1 on the
first few mismatches it prints.  It also prints the time jet.Tape took to
build the trees' and the pairs' programs, per kind (scalar and array).
"""

from __future__ import annotations

import math
import operator
import re
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fracflow import jet, models
from fracflow.jet import _CHAIN, _LEIBNIZ, _OPS, _QUOTIENT, _UNIT, Names


class ReferenceTape:
    """The Tape of one local per component (see the module docstring); its
    programs compile through jet._maker, in jet's namespace."""

    def __init__(self, array: bool):
        self.array = array
        self.lines: list[str] = []
        self.consts: list = []
        self.known: dict = {"0.0": 0.0, "1.0": 1.0, "2.0": 2.0, "3.0": 3.0}
        self._n = 0

    def let(self, expr: str) -> str:
        name = f"v{self._n}"
        self._n += 1
        self.lines.append(f"{name} = {expr}")
        return name

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def check(self, x: str, op: str, message: str) -> None:
        if x in self.known and not _OPS[op](self.known[x], 0.0):
            return
        bad = f"{x} {op} 0.0"
        if self.array:
            self.lines.append(f"bad = np.asarray({bad})")
            self.lines.append(f"if bad.any(): raise DomainError({self.const(message)}, int(bad.argmax()))")
        else:
            self.lines.append(f"if {bad}: raise DomainError({self.const(message)})")

    def build(self, params: list[str], result: Names) -> Callable:
        if self.array:
            out: list[str] = []
            for name in result:
                if name in self.known:
                    name = self.opaque((name,), params[0])[0]
                elif name in out:
                    name = self.let(f"_copy({name})")
                out.append(name)
            result = tuple(out)
        body = "".join(f"            {line}\n" for line in self._live(result))
        src = (
            f"def make({', '.join(f'k{i}' for i in range(len(self.consts)))}):\n"
            f"    def run({', '.join(params)}):\n"
            f"        try:\n{body}"
            f"            return ({', '.join(result)},)\n"
            "        except OverflowError:\n"
            "            raise DomainError('float overflow') from None\n"
            "    return run\n"
        )
        return jet._maker(src)(*self.consts)

    def _live(self, result: Names) -> list[str]:
        live, out = set(result), []
        for line in reversed(self.lines):
            target, _, expr = line.partition(" = ")
            if target[0] == "v" and target not in live:
                continue
            fresh = set(re.findall(r"\bv\d+\b", expr or line)) - live
            if fresh and self.array:
                out.append(f"del {', '.join(sorted(fresh))}")
            live |= fresh
            out.append(line)
        return out[::-1]

    def _known(self, value) -> str:
        if type(value) is float and value in (0.0, 1.0):
            return "1.0" if value else "0.0"
        self.known[name := self.const(value)] = value
        return name

    def _fold(self, fn: Callable, *args):
        if self.array and (fn in (operator.pow, np.exp) or fn is operator.truediv and not args[1]):
            with np.errstate(all="ignore"):
                return float(fn(*map(np.asarray, args)))
        try:
            value = fn(*args)
        except ArithmeticError:
            return None
        return value if type(value) is float else None

    def _op(self, x: str, op: str, y: str) -> str:
        kx, ky = self.known.get(x), self.known.get(y)
        if op == "*" and 0.0 in (kx, ky):  # as jet.Tape folds it (see the module docstring)
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
            return f"-{y}"
        return f"({x}) / {y}" if op == "/" and " " in x else f"{x} {op} {y}"

    def opaque(self, comps: Names, like: str) -> Names:
        def bind(c: str) -> str:
            if not self.array:
                return self.let(c)
            fill = f"_{'zeros' if c == '0.0' else 'ones'}_like({like})"
            return self.let(fill if c in _UNIT else f"{c} * {fill}")
        return tuple(bind(c) if c in self.known else c for c in comps)

    def _name(self, expr: str) -> str:
        return expr if expr in self.known or expr.isidentifier() else self.let(expr)

    def _rule(self, rows: tuple, order: int, divisor: Optional[str] = None, **operands: Names) -> Names:
        names = {f"{key}{j}": c for key, comps in operands.items() for j, c in enumerate(comps)}
        for j in range(order + 1):
            tokens = ("+ " + rows[j]).split(" ")
            acc = None
            for sign, term in zip(tokens[::2], tokens[1::2]):
                prod = None
                for factor in term.split("*"):
                    x = names.get(factor, factor)
                    prod = x if prod is None else self._op(prod, "*", x)
                acc = prod if acc is None else self._op(acc, sign, prod)
            names[f"c{j}"] = self._name(acc if divisor is None else self._op(acc, "/", divisor))
        return tuple(names[f"c{j}"] for j in range(order + 1))

    def seed(self, s: str, order: int) -> Names:
        return (s,) + _UNIT[:order]

    def constant(self, value: float, order: int) -> Names:
        return (self._known(float(value) if self.array else value * 1.0),) + _UNIT[1:order + 1]

    def add(self, a: Names, b: Names) -> Names:
        return tuple(self._name(self._op(x, "+", y)) for x, y in zip(a, b))

    def sub(self, a: Names, b: Names) -> Names:
        return tuple(self._name(self._op(x, "-", y)) for x, y in zip(a, b))

    def neg(self, a: Names) -> Names:
        return tuple(self._name(self._op("0.0", "-", x)) for x in a)

    def reflect(self, a: Names) -> Names:
        return tuple(self._name(self._op("0.0", "-", x)) if j % 2 else x for j, x in enumerate(a))

    def mul(self, a: Names, b: Names) -> Names:
        return self._rule(_LEIBNIZ, len(a) - 1, a=a, b=b)

    def div(self, a: Names, b: Names, message: Optional[str] = None) -> Names:
        order = len(a) - 1
        if message is None:
            message = "division by zero" if order == 0 else "division by a jet with zero value"
        self.check(b[0], "==", message)
        return self._rule(_QUOTIENT, order, b[0], a=a, b=b)

    def pow(self, a: Names, p: float) -> Names:
        order = len(a) - 1
        if order == 0:
            if p != round(p):
                self.check(a[0], "<", f"non-integer power {p} of a negative value")
            if p < 0:
                self.check(a[0], "==", f"zero raised to negative power {p}")
            return (self._name(self._op(a[0], "**", self._known(p))),)
        if p == round(p) and p < 0:
            return self.div(_UNIT[:order + 1], self.pow(a, -p))
        if p == round(p) and p < 2.0 ** 53:
            top = int(min(3, p))
            powers = [self._name(self._op(a[0], "**", self._known(float(p - top)))) if p > top else "1.0"]
            for _ in range(top):
                powers.insert(0, self._name(self._op(powers[0], "*", a[0])))
            powers += ["0.0"] * (3 - top)
        else:
            message = (f"non-integer power {p} of a non-positive value" if p != round(p) else
                       f"power {p} of a non-positive value (an integer from 2**53 on is too large"
                       " for the exact integer rule)")
            self.check(a[0], "<=", message)
            powers = [self._name(self._op(a[0], "**", self._known(p)))]
            for _ in range(order):
                powers.append(self._name(self._op(powers[-1], "/", a[0])))
        coeff, phis = 1.0, [powers[0]]
        for j in range(1, order + 1):
            coeff *= p - (j - 1.0)
            phis.append(self._name(self._op(self._known(coeff), "*", powers[j])))
        return self._rule(_CHAIN, order, p=tuple(phis), a=a)

    def exp(self, a: Names) -> Names:
        value = self._fold(np.exp if self.array else math.exp, self.known[a[0]]) if a[0] in self.known else None
        e = self.let(f"{'exp' if self.array else 'math_exp'}({a[0]})") if value is None else self._known(value)
        return self._rule(_CHAIN, len(a) - 1, p=(e,) * len(a), a=a)


def reference_program(m: models.ModelExpr, order: int, array: bool) -> Callable:
    """m's program as ModelExpr.program built it with the reference emission."""
    tape = ReferenceTape(array)
    return tape.build(["s"], models._emit(tape, m, "s", order))


def reference_pair_program(pair: models.ModelPair, order: int, array: bool) -> Callable:
    """pair's flux program as ModelPair.program built it with the reference emission."""
    tape = ReferenceTape(array)
    a = tape.opaque(models._emit(tape, pair.m_a, "s", order), "s")
    b = tape.opaque(models._emit(tape, pair.m_b, tape.let("1.0 - s"), order), "s")
    return tape.build(["s"], tape.div(a, tape.add(a, tape.reflect(b)), "zero total mobility") + a + b)


def outcome(fn: Callable, s) -> tuple:
    """What fn(s) gives, bit for bit: per component its type, dtype, shape
    and bytes; or the error's type, message and index."""
    try:
        with np.errstate(all="ignore"):
            out = fn(s)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)
    return tuple((type(c).__name__, np.asarray(c).dtype.str, np.shape(c), np.asarray(c).tobytes()) for c in out)


CHECK_GRID = np.linspace(1e-6, 1.0 - 1e-6, 4096)
ACROSS = np.linspace(-0.25, 1.25, 121)  # holds 0, 0.5 and 1 exactly
INPUTS = (CHECK_GRID, ACROSS, *ACROSS[::6].tolist(), 1e-6, 1.0 - 1e-6, math.nan)


def _pool_objects():
    """(trees, pairs) of the catalog and of every pool entry."""
    import workloads

    trees, pairs = dict.fromkeys(models.catalog().values()), {}
    for workload in ("check_sweep", "analyze_sweep", "riemann_fans"):
        for entries in workloads.load_pool(workload)["strata"].values():
            for entry in entries:
                obj = workloads.parse_input(workload, entry["input"])
                pair = getattr(obj, "flux", obj)
                if isinstance(pair, models.ModelPair):
                    pairs[pair] = None
                    trees.update(dict.fromkeys((pair.m_a, pair.m_b)))
                else:
                    trees[pair] = None
    return list(trees), list(pairs)


def _main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    trees, pairs = _pool_objects()
    mismatches, compared = [], 0
    for what, objects, ref in (("tree", trees, reference_program), ("pair", pairs, reference_pair_program)):
        build = {False: 0.0, True: 0.0}  # seconds jet.Tape took per kind
        for obj in objects:
            for order in range(4):
                for array in (False, True):
                    start = time.perf_counter()
                    got_fn = obj.program(order, array)
                    build[array] += time.perf_counter() - start
                    want_fn = ref(obj, order, array)
                    for s in INPUTS:
                        if isinstance(s, np.ndarray) != array:
                            continue
                        compared += 1
                        got, want = outcome(got_fn, s), outcome(want_fn, s)
                        if got != want:
                            mismatches.append((what, str(obj), order, array, s if not array else len(s),
                                               str(got)[:200], str(want)[:200]))
        print(f"{what}s: {len(objects)}, built in {build[False]:.3f} s scalar, {build[True]:.3f} s array")
    print(f"{compared} comparisons")
    for m in mismatches[:5]:
        print("MISMATCH", m)
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(_main())
