"""The two-loop bracket solver that `classifier._bisect_sign_change` replaced,
kept as a test-only reference, and a drawn-bracket generator.

The one-loop solver must make the same evaluations, in the same order, and
return the same value wherever this reference terminates (it never ends once
its bracket is two neighbouring floats wider than tol).  Run as a script,

    PYTHONPATH=src python tests/bracket_reference.py [n_random]

it checks that on every solver call of every analyze_sweep and riemann_fans
pool entry of perfbench/ and on n_random drawn brackets (default 20000), and
exits 1 on the first few mismatches it prints.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np


def two_loop_solver(func, lo, hi, tol, f_lo=None, f_hi=None):
    """Illinois regula falsi for ceil(log2((hi-lo)/tol)) steps, then a
    bisection finish; a missing end value is evaluated."""
    if f_lo is None:
        f_lo = func(lo)
    if f_lo == 0.0:
        return lo
    if f_hi is None:
        f_hi = func(hi)
    if f_hi == 0.0:
        return hi
    strict = hi - lo > tol and (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo)
    steps = math.ceil(math.log2((hi - lo) / tol)) if strict else 0
    half = 0.5 * tol
    kept = 0
    while steps > 0 and hi - lo > tol:
        steps -= 1
        t = min(hi - half, max(lo + half, float(hi - f_hi * (hi - lo) / (f_hi - f_lo))))
        f_t = func(t)
        if f_t == 0.0:
            return t
        if (f_t > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, f_t
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = t, f_t
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _flat(t):
    # exp(-1/t^2) with the sign of t: every derivative vanishes at 0, and
    # the value underflows to an exact 0 for |t| < ~0.037
    return math.copysign(math.exp(-1.0 / (t * t)), t) if abs(t) > 0.01 else 0.0


BRACKET_FUNCTIONS = {
    "linear": lambda t: t,
    "cubic": lambda t: t ** 3,
    "power 11": lambda t: t ** 11,
    "signed cube root": lambda t: math.copysign(abs(t) ** (1.0 / 3.0), t),
    "steep tanh": lambda t: math.tanh(1e6 * t),
    "exp(-1/t^2) flat": _flat,
}
_SHAPES = sorted(BRACKET_FUNCTIONS)
BRACKET_KINDS = ("shape", "nan stretch", "unconfirmed", "zero end", "nan end")


def draw_bracket(rng: np.random.Generator, kind: str):
    """(func, lo, hi, tol, f_lo, f_hi) for one drawn bracket of the given
    kind, with tol >= 1e-12, where the reference terminates:
    - "shape": a BRACKET_FUNCTIONS shape with its root inside;
    - "nan stretch": the same, NaN on a stretch inside the bracket;
    - "unconfirmed": end values of one sign, whatever func does between;
    - "zero end": an end value that is exactly zero;
    - "nan end": an end value that is NaN."""
    shape = BRACKET_FUNCTIONS[_SHAPES[int(rng.integers(len(_SHAPES)))]]
    lo = float(rng.uniform(-2.0, 1.0))
    width = float(10.0 ** rng.uniform(-8.0, 0.5))
    hi = lo + width
    tol = float(10.0 ** rng.uniform(-12.0, -3.0))
    r = lo + float(rng.uniform(0.0, 1.0)) * width
    sign = -1.0 if rng.integers(2) else 1.0
    func = lambda t: sign * shape(t - r)
    if kind == "nan stretch":
        a, b = np.sort(rng.uniform(lo, hi, 2))
        plain = func
        func = lambda t: math.nan if a < t < b else plain(t)
    f_lo, f_hi = func(lo), func(hi)
    if kind == "unconfirmed":
        f_hi = math.copysign(float(rng.uniform(0.1, 1.0)), f_lo) if f_lo else 1.0
    elif kind == "zero end":
        f_lo, f_hi = (0.0, f_hi) if rng.integers(2) else (f_lo, 0.0)
    elif kind == "nan end":
        f_lo, f_hi = (math.nan, f_hi) if rng.integers(2) else (f_lo, math.nan)
    return func, lo, hi, tol, f_lo, f_hi


def traced(solver, func, lo, hi, tol, f_lo, f_hi):
    """(points solver evaluates, in order; the value it returns; the
    exception it raises, or None)."""
    calls = []

    def counted(t):
        calls.append(t)
        return func(t)
    try:
        return calls, solver(counted, lo, hi, tol, f_lo, f_hi), None
    except Exception as exc:  # a DomainError inside func ends both solvers alike
        return calls, None, exc


def same_trace(got, want) -> bool:
    """Equal points in equal order, and repr-equal value and exception."""
    return got[0] == want[0] and repr(got[1:]) == repr(want[1:])


def _main(n_random: int) -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from fracflow import classifier, riemann

    solver = classifier._bisect_sign_change
    mismatches, counts, where = [], {}, ""

    def compared(func, lo, hi, tol, f_lo, f_hi):
        got = traced(solver, func, lo, hi, tol, f_lo, f_hi)
        want = traced(two_loop_solver, func, lo, hi, tol, f_lo, f_hi)
        counts[where] = counts.get(where, 0) + 1
        if not same_trace(got, want):
            mismatches.append((where, lo, hi, tol, got, want))
        if got[2] is not None:
            raise got[2]
        return got[1]

    classifier._bisect_sign_change = riemann._bisect = compared
    for workload in ("analyze_sweep", "riemann_fans"):
        where = workload
        for stratum, entries in workloads.load_pool(workload)["strata"].items():
            for entry in entries:
                obj = workloads.parse_input(workload, entry["input"])
                inp = workloads.Input(stratum, stratum, entry["input"], entry["golden"], obj)
                workloads.quiet(workloads.op, workload, inp)
        print(f"{workload}: {counts.get(workload, 0)} solver calls")
    classifier._bisect_sign_change = riemann._bisect = solver

    rng = np.random.default_rng(0)
    where = "random"
    for k in range(n_random):
        compared(*draw_bracket(rng, BRACKET_KINDS[k % len(BRACKET_KINDS)]))
    print(f"random: {counts.get('random', 0)} brackets")
    for m in mismatches[:5]:
        print("MISMATCH", m)
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(_main(int(sys.argv[1]) if len(sys.argv) > 1 else 20000))
