"""Fractional-flow function of a mobility pair and its inflection structure.

For a pair (m_a, m_b) the flux is f(s) = m_a(s) / (m_a(s) + m_b(1-s)).
Derivatives come from jet arithmetic, with the second phase evaluated
through the sign-alternating reflection.  The closed forms

    f'  = h / m**2,                h  = m_a'*m_b + m_a*m_b'
    f'' = (h'*m - 2*m'*h) / m**3,  h' = m_a''*m_b - m_a*m_b''

(all m_b symbols taken at 1-s, m = m_a + m_b, m' the true s-derivative)
are provided as an independent cross-check of the jet route.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .jet import DomainError, Jet3, Real, Tape, point
from .jet import add, div, reflect  # noqa: F401  (perfbench/spans.py counts these here)
from .models import ModelPair, _emit
from .classifier import sign_changes

DEFAULT_GRID_N = 8192
DEFAULT_EPS = 1e-6
ZERO_TOL = 1e-13


@dataclass(frozen=True)
class Inflection:
    s: float
    direction: str  # "-+" or "+-": sign of f'' before -> after


@dataclass
class FluxAnalysis:
    inflections: list[Inflection]
    s1: Optional[float]
    s2: Optional[float]
    s_shaped: bool
    f3_at_half: Optional[float]
    tangency_warnings: list[float] = field(default_factory=list)


def _flux_rule(tape: Tape, a, b):
    """f = a / (a + reflect(b)) from the jets a of m_a at s and b of m_b at 1-s."""
    return tape.div(a, tape.add(a, tape.reflect(b)), "zero total mobility")


@lru_cache(maxsize=None)
def _flux_program(order: int, array: bool):
    tape = Tape(array)
    a = tuple(f"a{j}" for j in range(order + 1))
    b = tuple(f"b{j}" for j in range(order + 1))
    return tape.build([*a, *b], _flux_rule(tape, a, b))


def pair_program(pair: ModelPair, order: int):
    """Scalar f and its first `order` derivatives at s as one program, cached
    on the pair: m_a at s, m_b at a local 1 - s, then the flux rule.  Its
    values are f_taylor's bit for bit; its DomainError does not name the
    point."""
    if order not in pair._programs:
        tape = Tape(False)
        a = _emit(tape, pair.m_a, "s", order)
        b = _emit(tape, pair.m_b, tape.let("1.0 - s"), order)
        pair._programs[order] = tape.build(["s"], _flux_rule(tape, a, b))
    return pair._programs[order]


def f_taylor(pair: ModelPair, s: Real, order: int = 3) -> tuple:
    """f and its first `order` derivatives at s (scalar or array in (0,1))."""
    a = pair.m_a.taylor(s, order)
    b = pair.m_b.taylor(1.0 - s, order)
    try:
        return _flux_program(order, isinstance(s, np.ndarray))(*a, *b)
    except DomainError as exc:
        raise DomainError(f"{exc} at {point(s, exc.index)}", exc.index) from None


def f_jet(pair: ModelPair, s: Real) -> Jet3:
    """Jet of the fractional-flow function at s (scalar or array in (0,1))."""
    return Jet3(*f_taylor(pair, s))


def f_value(pair: ModelPair, s: Real) -> Real:
    """Flux value only (order 0 of f_taylor), extended by the exact limits
    f(0) = 0 and f(1) = 1."""
    if isinstance(s, np.ndarray):
        out = np.empty_like(s, dtype=float)
        interior = (s != 0.0) & (s != 1.0)
        out[s == 0.0] = 0.0
        out[s == 1.0] = 1.0
        if np.any(interior):
            try:
                out[interior] = f_taylor(pair, s[interior], 0)[0]
            except DomainError as exc:
                # the failing element's index into s, not into s[interior]
                index = int(np.flatnonzero(interior)[exc.index])
                head, _, value = str(exc).rpartition(f"s[{exc.index}]=")
                raise DomainError(f"{head}s[{index}]={value}", index) from None
        return out
    if s == 0.0:
        return 0.0
    if s == 1.0:
        return 1.0
    return f_taylor(pair, s, 0)[0]


def f2_closed(pair: ModelPair, s: Real) -> Real:
    """Second derivative of f from the closed form (cross-check of f_jet)."""
    ja = pair.m_a.eval_jet(s)
    jb = pair.m_b.eval_jet(1.0 - s)  # own-variable derivatives, no reflection signs
    m = ja.f0 + jb.f0
    if np.any(np.asarray(m) == 0.0):
        raise DomainError(f"zero total mobility at s={s!r}")
    m1 = ja.f1 - jb.f1
    h = ja.f1 * jb.f0 + ja.f0 * jb.f1
    h1 = ja.f2 * jb.f0 - ja.f0 * jb.f2
    return (h1 * m - 2.0 * m1 * h) / m ** 3


def _first_root(pair: ModelPair, g, order: int, label: str, grid_n: int, eps: float, tol: float):
    s = np.linspace(eps, 1.0 - eps, grid_n)
    values = lambda t: g(pair.m_a.taylor(t, order), pair.m_b.taylor(1.0 - t, order))
    roots = sign_changes(s, np.asarray(values(s), dtype=float), lambda t: float(values(t)), tol)
    if not roots:
        return None
    if len(roots) > 1:
        warnings.warn(f"{label} has {len(roots)} sign changes; reporting the first", stacklevel=3)
    return roots[0][0]


def find_s1(pair: ModelPair, grid_n: int = 4096, eps: float = DEFAULT_EPS, tol: float = 1e-12):
    """Sign change of the total-mobility derivative m_a'(s) - m_b'(1-s).

    None when there is no sign change on the clipped grid.  For admissible
    pairs the root is unique; otherwise the first bracket is refined and a
    multiplicity warning is emitted.
    """
    return _first_root(pair, lambda a, b: a[1] - b[1], 1, "s1", grid_n, eps, tol)


def find_s2(pair: ModelPair, grid_n: int = 4096, eps: float = DEFAULT_EPS, tol: float = 1e-12):
    """Sign change of m_a''(s)*m_b(1-s) - m_a(s)*m_b''(1-s) (i.e. of h')."""
    return _first_root(pair, lambda a, b: a[2] * b[0] - a[0] * b[2], 2, "s2", grid_n, eps, tol)


def inflection_points(
    pair: ModelPair,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = 1e-12,
    eps: float = DEFAULT_EPS,
) -> FluxAnalysis:
    """Locate every transversal sign change of f'' on the clipped grid.

    Each bracketed sign change is refined to an interval below tol.  Grid
    points where |f''| < ZERO_TOL farther than two grid spacings from every
    inflection are reported as tangency warnings, not inflections.  The
    S-shaped verdict is exactly "one inflection"; f3_at_half is populated
    for symmetric pairs (identical expressions).
    """
    if grid_n < 1000:
        raise ValueError(f"grid_n must be >= 1000, got {grid_n}")
    s = np.linspace(eps, 1.0 - eps, grid_n)
    y = np.asarray(f_taylor(pair, s, 2)[2], dtype=float)

    func = lambda t: float(f_taylor(pair, t, 2)[2])
    found = sign_changes(s, y, func, tol)
    inflections = [Inflection(root, direction) for root, direction in found]
    roots = np.array([root for root, _ in found])

    f3_half = None
    if pair.m_a == pair.m_b:
        f3_half = float(f_jet(pair, 0.5).f3)

    return FluxAnalysis(
        inflections=inflections,
        s1=find_s1(pair, eps=eps),
        s2=find_s2(pair, eps=eps),
        s_shaped=len(inflections) == 1,
        f3_at_half=f3_half,
        tangency_warnings=_tangency_suspects(s, y, roots, 2.0 * (s[1] - s[0])),
    )


def _tangency_suspects(s, y, roots, reach) -> list[float]:
    """Samples s where |y| < ZERO_TOL farther than reach from every root."""
    near = s[np.abs(y) < ZERO_TOL]
    if roots.size:
        near = near[np.min(np.abs(roots[:, None] - near), axis=0) > reach]
    return near.tolist()


def analysis_to_text(analysis: FluxAnalysis) -> str:
    lines = []
    for i in analysis.inflections:
        lines.append(f"inflection: s={i.s!r} direction={i.direction}")
    lines += [
        f"s1: {'absent' if analysis.s1 is None else repr(analysis.s1)}",
        f"s2: {'absent' if analysis.s2 is None else repr(analysis.s2)}",
        f"s_shaped: {str(analysis.s_shaped).lower()}",
        f"f3_at_half: {'n/a' if analysis.f3_at_half is None else repr(analysis.f3_at_half)}",
    ]
    for w in analysis.tangency_warnings:
        lines.append(f"tangency_warning: s={w!r}")
    return "\n".join(lines)
