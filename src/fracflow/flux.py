"""Fractional-flow function of a mobility pair and its inflection structure.

For a pair (m_a, m_b) the flux is f(s) = m_a(s) / (m_a(s) + m_b(1-s)).
Derivatives come from jet arithmetic, with the second phase evaluated
through the sign-alternating reflection.  The closed forms

    f'  = h / m**2,                h  = m_a'*m_b + m_a*m_b'
    f'' = (h'*m - 2*m'*h) / m**3,  h' = m_a''*m_b - m_a*m_b''

(all m_b symbols taken at 1-s, m = m_a + m_b, m' the true s-derivative)
are provided as an independent cross-check of the jet route.

An analysis evaluates the order-2 jets of m_a and m_b once on its grid;
they give f'' and the numerators of s1 (m_a' - m_b') and s2 (h'), whose
sign changes are taken on that grid and refined to the analysis's tol.
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
from .classifier import ZERO_TOL, clipped_grid, sign_changes

DEFAULT_GRID_N = 8192
DEFAULT_EPS = 1e-6


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
    grid_n: int = DEFAULT_GRID_N
    eps: float = DEFAULT_EPS
    tol: float = 1e-12


def _flux_rule(tape: Tape, a, b):
    """f = a / (a + reflect(b)) from the jets a of m_a at s and b of m_b at 1-s."""
    return tape.div(a, tape.add(a, tape.reflect(b)), "zero total mobility")


@lru_cache(maxsize=None)
def _flux_program(order: int, array: bool):
    tape = Tape(array)
    a = tuple(f"a{j}" for j in range(order + 1))
    b = tuple(f"b{j}" for j in range(order + 1))
    return tape.build([*a, *b], _flux_rule(tape, a, b))


def pair_program(pair: ModelPair, order: int = 1):
    """Scalar f and its first `order` derivatives at s as one program,
    compiled on first use and cached on the pair per order: m_a at s, m_b at
    a local 1 - s, then the flux rule.  Its values are f_taylor's at that
    order bit for bit; its DomainError does not name the point."""
    if order not in pair._programs:
        tape = Tape(False)
        a = tape.opaque(_emit(tape, pair.m_a, "s", order))
        b = tape.opaque(_emit(tape, pair.m_b, tape.let("1.0 - s"), order))
        pair._programs[order] = tape.build(["s"], _flux_rule(tape, a, b))
    return pair._programs[order]


def _jets(pair: ModelPair, s: Real, order: int) -> tuple:
    """The jets of m_a at s and of m_b at 1 - s, to `order`."""
    return pair.m_a.taylor(s, order), pair.m_b.taylor(1.0 - s, order)


def _flux_from(s: Real, a: tuple, b: tuple) -> tuple:
    """f and its derivatives at s from the jets a, b of _jets."""
    try:
        return _flux_program(len(a) - 1, isinstance(s, np.ndarray))(*a, *b)
    except DomainError as exc:
        raise DomainError(f"{exc} at {point(s, exc.index)}", exc.index) from None


def f_taylor(pair: ModelPair, s: Real, order: int = 3) -> tuple:
    """f and its first `order` derivatives at s (scalar or array in (0,1))."""
    return _flux_from(s, *_jets(pair, s, order))


def f_jet(pair: ModelPair, s: Real) -> Jet3:
    """Jet of the fractional-flow function at s (scalar or array in (0,1))."""
    return Jet3(*f_taylor(pair, s))


def f_value(pair: ModelPair, s: Real) -> Real:
    """Flux value only (order 0 of f_taylor), extended by the exact limits
    f(0) = 0 and f(1) = 1; an array is evaluated whole and gives float64."""
    if isinstance(s, np.ndarray):
        ends = (s == 0.0) | (s == 1.0)  # masked as NaN, which fails no domain check that reads s
        if ends.all():
            return s.astype(float)
        masked = np.where(ends, np.nan, s)
        try:
            return np.where(ends, s, f_taylor(pair, masked, 0)[0]).astype(float, copy=False)
        except DomainError as exc:
            if not ends.flat[exc.index]:
                raise
            # a check failing at a masked end reads no s, so it fails at the first point that is not an end
            i = int(np.argmin(ends))
            raise DomainError(str(exc).removesuffix(point(masked, exc.index)) + point(s, i), i) from None
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


# the numerators of s1 and s2 from the jets of _jets, each with the order it needs
_NUMERATORS = {
    "s1": (1, lambda a, b: a[1] - b[1]),  # m_a'(s) - m_b'(1-s)
    "s2": (2, lambda a, b: a[2] * b[0] - a[0] * b[2]),  # m_a''(s)*m_b(1-s) - m_a(s)*m_b''(1-s)
}


def _first_root(pair: ModelPair, label: str, s, jets: tuple, tol: float) -> Optional[float]:
    """First sign change of the label's numerator sampled at s from the grid
    jets, refined to tol on scalar jets; a warning names any further ones."""
    order, g = _NUMERATORS[label]
    roots = sign_changes(s, np.asarray(g(*jets), dtype=float), lambda t: float(g(*_jets(pair, t, order))), tol)
    if len(roots) > 1:
        warnings.warn(f"{label} has {len(roots)} sign changes; reporting the first", stacklevel=3)
    return roots[0][0] if roots else None


def find_s1(pair: ModelPair, grid_n: int = 4096, eps: float = DEFAULT_EPS, tol: float = 1e-12):
    """Sign change of the total-mobility derivative m_a'(s) - m_b'(1-s).

    None when there is no sign change on the clipped grid.  For admissible
    pairs the root is unique; otherwise the first bracket is refined and a
    multiplicity warning is emitted.  inflection_points finds the same root
    on its own grid and tol.  A grid_n below 100 or an eps outside
    (0, 1e-3) raises ValueError.
    """
    s = clipped_grid(grid_n, eps)
    return _first_root(pair, "s1", s, _jets(pair, s, 1), tol)


def find_s2(pair: ModelPair, grid_n: int = 4096, eps: float = DEFAULT_EPS, tol: float = 1e-12):
    """Sign change of m_a''(s)*m_b(1-s) - m_a(s)*m_b''(1-s), i.e. of h'; see find_s1."""
    s = clipped_grid(grid_n, eps)
    return _first_root(pair, "s2", s, _jets(pair, s, 2), tol)


def inflection_points(
    pair: ModelPair,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = 1e-12,
    eps: float = DEFAULT_EPS,
) -> FluxAnalysis:
    """Locate every transversal sign change of f'' on the clipped grid.

    Each bracketed sign change is refined to an interval below tol.  s1 and
    s2 (see find_s1, find_s2) come from the same grid jets and tol.  Grid
    points where |f''| < ZERO_TOL farther than two grid spacings from every
    inflection are reported as tangency warnings, not inflections.  The
    S-shaped verdict is exactly "one inflection"; f3_at_half is populated
    for symmetric pairs (identical expressions).  A grid_n below 1000 or an
    eps outside (0, 1e-3) raises ValueError.
    """
    s = clipped_grid(grid_n, eps, 1000)
    a, b = _jets(pair, s, 2)
    y = np.asarray(_flux_from(s, a, b)[2], dtype=float)
    found = sign_changes(s, y, lambda t: float(f_taylor(pair, t, 2)[2]), tol)
    roots = np.array([root for root, _ in found])
    return FluxAnalysis(
        inflections=[Inflection(root, direction) for root, direction in found],
        f3_at_half=float(f_jet(pair, 0.5).f3) if pair.m_a == pair.m_b else None,
        s1=_first_root(pair, "s1", s, (a, b), tol),
        s2=_first_root(pair, "s2", s, (a, b), tol),
        s_shaped=len(found) == 1,
        tangency_warnings=_tangency_suspects(s, y, roots, 2.0 * (s[1] - s[0])),
        grid_n=grid_n, eps=eps, tol=tol,
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
