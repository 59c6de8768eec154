"""Riemann problems for s_t + f(s)_x = 0 via the envelope construction.

For s_L < s_R the entropy solution follows the lower convex envelope of f
on [s_L, s_R]; for s_L > s_R the upper concave envelope on [s_R, s_L].
Arcs where the envelope coincides with f become rarefactions, straight
chords become shocks travelling at the chord slope (Rankine-Hugoniot).

The envelope itself is built from a monotone-chain hull over a dense
sample of the graph; hull edges joining adjacent samples are "contact"
edges, longer edges are chords whose tangency points are then refined
against the exact derivative, since sampling alone misclassifies
near-tangential contact.  Only the edges that skip samples are tested
against the curve; each run of adjacent edges becomes one arc.  Before the
chain runs, one numpy pass drops every interior sample whose cross product
with its two neighbours is < 0: it lies above its neighbours' chord and is
never a hull vertex.  Through a run of neighbouring samples whose cross
products are > 0, the chain's cross tests are those same products, so it
appends the run without them.

Each curve holds scalar straight-line programs for f and f' (for a pair:
m_a at s and m_b at 1 - s fused into one program), bit for bit equal to
f_taylor; points outside their domain take the f_taylor route.

Inside a rarefaction the profile inverts f'(s) = xi over the whole arc with
the bracket solver shared with the classifier.  The arc's end values of
f' - xi are the wave's end speeds minus xi, so the solver starts from them
without evaluating f' again, and the result lies within INVERT_TOL of a
sign change of f' - xi.  At its two end speeds a rarefaction returns its
end states, which are exact roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .jet import DomainError
from .models import ModelExpr, ModelPair
from .classifier import _require_finite, _bisect_sign_change as _bisect  # perfbench/spans.py times _bisect
from .flux import f_jet, f_taylor, f_value, pair_program  # noqa: F401  (perfbench/spans.py wraps f_jet here)

DEFAULT_SAMPLES = 4096
# tangency refinement: the construction needs at least 1e-10; this is
# tighter so that adjacent rarefaction and shock speeds agree to ~|f''|*width
REFINE_TOL = 1e-12
INVERT_TOL = 1e-10
_CLIP = 1e-9  # fallback clip for derivative evaluation at the domain ends


class PairFlux:
    """Flux curve f = m_a/(m_a + m_b(1-s)) of a mobility pair."""

    def __init__(self, pair: ModelPair):
        self.pair = pair
        self._taylor = partial(f_taylor, pair)
        self._f, self._df = pair_program(pair, 0), pair_program(pair, 1)

    def value(self, s):
        if isinstance(s, np.ndarray) or s == 0.0 or s == 1.0:
            return f_value(self.pair, s)
        try:
            return self._f(s)[0]
        except DomainError:
            return f_value(self.pair, s)

    def deriv(self, s: float) -> float:
        return _slope(self._df, self._taylor, s)


class ExprFlux:
    """An arbitrary expression in s used directly as the flux function."""

    def __init__(self, expr: ModelExpr):
        self.expr = expr
        self._taylor = expr.taylor
        self._df = expr.program(1, False)

    def value(self, s):
        return self.expr.eval(s)

    def deriv(self, s: float) -> float:
        return _slope(self._df, self._taylor, s)


def _slope(program, taylor, s: float) -> float:
    """f'(s) from the order-1 program; where s is outside its domain (a
    non-integer power at an exact endpoint), from taylor at s clipped into
    [_CLIP, 1 - _CLIP], whose DomainError names the point."""
    try:
        return float(program(s)[1])
    except DomainError:
        return float(taylor(min(max(s, _CLIP), 1.0 - _CLIP), 1)[1])


FluxLike = Union[ModelPair, ModelExpr]


def _as_curve(flux):
    if isinstance(flux, ModelPair):
        return PairFlux(flux)
    if isinstance(flux, ModelExpr):
        return ExprFlux(flux)
    return flux  # already a curve object


@dataclass(frozen=True)
class ContactArc:
    s_lo: float
    s_hi: float


@dataclass(frozen=True)
class Chord:
    s_lo: float
    s_hi: float
    slope: float


@dataclass(frozen=True)
class Shock:
    left_state: float
    right_state: float
    speed: float


@dataclass(frozen=True)
class Rarefaction:
    left_state: float
    right_state: float
    speed_lo: float
    speed_hi: float


Wave = Union[Shock, Rarefaction]


@dataclass(frozen=True)
class RiemannProblem:
    s_L: float
    s_R: float
    flux: FluxLike

    def __post_init__(self):
        if not (0.0 <= self.s_L <= 1.0 and 0.0 <= self.s_R <= 1.0):
            raise ValueError(f"states must lie in [0,1], got s_L={self.s_L}, s_R={self.s_R}")


@dataclass
class WaveFan:
    s_left: float
    s_right: float
    waves: list[Wave]
    flux: object  # curve used for rarefaction inversion


def _lower_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Lower hull of the points (xs[i], ys[i]), xs ascending, by the monotone
    chain over the ends and the samples whose cross product with their two
    neighbours is >= 0.  Where the top two vertices are neighbours, the
    chain's cross test of the next sample is the top vertex's own cross
    product, same operands and formula; through a run of neighbours whose
    cross products are > 0 each test passes, so the run is appended untested.
    """
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    y0, y1, y2 = ys[:-2], ys[1:-1], ys[2:]
    cross = np.zeros(len(xs))  # the ends are always visited
    cross[1:-1] = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    index = np.flatnonzero(cross >= 0.0)
    adjacent = np.diff(index) == 1
    # the last sample of each visited sample's run
    ends = np.append(np.flatnonzero(~adjacent | (cross[index[:-1]] <= 0.0)), len(index) - 1)
    run_end = np.repeat(ends, np.diff(ends, prepend=-1)).tolist()
    adjacent = [False, *adjacent.tolist()]  # to the previous visited sample
    x, y = xs[index].tolist(), ys[index].tolist()
    hull: list[int] = []
    i = 0
    while i < len(x):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross_i = (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o])
            if cross_i <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
        if adjacent[i] and hull[-2] == i - 1:
            hull.extend(range(i + 1, run_end[i] + 1))
            i = run_end[i]
        i += 1
    return index[hull].tolist()


def envelope(flux, a: float, b: float, orientation: str):
    """Lower convex or upper concave envelope of the flux on [a, b].

    Returns a contiguous, s-ordered list of ContactArc and Chord pieces
    tiling [a, b].  orientation is "convex_lower" or "concave_upper"; the
    upper concave envelope of f is the lower convex envelope of -f, so the
    construction runs on sign*f with sign = -1 for it.  A flux sample that
    is not finite raises DomainError.
    """
    if orientation not in ("convex_lower", "concave_upper"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if a == b:
        return []
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    curve = _as_curve(flux)
    sign = 1.0 if orientation == "convex_lower" else -1.0
    value = lambda t: sign * curve.value(t)
    deriv = lambda t: sign * curve.deriv(t)

    xs = np.linspace(a, b, DEFAULT_SAMPLES + 1)
    ys = np.asarray(value(xs), dtype=float)
    _require_finite(xs, ys, "flux value")
    hull = _lower_hull_indices(xs, ys)

    # a chord that never leaves the curve by more than value resolution is
    # contact structure from flat (e.g. underflowed) stretches, not a shock
    dev_tol = 1e-12 * max(1.0, float(np.max(np.abs(ys))))

    def _chord_deviation(lo: float, hi: float) -> float:
        ts = np.linspace(lo, hi, 9)[1:-1]
        f_lo, f_hi = value(lo), value(hi)
        line = f_lo + (ts - lo) / (hi - lo) * (f_hi - f_lo)
        return float(np.max(np.abs(np.asarray(value(ts)) - line)))

    # classify hull edges: one joining adjacent samples, or staying within
    # dev_tol of the curve, is contact; runs of contact edges merge into arcs.
    # Only the edges that skip samples can be chords (a NaN deviation is one).
    x = xs[hull].tolist()
    chords = [k for k in np.flatnonzero(np.diff(hull) > 1).tolist()
              if not _chord_deviation(x[k], x[k + 1]) <= dev_tol]
    raw: list[tuple[str, float, float]] = []
    start = 0  # first edge of the current contact run
    for k in chords + [len(x) - 1]:
        if k > start:
            raw.append(("arc", x[start], x[k]))
        if k < len(x) - 1:
            raw.append(("chord", x[k], x[k + 1]))
        start = k + 1

    h = float(xs[1] - xs[0])

    def refine_end(t0: float, slope: float) -> float:
        lo = max(a, t0 - h)
        hi = min(b, t0 + h)
        g = lambda t: deriv(t) - slope
        g_lo, g_hi = g(lo), g(hi)
        if g_lo * g_hi > 0.0:
            return t0
        return _bisect(g, lo, hi, REFINE_TOL, g_lo, g_hi)

    # per-chord tangency refinement: ends interior to [a, b] slide to where
    # f' equals the chord slope; the slope is re-derived each pass
    refined: list[tuple[str, float, float]] = []
    for kind, lo, hi in raw:
        if kind == "chord":
            for _ in range(3):
                slope = (value(hi) - value(lo)) / (hi - lo)
                if lo > a:
                    lo = refine_end(lo, slope)
                if hi < b:
                    hi = refine_end(hi, slope)
        refined.append((kind, lo, hi))

    # rebuild a contiguous tiling: chord boundaries win over arc boundaries,
    # coincident chord-chord junctions average
    m = len(refined)
    joints = [a] + [0.0] * (m - 1) + [b]
    for k in range(1, m):
        left_kind, _, left_hi = refined[k - 1]
        right_kind, right_lo, _ = refined[k]
        if left_kind == "chord" and right_kind == "chord":
            joints[k] = 0.5 * (left_hi + right_lo)
        elif left_kind == "chord":
            joints[k] = left_hi
        else:
            joints[k] = right_lo

    pieces = []
    for k, (kind, _, _) in enumerate(refined):
        lo, hi = joints[k], joints[k + 1]
        if hi <= lo:
            continue
        if kind == "arc":
            pieces.append(ContactArc(lo, hi))
        else:
            slope = float((value(hi) - value(lo)) / (hi - lo))
            pieces.append(Chord(lo, hi, sign * slope))
    return pieces


def solve(problem: RiemannProblem) -> WaveFan:
    """Wave fan of the Riemann problem by the envelope construction."""
    curve = _as_curve(problem.flux)
    s_L, s_R = problem.s_L, problem.s_R
    if s_L == s_R:
        return WaveFan(s_L, s_R, [], curve)

    # the fan runs from s_L to s_R: states ascend with xi on the lower convex
    # envelope, descend on the upper concave one (pieces taken in reverse)
    ascending = s_L < s_R
    if ascending:
        pieces = envelope(curve, s_L, s_R, "convex_lower")
    else:
        pieces = envelope(curve, s_R, s_L, "concave_upper")[::-1]
    waves: list[Wave] = []
    for p in pieces:
        left, right = (p.s_lo, p.s_hi) if ascending else (p.s_hi, p.s_lo)
        if isinstance(p, Chord):
            waves.append(Shock(left, right, p.slope))
        else:
            waves.append(Rarefaction(left, right, curve.deriv(left), curve.deriv(right)))
    return WaveFan(s_L, s_R, waves, curve)


def evaluate(fan: WaveFan, xi: float) -> float:
    """Self-similar solution s(xi), xi = x/t.

    Constant states outside and between waves; inside a rarefaction the
    state inverts f'(s) = xi on the (monotone) contact arc, to within
    INVERT_TOL of a sign change of f' - xi.  A NaN xi raises ValueError.
    """
    if math.isnan(xi):
        raise ValueError("xi must not be NaN")
    state = fan.s_left
    for w in fan.waves:
        if isinstance(w, Shock):
            if xi < w.speed:
                return state
        else:
            if xi < w.speed_lo:
                return state
            if xi == w.speed_lo:
                return w.left_state
            if xi == w.speed_hi:
                return w.right_state
            if xi < w.speed_hi:
                # f' - xi at the end states is the end speed minus xi
                (lo, g_lo), (hi, g_hi) = sorted(((w.left_state, w.speed_lo - xi),
                                                 (w.right_state, w.speed_hi - xi)))
                return _bisect(lambda t: fan.flux.deriv(t) - xi, lo, hi, INVERT_TOL, g_lo, g_hi)
        state = w.right_state
    return state


def fan_to_text(fan: WaveFan) -> str:
    lines = [f"s_L: {fan.s_left!r}", f"s_R: {fan.s_right!r}"]
    if not fan.waves:
        lines.append("waves: none (constant state)")
    for w in fan.waves:
        if isinstance(w, Shock):
            lines.append(
                f"shock: {w.left_state!r} -> {w.right_state!r} speed={w.speed!r}"
            )
        else:
            lines.append(
                f"rarefaction: {w.left_state!r} -> {w.right_state!r} "
                f"speeds=[{w.speed_lo!r}, {w.speed_hi!r}]"
            )
    return "\n".join(lines)
