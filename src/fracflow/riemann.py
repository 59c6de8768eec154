"""Riemann problems for s_t + f(s)_x = 0 via the envelope construction.

For s_L < s_R the entropy solution follows the lower convex envelope of f
on [s_L, s_R]; for s_L > s_R the upper concave envelope on [s_R, s_L].
Arcs where the envelope coincides with f become rarefactions, straight
chords become shocks travelling at the chord slope (Rankine-Hugoniot).

The envelope itself is built from a monotone-chain hull over a dense
sample of the graph; hull edges joining adjacent samples are "contact"
edges, longer edges are chords whose tangency points are then refined
against the exact derivative, since sampling alone misclassifies
near-tangential contact.  Before the chain runs, one numpy pass drops every
interior sample that is not locally convex (cross product with its two
neighbours <= 0): such a point lies on or above its neighbours' chord and is
never a strict hull vertex.

Inside a rarefaction the profile inverts f'(s) = xi.  The first inversion
in a wave tabulates f' at _TABLE_N points of the arc with one array
program, and the table is cached on the fan.  Each xi takes its bracket
from the table's sign change and refines it on the scalar f' with the
bracket solver shared with the classifier; the result lies within tol of a
sign change of f' - xi.  Where the table and the scalar f' disagree, the
solver runs over the whole arc.  At its two end speeds a rarefaction
returns its end states, which are exact roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Union

import numpy as np

from .jet import DomainError
from .models import ModelExpr, ModelPair
from .classifier import _bisect_sign_change as _bisect  # perfbench/spans.py times it under this name
from .flux import f_jet, f_taylor, f_value  # noqa: F401  (perfbench/spans.py wraps f_jet here)

DEFAULT_SAMPLES = 4096
# tangency refinement: the construction needs at least 1e-10; the default is
# tighter so that adjacent rarefaction and shock speeds agree to ~|f''|*width
REFINE_TOL = 1e-12
INVERT_TOL = 1e-10
_CLIP = 1e-9  # fallback clip for derivative evaluation at the domain ends
_TABLE_N = 65  # f' samples per rarefaction that bracket its inversions


class PairFlux:
    """Flux curve f = m_a/(m_a + m_b(1-s)) of a mobility pair."""

    def __init__(self, pair: ModelPair):
        self.pair = pair
        self._taylor = partial(f_taylor, pair)

    def value(self, s):
        return f_value(self.pair, s)

    def deriv(self, s: float) -> float:
        return _slope(self._taylor, s)


class ExprFlux:
    """An arbitrary expression in s used directly as the flux function."""

    def __init__(self, expr: ModelExpr):
        self.expr = expr
        self._taylor = expr.taylor

    def value(self, s):
        return self.expr.eval(s)

    def deriv(self, s: float) -> float:
        return _slope(self._taylor, s)


def _slope(taylor, s: float) -> float:
    """First derivative from taylor(s, order), clipped into [_CLIP, 1 - _CLIP]
    when the exact point is outside the derivative's domain (non-integer
    powers cannot be jetted at the exact endpoints)."""
    try:
        return float(taylor(s, 1)[1])
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
    # per rarefaction index: (points, f' there or None), built on first inversion
    _tables: dict = field(default_factory=dict, repr=False, compare=False)


def _lower_hull_indices(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Lower hull of the points (xs[i], ys[i]), xs ascending, by the monotone
    chain; the chain visits only the ends and the locally convex samples."""
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    y0, y1, y2 = ys[:-2], ys[1:-1], ys[2:]
    keep = np.ones(len(xs), dtype=bool)
    keep[1:-1] = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0.0
    index = np.flatnonzero(keep)
    x, y = xs[index].tolist(), ys[index].tolist()
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return index[hull].tolist()


def envelope(flux, a: float, b: float, orientation: str,
             n_samples: int = DEFAULT_SAMPLES, refine_tol: float = REFINE_TOL):
    """Lower convex or upper concave envelope of the flux on [a, b].

    Returns a contiguous, s-ordered list of ContactArc and Chord pieces
    tiling [a, b].  orientation is "convex_lower" or "concave_upper"; the
    upper concave envelope of f is the lower convex envelope of -f, so the
    construction runs on sign*f with sign = -1 for it.
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

    n = max(int(n_samples), 1024)
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(value(xs), dtype=float)
    hull = _lower_hull_indices(xs, ys)

    # classify hull edges, merging runs of adjacent-sample edges into arcs
    raw: list[tuple[str, float, float]] = []
    for k in range(len(hull) - 1):
        i, j = hull[k], hull[k + 1]
        kind = "arc" if j == i + 1 else "chord"
        if raw and raw[-1][0] == "arc" and kind == "arc":
            raw[-1] = ("arc", raw[-1][1], float(xs[j]))
        else:
            raw.append((kind, float(xs[i]), float(xs[j])))

    # a "chord" that never leaves the curve by more than value resolution is
    # contact structure from flat (e.g. underflowed) stretches, not a shock
    dev_tol = 1e-12 * max(1.0, float(np.max(np.abs(ys))))

    def _chord_deviation(lo: float, hi: float) -> float:
        ts = np.linspace(lo, hi, 9)[1:-1]
        f_lo, f_hi = value(lo), value(hi)
        line = f_lo + (ts - lo) / (hi - lo) * (f_hi - f_lo)
        return float(np.max(np.abs(np.asarray(value(ts)) - line)))

    cleaned: list[tuple[str, float, float]] = []
    for kind, lo, hi in raw:
        if kind == "chord" and _chord_deviation(lo, hi) <= dev_tol:
            kind = "arc"
        if cleaned and cleaned[-1][0] == "arc" and kind == "arc":
            cleaned[-1] = ("arc", cleaned[-1][1], hi)
        else:
            cleaned.append((kind, lo, hi))
    raw = cleaned

    h = float(xs[1] - xs[0])

    def refine_end(t0: float, slope: float) -> float:
        lo = max(a, t0 - h)
        hi = min(b, t0 + h)
        g = lambda t: deriv(t) - slope
        g_lo, g_hi = g(lo), g(hi)
        if g_lo * g_hi > 0.0:
            return t0
        return _bisect(g, lo, hi, refine_tol, g_lo, g_hi)

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


def solve(problem: RiemannProblem, n_samples: int = DEFAULT_SAMPLES) -> WaveFan:
    """Wave fan of the Riemann problem by the envelope construction."""
    curve = _as_curve(problem.flux)
    s_L, s_R = problem.s_L, problem.s_R
    if s_L == s_R:
        return WaveFan(s_L, s_R, [], curve)

    # the fan runs from s_L to s_R: states ascend with xi on the lower convex
    # envelope, descend on the upper concave one (pieces taken in reverse)
    ascending = s_L < s_R
    if ascending:
        pieces = envelope(curve, s_L, s_R, "convex_lower", n_samples)
    else:
        pieces = envelope(curve, s_R, s_L, "concave_upper", n_samples)[::-1]
    waves: list[Wave] = []
    for p in pieces:
        left, right = (p.s_lo, p.s_hi) if ascending else (p.s_hi, p.s_lo)
        if isinstance(p, Chord):
            waves.append(Shock(left, right, p.slope))
        else:
            waves.append(Rarefaction(left, right, curve.deriv(left), curve.deriv(right)))
    return WaveFan(s_L, s_R, waves, curve)


def evaluate(fan: WaveFan, xi: float, tol: float = INVERT_TOL) -> float:
    """Self-similar solution s(xi), xi = x/t.

    Constant states outside and between waves; inside a rarefaction the
    state inverts f'(s) = xi on the (monotone) contact arc, to within tol of
    a sign change of f' - xi.
    """
    state = fan.s_left
    for k, w in enumerate(fan.waves):
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
                return _invert(fan, k, xi, tol)
        state = w.right_state
    return state


def _invert(fan: WaveFan, k: int, xi: float, tol: float) -> float:
    """s on rarefaction k with f'(s) = xi: bracketed by the wave's f' table,
    refined on the scalar f'.  The whole arc is the bracket when the table
    has no sign change, or the scalar f' does not confirm a strict one."""
    w = fan.waves[k]
    lo, hi = min(w.left_state, w.right_state), max(w.left_state, w.right_state)
    g = lambda t: fan.flux.deriv(t) - xi
    if k not in fan._tables:
        fan._tables[k] = _slope_table(fan.flux, lo, hi)
    ts, ds = fan._tables[k]
    if ds is not None:
        above = ds > xi
        hits = np.flatnonzero((above[1:] != above[0]) | (ds[1:] == xi))
        if hits.size:
            a, b = float(ts[hits[0]]), float(ts[hits[0] + 1])
            g_a, g_b = g(a), g(b)
            if g_a < 0.0 < g_b or g_b < 0.0 < g_a:
                return _bisect(g, a, b, tol, g_a, g_b)
    return _bisect(g, lo, hi, tol)


def _slope_table(curve, lo: float, hi: float):
    """(_TABLE_N points spanning [lo, hi], f' there) from one array program,
    evaluated at the points clipped into [_CLIP, 1 - _CLIP]; f' is None when
    the curve has no array program or it fails there."""
    ts = np.linspace(lo, hi, _TABLE_N)
    taylor = getattr(curve, "_taylor", None)
    if taylor is None:
        return ts, None
    try:
        ds = taylor(np.clip(ts, _CLIP, 1.0 - _CLIP), 1)[1]
    except DomainError:
        return ts, None
    return ts, (ds if np.all(np.isfinite(ds)) else None)


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
