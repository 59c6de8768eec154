"""Riemann problems for s_t + f(s)_x = 0 via the envelope construction.

For s_L < s_R the entropy solution follows the lower convex envelope of f
on [s_L, s_R]; for s_L > s_R the upper concave envelope on [s_R, s_L].
Arcs where the envelope coincides with f become rarefactions, straight
chords become shocks travelling at the chord slope (Rankine-Hugoniot).

The envelope itself is built from a monotone-chain hull over a dense
sample of the graph; hull edges joining adjacent samples are "contact"
edges, longer edges are chords whose tangency points are then refined
against the exact derivative, since sampling alone misclassifies
near-tangential contact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .jet import DomainError
from .models import ModelExpr, ModelPair
from .flux import f_jet, f_taylor, f_value  # noqa: F401  (perfbench/spans.py wraps f_jet here)

DEFAULT_SAMPLES = 4096
# tangency refinement: the construction needs at least 1e-10; the default is
# tighter so that adjacent rarefaction and shock speeds agree to ~|f''|*width
REFINE_TOL = 1e-12
INVERT_TOL = 1e-10
_CLIP = 1e-9  # fallback clip for derivative evaluation at the domain ends


class PairFlux:
    """Flux curve f = m_a/(m_a + m_b(1-s)) of a mobility pair."""

    def __init__(self, pair: ModelPair):
        self.pair = pair

    def value(self, s):
        return f_value(self.pair, s)

    def deriv(self, s: float) -> float:
        try:
            return float(f_taylor(self.pair, s, 1)[1])
        except DomainError:
            # non-integer powers cannot be jetted at the exact endpoints
            return float(f_taylor(self.pair, min(max(s, _CLIP), 1.0 - _CLIP), 1)[1])


class ExprFlux:
    """An arbitrary expression in s used directly as the flux function."""

    def __init__(self, expr: ModelExpr):
        self.expr = expr

    def value(self, s):
        return self.expr.eval(s)

    def deriv(self, s: float) -> float:
        try:
            return float(self.expr.taylor(s, 1)[1])
        except DomainError:
            return float(self.expr.taylor(min(max(s, _CLIP), 1.0 - _CLIP), 1)[1])


class _Negated:
    def __init__(self, flux):
        self._flux = flux

    def value(self, s):
        return -self._flux.value(s)

    def deriv(self, s):
        return -self._flux.deriv(s)


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
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _bisect(func, lo, hi, tol):
    f_lo = func(lo)
    if f_lo == 0.0:
        return lo
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


def envelope(flux, a: float, b: float, orientation: str,
             n_samples: int = DEFAULT_SAMPLES, refine_tol: float = REFINE_TOL):
    """Lower convex or upper concave envelope of the flux on [a, b].

    Returns a contiguous, s-ordered list of ContactArc and Chord pieces
    tiling [a, b].  orientation is "convex_lower" or "concave_upper".
    """
    if orientation not in ("convex_lower", "concave_upper"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if a == b:
        return []
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    curve = _as_curve(flux)
    if orientation == "concave_upper":
        pieces = envelope(_Negated(curve), a, b, "convex_lower", n_samples, refine_tol)
        return [
            Chord(p.s_lo, p.s_hi, -p.slope) if isinstance(p, Chord) else p
            for p in pieces
        ]

    n = max(int(n_samples), 1024)
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(curve.value(xs), dtype=float)
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
        f_lo, f_hi = curve.value(lo), curve.value(hi)
        line = f_lo + (ts - lo) / (hi - lo) * (f_hi - f_lo)
        return float(np.max(np.abs(np.asarray(curve.value(ts)) - line)))

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
        g = lambda t: curve.deriv(t) - slope
        if g(lo) * g(hi) > 0.0:
            return t0
        return _bisect(g, lo, hi, refine_tol)

    # per-chord tangency refinement: ends interior to [a, b] slide to where
    # f' equals the chord slope; the slope is re-derived each pass
    refined: list[tuple[str, float, float]] = []
    for kind, lo, hi in raw:
        if kind == "chord":
            for _ in range(3):
                slope = (curve.value(hi) - curve.value(lo)) / (hi - lo)
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
            slope = float((curve.value(hi) - curve.value(lo)) / (hi - lo))
            pieces.append(Chord(lo, hi, slope))
    return pieces


def solve(problem: RiemannProblem, n_samples: int = DEFAULT_SAMPLES) -> WaveFan:
    """Wave fan of the Riemann problem by the envelope construction."""
    curve = _as_curve(problem.flux)
    s_L, s_R = problem.s_L, problem.s_R
    if s_L == s_R:
        return WaveFan(s_L, s_R, [], curve)

    waves: list[Wave] = []
    if s_L < s_R:
        pieces = envelope(curve, s_L, s_R, "convex_lower", n_samples)
        for p in pieces:  # states ascend with xi
            if isinstance(p, Chord):
                waves.append(Shock(p.s_lo, p.s_hi, p.slope))
            else:
                waves.append(Rarefaction(p.s_lo, p.s_hi, curve.deriv(p.s_lo), curve.deriv(p.s_hi)))
    else:
        pieces = envelope(curve, s_R, s_L, "concave_upper", n_samples)
        for p in reversed(pieces):  # states descend with xi
            if isinstance(p, Chord):
                waves.append(Shock(p.s_hi, p.s_lo, p.slope))
            else:
                waves.append(Rarefaction(p.s_hi, p.s_lo, curve.deriv(p.s_hi), curve.deriv(p.s_lo)))
    return WaveFan(s_L, s_R, waves, curve)


def evaluate(fan: WaveFan, xi: float, tol: float = INVERT_TOL) -> float:
    """Self-similar solution s(xi), xi = x/t.

    Constant states outside and between waves; inside a rarefaction the
    state inverts f'(s) = xi by bisection on the (monotone) contact arc.
    """
    state = fan.s_left
    for w in fan.waves:
        if isinstance(w, Shock):
            if xi < w.speed:
                return state
        else:
            if xi < w.speed_lo:
                return state
            if xi <= w.speed_hi:
                lo = min(w.left_state, w.right_state)
                hi = max(w.left_state, w.right_state)
                return _bisect(lambda t: fan.flux.deriv(t) - xi, lo, hi, tol)
        state = w.right_state
    return state


def fan_to_dict(fan: WaveFan) -> dict:
    waves = []
    for w in fan.waves:
        if isinstance(w, Shock):
            waves.append({"type": "shock", "left_state": w.left_state,
                          "right_state": w.right_state, "speed": w.speed})
        else:
            waves.append({"type": "rarefaction", "left_state": w.left_state,
                          "right_state": w.right_state,
                          "speed_range": [w.speed_lo, w.speed_hi]})
    return {"s_L": fan.s_left, "s_R": fan.s_right, "waves": waves}


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
