"""Riemann problems for s_t + f(s)_x = 0 via the envelope construction.

For s_L < s_R the entropy solution follows the lower convex envelope of f
on [s_L, s_R]; for s_L > s_R the upper concave envelope on [s_R, s_L].
envelope(flux, s_L, s_R) returns its pieces in fan order: straight chords
as shocks travelling at the chord slope (Rankine-Hugoniot), and arcs where
it coincides with f as ContactArcs, which solve turns into rarefactions.

The envelope itself is built from a monotone-chain hull over a dense
sample of the graph; a hull edge whose own samples all lie within dev_tol
of it (so every edge joining adjacent samples) is "contact", any other edge
is a chord whose tangency points are then refined against the exact
derivative, since sampling alone misclassifies near-tangential contact.
The test reads the samples the hull was built from, all edges in one array
pass; each run of adjacent contact edges becomes one arc.  The chain
(Andrew, Inf. Proc. Lett. 9, 1979) visits only the samples whose cross
product with their two neighbours is >= 0; any other lies above its
neighbours' chord.  Through a run of neighbours whose cross products are > 0
the chain appends the run untested.  A streak of samples that each pop only
the one before them (a convex run under a chord), and a pop back through a
block of consecutive vertices, go to numpy once they are long, with the
chain's own cross products.  The hull is the plain chain's over every
sample up to vertices collinear with their hull neighbours within rounding,
which the skipped tests may keep where the plain chain pops them.

Both curve kinds share one deriv: a scalar straight-line program for f and
f', or f, f' and f'' (for a pair: m_a at s and m_b at 1 - s fused into one
program), bit for bit equal to the curve's reference route (f_taylor for a
pair, taylor for an expression), which takes the points outside the
program's domain.  A curve's value is its reference route for f (f_value
for a pair, eval for an expression), which takes arrays and the exact ends.
One walk over the chords refines each and tiles [a, b]: the run of contact
edges before a chord is an arc ending at the chord's refined lo; a chord
ends at its refined hi or, where the next chord shares its hull vertex, at
the mean of that hi and the next chord's refined lo; the last piece ends at b.

Inside a rarefaction the profile inverts f'(s) = xi to within INVERT_TOL
of a sign change of f' - xi.  Each arc keeps views of its edges' midpoints
and slopes, which ascend on a contact arc; by Osher's argmin form (SIAM J.
Numer. Anal. 21, 1984) xi interpolated among them and the end states at
their exact end speeds gives a start with error O(h^2).  An order-2 slope
call gives a Newton step, and f' at INVERT_TOL/2 either side of its result
verifies the sign change, else a second step is tried.  Otherwise (and for
a DomainError or no samples) the bracket solver shared with the classifier
runs on the whole arc, whose end values of f' - xi are the end speeds minus
xi.  At its two end speeds a rarefaction returns its end states, which are
exact roots.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
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
_LONG = 8  # chain steps of one pattern before _lower_hull_indices hands it to numpy


class _Curve:
    """f' (order 1), or f' and f'' (order 2), from _program(order), compiled
    on first use, else from _taylor at s clipped into [_CLIP, 1 - _CLIP].
    perfbench/spans.py wraps deriv on each subclass: neither subclasses the other."""

    _df = cached_property(lambda self: self._program(1))
    _d2f = cached_property(lambda self: self._program(2))

    def deriv(self, s: float, order: int = 1):
        try:
            out = (self._df if order == 1 else self._d2f)(s)
        except DomainError:
            out = self._taylor(min(max(s, _CLIP), 1.0 - _CLIP), order)
        return float(out[1]) if order == 1 else (float(out[1]), float(out[2]))


class PairFlux(_Curve):
    """Flux curve f = m_a/(m_a + m_b(1-s)) of a mobility pair."""

    def __init__(self, pair: ModelPair):
        self.pair = pair
        self.value = lambda s: f_value(pair, s)  # looked up per call: perfbench/spans.py counts it
        self._taylor = partial(f_taylor, pair)
        self._program = partial(pair_program, pair)


class ExprFlux(_Curve):
    """An arbitrary expression in s used directly as the flux function."""

    def __init__(self, expr: ModelExpr):
        self.expr = expr
        self.value, self._taylor = expr.eval, expr.taylor
        self._program = partial(expr.program, array=False)


FluxLike = Union[ModelPair, ModelExpr]


def _as_curve(flux):
    if isinstance(flux, ModelPair):
        return PairFlux(flux)
    if isinstance(flux, ModelExpr):
        return ExprFlux(flux)
    return flux  # already a curve object


@dataclass(frozen=True)
class ContactArc:
    left_state: float
    right_state: float
    samples: tuple | None = field(default=None, repr=False, compare=False)  # set by envelope


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
    samples: tuple | None = field(default=None, repr=False, compare=False)  # its arc's


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
    # what solve and evaluate used, recorded for readers; not settable per fan
    samples: int = field(default=DEFAULT_SAMPLES, init=False)  # the hull's samples + 1 flux values
    refine_tol: float = field(default=REFINE_TOL, init=False)  # tangency refinement of chord ends
    invert_tol: float = field(default=INVERT_TOL, init=False)  # rarefaction inversion in evaluate


def _lower_hull_indices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Lower hull of the points (xs[i], ys[i]), xs ascending, by the monotone
    chain over the samples the module docstring names.  Where the top two
    vertices are neighbours, the chain's test of the next sample is the top
    vertex's own cross product, same operands and formula, so a run of
    neighbours with cross products > 0 is appended untested.  A streak, or a
    pop back through consecutive vertices, that outlasts _LONG chain steps
    is tested in numpy with the chain's operands and formula.  The result is
    the plain chain's up to vertices collinear within rounding.
    """
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    y0, y1, y2 = ys[:-2], ys[1:-1], ys[2:]
    cross = np.zeros(len(xs))  # the ends are always visited
    cross[1:-1] = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    index = np.flatnonzero(cross >= 0.0)
    gap = np.diff(index) > 1
    # where a run ends that the chain may append untested: a gap on either side, or cross <= 0
    run_end = np.ones(len(index), dtype=bool)
    run_end[:-1] = gap | (cross[index[:-1]] <= 0.0)
    run_end[1:] |= gap
    ends = np.flatnonzero(run_end).tolist()
    X, Y = xs[index], ys[index]
    x, y = memoryview(X), memoryview(Y)  # floats on access, without a list of them all
    hull: list[int] = []
    i = streak = 0
    while i < len(x):
        popped, xi, yi = 0, x[i], y[i]
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            xo, yo = x[o], y[o]
            if (x[a] - xo) * (yi - yo) - (y[a] - yo) * (xi - xo) > 0.0:
                break
            last = hull.pop()
            popped += 1
            if popped == _LONG and len(hull) > 1 and hull[-2] == hull[-1] - 1:
                # test the top block hull[b:] of consecutive vertices in one
                # pass, and cut after the last one that i keeps
                b = bisect_left(range(len(hull)), hull[-1] - len(hull) + 1, key=lambda p: hull[p] - p)
                lo, hi = hull[b] + 1, hull[-1] + 1
                kept = np.flatnonzero((X[lo:hi] - X[lo - 1:hi - 1]) * (yi - Y[lo - 1:hi - 1])
                                      - (Y[lo:hi] - Y[lo - 1:hi - 1]) * (xi - X[lo - 1:hi - 1]) > 0.0)
                del hull[b + 1 + (int(kept[-1]) + 1 if kept.size else 0):]
        streak = streak + 1 if popped == 1 and last == i - 1 else 0
        hull.append(i)
        if streak >= _LONG:
            # each next j pops only j - 1 while cross(o, j - 1, j) <= 0 and
            # cross(o2, o, j) > 0: find the first j where either fails
            o, o2 = hull[-2], hull[-3] if len(hull) > 2 else None
            j, width = i + 1, _LONG
            while j < len(x):
                J, P = slice(j, j + width), slice(j - 1, min(j + width, len(x)) - 1)
                stop = (X[P] - x[o]) * (Y[J] - y[o]) - (Y[P] - y[o]) * (X[J] - x[o]) > 0.0
                if o2 is not None:
                    stop |= (x[o] - x[o2]) * (Y[J] - y[o2]) - (y[o] - y[o2]) * (X[J] - x[o2]) <= 0.0
                if stop.any():
                    j += int(stop.argmax())
                    break
                j, width = j + len(stop), 2 * width
            hull[-1], i = j - 1, j
            continue
        if len(hull) > 1 and hull[-2] == i - 1:
            i = ends[bisect_left(ends, i)]
            hull.extend(range(hull[-1] + 1, i + 1))
        i += 1
    return index[np.fromiter(hull, np.intp, len(hull))]


def envelope(flux, s_left: float, s_right: float):
    """The fan's contiguous ContactArc and Shock pieces from s_left to
    s_right, [] for equal states.  The upper concave envelope of f is the
    lower convex envelope of -f, so the construction runs on sign*f over the
    states in ascending order [a, b], and a descending fan takes its pieces
    in reverse.  A flux sample that is not finite raises DomainError.
    """
    if s_left == s_right:
        return []
    curve = _as_curve(flux)
    sign = 1.0 if s_left < s_right else -1.0
    a, b = min(s_left, s_right), max(s_left, s_right)
    value = lambda t: sign * curve.value(t)
    deriv = lambda t: sign * curve.deriv(t)

    xs = np.linspace(a, b, DEFAULT_SAMPLES + 1)
    ys = np.asarray(value(xs), dtype=float)
    _require_finite(xs, ys, "flux value")
    hull = _lower_hull_indices(xs, ys)
    with np.errstate(divide="ignore", invalid="ignore"):  # [a, b] may hold fewer floats than samples
        slopes = np.diff(ys) / np.diff(xs)  # an arc keeps views of these and of the edges' midpoints
    mids = 0.5 * (xs[:-1] + xs[1:])

    # a chord that never leaves the curve by more than value resolution is
    # contact structure from flat (e.g. underflowed) stretches, not a shock
    dev_tol = 1e-12 * max(1.0, float(np.max(np.abs(ys))))

    # classify hull edges: one whose samples all stay within dev_tol of it
    # (so every edge joining adjacent samples) is contact; runs of contact
    # edges merge into arcs
    gap = np.abs(ys - np.interp(xs, xs[hull], ys[hull]))
    chords = np.flatnonzero(np.maximum.reduceat(gap, hull[:-1]) > dev_tol).tolist()
    x = xs[hull].tolist()
    h = float(xs[1] - xs[0])

    def refine_end(t0: float, slope: float) -> float:
        lo, hi = max(a, t0 - h), min(b, t0 + h)
        g = lambda t: deriv(t) - slope
        g_lo, g_hi = g(lo), g(hi)
        return t0 if g_lo * g_hi > 0.0 else _bisect(g, lo, hi, REFINE_TOL, g_lo, g_hi)

    def refine(lo: float, hi: float) -> tuple[float, float]:
        """The chord's ends interior to [a, b], slid to where f' equals its
        slope, re-derived each of 3 passes."""
        for _ in range(3):
            slope = (value(hi) - value(lo)) / (hi - lo)
            if lo > a:
                lo = refine_end(lo, slope)
            if hi < b:
                hi = refine_end(hi, slope)
        return lo, hi

    pieces = []
    cut = a  # where the next piece starts

    def close(hi: float, chord: bool) -> None:
        nonlocal cut
        if hi > cut:
            ends = (cut, hi) if sign > 0.0 else (hi, cut)
            i, j = xs.searchsorted(cut, "right"), xs.searchsorted(hi)  # the samples strictly inside
            pieces.append(Shock(*ends, sign * float((value(hi) - value(cut)) / (hi - cut)))
                          if chord else ContactArc(*ends, (mids[i:j - 1], slopes[i:j - 1])))
        cut = hi

    # walk the chords, then the end b, cutting by the module docstring's tiling rule
    last = len(x) - 1
    start, end = 0, None  # first edge of the contact run; refined hi of the open chord
    for k in chords + [last]:
        lo, hi = refine(x[k], x[k + 1]) if k < last else (b, b)
        if end is not None:
            close(0.5 * (end + lo) if k == start else end, True)
        if k > start:
            close(lo, False)
        start, end = k + 1, hi
    return pieces if sign > 0.0 else pieces[::-1]


def solve(problem: RiemannProblem) -> WaveFan:
    """Wave fan of the Riemann problem by the envelope construction: each
    contact arc becomes a rarefaction, its end speeds f' at its end states."""
    curve = _as_curve(problem.flux)
    waves: list[Wave] = [
        Rarefaction(p.left_state, p.right_state, curve.deriv(p.left_state), curve.deriv(p.right_state), p.samples)
        if isinstance(p, ContactArc) else p for p in envelope(curve, problem.s_L, problem.s_R)]
    return WaveFan(problem.s_L, problem.s_R, waves, curve)


def _invert(w: Rarefaction, curve, xi: float) -> float:
    """The state where f' = xi inside the rarefaction (module docstring)."""
    (a, da), (b, db) = sorted(((w.left_state, w.speed_lo), (w.right_state, w.speed_hi)))
    if w.samples is not None:
        mids, slopes = w.samples  # slopes of sign*f, ascending with s
        sign = 1.0 if a == w.left_state else -1.0
        j = int(slopes.searchsorted(sign * xi))  # xi lies between nodes j - 1 and j of (a, sign*da), mids, (b, sign*db)
        m0, d0 = (mids.item(j - 1), slopes.item(j - 1)) if j else (a, sign * da)
        m1, d1 = (mids.item(j), slopes.item(j)) if j < len(slopes) else (b, sign * db)
        t = m0 + (sign * xi - d0) / (d1 - d0) * (m1 - m0) if d1 > d0 else m0
        try:
            for _ in range(2):
                df, d2f = curve.deriv(t, 2)
                t -= (df - xi) / d2f
                lo, hi = t - 0.5 * INVERT_TOL, t + 0.5 * INVERT_TOL
                if not a <= lo < hi <= b:  # also where t is NaN
                    break
                g_lo, g_hi = curve.deriv(lo) - xi, curve.deriv(hi) - xi
                if g_lo <= 0.0 <= g_hi or g_hi <= 0.0 <= g_lo:
                    return t
        except (DomainError, ZeroDivisionError):  # a point off f's domain, or f'' = 0
            pass
    # the whole arc, where f' - xi at each end is its end speed minus xi
    return _bisect(lambda t: curve.deriv(t) - xi, a, b, INVERT_TOL, da - xi, db - xi)


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
                return _invert(w, fan.flux, xi)
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
