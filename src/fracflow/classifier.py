"""Membership checks for the admissible mobility class.

A mobility m is admissible when, on (0,1): it is positive with m(0) = 0
(c1), strictly increasing with m'(0) = 0 (c2), strictly convex (c3), and
m''/m' is decreasing (c4).  The starred variant c4star additionally asks
for m'/m decreasing.  All checks are grid-based sign tests on exact jet
values, so a verdict means "holds on the grid", not a proof.  The limits
m(0) = 0 and m'(0) = 0 take one rule, a decay exponent between eps and
64*eps (see DECAY_EXPONENT_MARGIN), and no absolute threshold: like the
paper's conditions, every endpoint verdict is the same for m and c*m (c > 0).

Sign conventions used by the grid tests (valid wherever m, m' > 0):
    c4      <=>  m'''*m' - (m'')^2 < 0
    c4star  <=>  c4  and  m''*m - (m')^2 < 0
Testing the numerators avoids evaluating the ratios near the s -> 0
blow-up of m''/m'.

Values smaller than ZERO_TOL in magnitude are recorded as indeterminate
witnesses instead of pass/fail evidence: exact zeros occur both at
symmetry points and where very small mobilities underflow (for example the
exponential preset near s = 0).  ZERO_TOL is the grid tests' one threshold.
One reduction decides a condition whose samples all pass by at least
ZERO_TOL; only a failing or undecided one builds masks, for its witnesses.
Likewise a finite sum shows every value of an array finite, and only a sum
that is not (or overflows) runs the scan for the first non-finite value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .jet import DomainError, point
from .models import ModelExpr

ZERO_TOL = 1e-13
# The least decay exponent log(v(64*eps)/v(eps))/log(64) of a positive value v
# of m (c1) or m' (c2) at eps that counts as v -> 0 at s = 0 (check_conditions).
# A ratio of two values, it is the same for m and c*m (c > 0); slower decay, as
# of the slope of s^1.0005, is unresolvable at eps.
DECAY_EXPONENT_MARGIN = 1e-3
_MAX_WITNESSES = 4


@dataclass(frozen=True)
class Witness:
    """A grid point where a condition failed (or was too close to call)."""

    condition: str
    s: float
    value: float
    kind: str = "fail"  # "fail" | "indeterminate"


@dataclass
class ConditionReport:
    c1: str
    c2: str
    c3: str
    c4: str
    c4star: str
    in_class_M: bool
    witnesses: list[Witness]
    criterion_T3: float
    grid_n: int = 0
    eps: float = 0.0


def _classify(name: str, s: np.ndarray, values: np.ndarray, want_positive: bool):
    """Grid sign test; returns (verdict, witnesses)."""
    least = values.min() if want_positive else -values.max()
    if least >= ZERO_TOL:  # every sample decided and passing
        return "pass", []
    signed = values if want_positive else -values
    witnesses: list[Witness] = []
    if least <= -ZERO_TOL:
        worst = int(np.argmin(signed))
        idx = list(np.flatnonzero(signed <= -ZERO_TOL)[: _MAX_WITNESSES - 1])
        if worst not in idx:
            idx.append(worst)
        for i in idx:
            witnesses.append(Witness(name, float(s[i]), float(values[i])))
    indet = np.abs(values) < ZERO_TOL if least <= -ZERO_TOL else signed < ZERO_TOL
    for i in np.flatnonzero(indet)[:_MAX_WITNESSES]:
        witnesses.append(Witness(name, float(s[i]), float(values[i]), kind="indeterminate"))
    return ("fail" if least <= -ZERO_TOL else "pass"), witnesses


# numerator of the ratio's derivative, and the ratio's denominator
_RATIOS = {
    "m2/m": (lambda j: j.f3 * j.f0 - j.f2 * j.f1, lambda j: j.f0),   # (m''/m)'
    "m2/m1": (lambda j: j.f3 * j.f1 - j.f2 ** 2, lambda j: j.f1),    # (m''/m')'
    "m1/m": (lambda j: j.f2 * j.f0 - j.f1 ** 2, lambda j: j.f0),     # (m'/m)'
}


def check_conditions(m: ModelExpr, grid_n: int = 4096, eps: float = 1e-6) -> ConditionReport:
    """Evaluate the admissibility conditions of m on a clipped uniform grid.

    The grid is s_i = eps + i*(1-2*eps)/(grid_n-1).  The endpoint limits
    m(0) = 0 (c1) and m'(0) = 0 (c2) share one rule: the value v of m or m'
    at eps passes when it is not positive or when it decays toward 0 with
    exponent log(v(64*eps)/v(eps))/log(64) of at least DECAY_EXPONENT_MARGIN,
    and otherwise fails with a witness at eps.  The rule compares two values
    of one component, so m and c*m (c > 0) get the same endpoint verdicts.
    A condition value that is not finite raises DomainError at the first
    grid point where one is not finite.
    """
    s = clipped_grid(grid_n, eps)
    j = m.eval_jet(s)

    conditions = (
        ("c1", j.f0, True),
        ("c2", j.f1, True),
        ("c3", j.f2, True),
        ("c4", _RATIOS["m2/m1"][0](j), False),
        ("c4star_extra", _RATIOS["m1/m"][0](j), False),
    )
    # an overflowed value decides nothing: fail at the first grid point where
    # a condition value is not finite; a finite sum shows that none is
    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow
        total = sum(np.add.reduce(values) for _, values, _ in conditions)
    if not math.isfinite(total):
        finite = np.isfinite([values for _, values, _ in conditions])
        if not finite.all():
            name, values, _ = conditions[int(finite[:, finite.all(axis=0).argmin()].argmin())]
            _require_finite(s, values, f"{name} value")
    verdicts: dict[str, str] = {}
    witnesses: list[Witness] = []
    for name, values, want_positive in conditions:
        verdict, wit = _classify(name, s, np.asarray(values, dtype=float), want_positive)
        verdicts[name] = verdict
        witnesses.extend(wit)

    far = None  # the jet at 64*eps, evaluated once if an endpoint limit needs it
    for k, (name, values, _) in enumerate(conditions[:2]):
        v = float(values[0])
        if verdicts[name] == "pass" and v > 0.0:
            far = far or m.taylor(64.0 * eps)
            if not far[k] / v >= 64.0 ** DECAY_EXPONENT_MARGIN:
                verdicts[name] = "fail"
                witnesses.append(Witness(name, float(s[0]), v))

    c4star = "pass" if verdicts["c4"] == "pass" and verdicts["c4star_extra"] == "pass" else "fail"
    in_class = all(verdicts[c] == "pass" for c in ("c1", "c2", "c3", "c4"))
    try:
        t3 = criterion_T3(m)
    except DomainError:
        t3 = math.nan
    return ConditionReport(
        c1=verdicts["c1"],
        c2=verdicts["c2"],
        c3=verdicts["c3"],
        c4=verdicts["c4"],
        c4star=c4star,
        in_class_M=in_class,
        witnesses=witnesses,
        criterion_T3=t3,
        grid_n=grid_n,
        eps=eps,
    )


def criterion_T3(m: ModelExpr) -> float:
    """Value of (m''/m^3)' at s = 0.5, i.e. (m'''*m - 3*m''*m')/m^4.

    For a symmetric pair m_a = m_b satisfying c1-c3, a positive value means
    the flux has an inflection of the wrong orientation at 0.5 and hence is
    not S-shaped.
    """
    j = m.eval_jet(0.5)
    if j.f0 == 0.0:
        raise DomainError("criterion undefined: m(0.5) = 0")
    # divided through by m(0.5) term by term, so no m^4 underflows to a zero divisor
    return float((j.f3 / j.f0 - 3.0 * (j.f2 / j.f0) * (j.f1 / j.f0)) / j.f0 / j.f0)


def monotonicity_change_of_ratio(
    m: ModelExpr, which: str, grid_n: int = 4096, eps: float = 1e-6, tol: float = 1e-10
) -> list[float]:
    """Locations where the named derivative ratio changes monotonicity.

    which is one of "m2/m" (m''/m), "m2/m1" (m''/m'), "m1/m" (m'/m).  Sign
    changes of the ratio's derivative are bracketed on the clipped grid and
    refined to an interval below tol.  Returns an empty list when the ratio
    is monotone on the grid.
    """
    if which not in _RATIOS:
        raise ValueError(f"which must be one of {sorted(_RATIOS)}, got {which!r}")
    numerator, denominator = _RATIOS[which]
    s = clipped_grid(grid_n, eps)
    j = m.eval_jet(s)
    if not np.all(np.asarray(denominator(j), dtype=float) > 0.0):
        raise ValueError(f"ratio {which} denominator is not positive on the clipped grid")
    g = np.asarray(numerator(j), dtype=float)

    func = lambda t: float(numerator(m.eval_jet(t)))
    return [root for root, _ in sign_changes(s, g, func, tol)]


def clipped_grid(grid_n: int, eps: float, min_n: int = 100) -> np.ndarray:
    """The uniform grid of grid_n points on [eps, 1 - eps]; a grid_n below
    min_n or an eps outside (0, 1e-3) raises ValueError."""
    if grid_n < min_n:
        raise ValueError(f"grid_n must be >= {min_n}, got {grid_n}")
    if not 0.0 < eps < 1e-3:
        raise ValueError(f"eps must be in (0, 1e-3), got {eps}")
    return np.linspace(eps, 1.0 - eps, grid_n)


def sign_changes(s, values, func, tol):
    """Bracket every transversal sign change of sampled values and refine.

    func is the scalar evaluator used by the refinement.  Returns a list of
    (root, direction) with direction "-+" or "+-".  Runs of near-zero
    samples are skipped over: a sign change across such a run is still one
    transversal crossing, a same-sign run is not a crossing at all.  A tol
    that is not positive raises ValueError, a non-finite sample DomainError.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _require_finite(s, values, "sample")
    pos = values > ZERO_TOL
    decided = pos | (values < -ZERO_TOL)
    # neighbouring decided samples of opposite sign bracket a crossing
    nz = None if decided.all() else np.flatnonzero(decided)
    sides = pos if nz is None else pos[nz]
    k = np.flatnonzero(sides[:-1] != sides[1:])
    lo, hi = (k, k + 1) if nz is None else (nz[k], nz[k + 1])
    out = []
    for i, jdx in zip(lo, hi):
        root = _bisect_sign_change(func, float(s[i]), float(s[jdx]), tol,
                                   float(values[i]), float(values[jdx]))
        out.append((root, "+-" if pos[i] else "-+"))
    return out


def _require_finite(s, values, what: str) -> None:
    """Raise DomainError at the first non-finite entry of values sampled at s."""
    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow
        finite = math.isfinite(np.add.reduce(values, axis=None))
    bad = [] if finite else np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise DomainError(f"non-finite {what} at {point(s, int(bad[0]))}", int(bad[0]))


def _bisect_sign_change(func, lo, hi, tol, f_lo, f_hi):
    """Refine a sign change of func on [lo, hi] to a bracket below tol and
    return its midpoint, or a point where func is exactly zero.

    f_lo and f_hi are func(lo) and func(hi); an end where that value is
    exactly zero is returned.  One loop narrows the bracket.  While the end
    values have strict opposite signs, the first ceil(log2((hi-lo)/tol))
    steps are Illinois regula falsi: the end kept twice in a row has its
    value halved, and a step that would land within tol/2 of an end probes
    at tol/2 from it instead, which closes the bracket when the root lies
    that close (Dekker's safeguard).  Every later step, and every step when
    the end values do not confirm a sign change, bisects, so no input costs
    more than about twice bisection.  The loop also ends when no float lies
    strictly between lo and hi, so a tol below the float spacing returns an
    end of two neighbouring floats.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    strict = hi - lo > tol and (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo)
    steps = math.ceil(math.log2(min((hi - lo) / tol, sys.float_info.max))) if strict else 0
    half = 0.5 * tol
    kept = 0  # end kept by the last Illinois step: -1 for lo, 1 for hi
    while hi - lo > tol and math.nextafter(lo, hi) < hi:
        steps -= 1
        if steps < 0:
            t, kept = 0.5 * (lo + hi), 0  # bisection halves no end value
        else:
            # a NaN step (from a NaN value) lands at lo + tol/2
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
    return 0.5 * (lo + hi)


def report_to_text(report: ConditionReport) -> str:
    """Structured key: value lines."""
    lines = [
        f"c1: {report.c1}",
        f"c2: {report.c2}",
        f"c3: {report.c3}",
        f"c4: {report.c4}",
        f"c4star: {report.c4star}",
        f"in_class_M: {str(report.in_class_M).lower()}",
        f"criterion_T3: {report.criterion_T3!r}",
        f"grid_n: {report.grid_n}",
        f"eps: {report.eps!r}",
    ]
    for w in report.witnesses:
        lines.append(f"witness: {w.condition} s={w.s!r} value={w.value!r} kind={w.kind}")
    return "\n".join(lines)
