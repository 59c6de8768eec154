"""The mask-based grid sign decisions that `classifier` replaced with
reductions, kept as a test-only reference, and a drawn-array generator.

The reference builds every mask on every call: `_classify`'s fail and
indeterminate masks, `sign_changes`' int sign array, `_require_finite`'s
first-index scan and `check_conditions`' stacked (5, n) finiteness rule
("first grid point, then first condition").  The reductions must give the
same verdicts, witnesses, solver brackets and errors.  Run as a script,

    PYTHONPATH=src python tests/sign_reference.py [n_random]

it checks that on every check_sweep and analyze_sweep pool entry's grid
arrays of perfbench/ and on n_random drawn arrays (default 20000, in groups
of five condition arrays of one length), and exits 1 on the first few
mismatches it prints.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from fracflow import classifier
from fracflow.classifier import ZERO_TOL, Witness
from fracflow.jet import DomainError, Jet3, point

CONDITIONS = (("c1", True), ("c2", True), ("c3", True), ("c4", False), ("c4star_extra", False))


def mask_classify(name, s, values, want_positive):
    """Grid sign test; returns (verdict, witnesses)."""
    signed = values if want_positive else -values
    fail = signed <= -ZERO_TOL
    indet = np.abs(values) < ZERO_TOL
    witnesses = []
    if np.any(fail):
        worst = int(np.argmin(signed))
        idx = list(np.flatnonzero(fail)[: classifier._MAX_WITNESSES - 1])
        if worst not in idx:
            idx.append(worst)
        for i in idx:
            witnesses.append(Witness(name, float(s[i]), float(values[i])))
    for i in np.flatnonzero(indet)[: classifier._MAX_WITNESSES]:
        witnesses.append(Witness(name, float(s[i]), float(values[i]), kind="indeterminate"))
    verdict = "fail" if np.any(fail) else "pass"
    return verdict, witnesses


def mask_require_finite(s, values, what):
    """Raise DomainError at the first non-finite entry of values sampled at s."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"non-finite {what} at {point(s, int(bad[0]))}", int(bad[0]))


def mask_sign_changes(s, values, func, tol, solver):
    """sign_changes with an int sign array, refining each bracket with solver."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    mask_require_finite(s, values, "sample")
    sgn = np.zeros(len(values), dtype=int)
    sgn[values > ZERO_TOL] = 1
    sgn[values < -ZERO_TOL] = -1
    out = []
    nz = np.flatnonzero(sgn)
    for k in np.flatnonzero(sgn[nz[:-1]] != sgn[nz[1:]]):
        i, jdx = nz[k], nz[k + 1]
        root = solver(func, float(s[i]), float(s[jdx]), tol, float(values[i]), float(values[jdx]))
        out.append((root, "-+" if sgn[i] < 0 else "+-"))
    return out


def mask_decisions(s, arrays):
    """check_conditions' stacked finiteness rule, then the five grid sign
    tests: {condition: (verdict, witnesses)}."""
    conditions = [(name, values, want) for (name, want), values in zip(CONDITIONS, arrays)]
    finite = np.isfinite([values for _, values, _ in conditions])
    if not finite.all():
        name, values, _ = conditions[int(finite[:, finite.all(axis=0).argmin()].argmin())]
        mask_require_finite(s, values, f"{name} value")
    return {name: mask_classify(name, s, np.asarray(values, dtype=float), want) for name, values, want in conditions}


# -- the code under test, run so that its output compares with the reference


class GridModel:
    """A stand-in mobility whose five condition arrays on the check grid are
    given.  Its grid jet carries c4's and c4star's numerators as extra fields,
    which given_conditions has check_conditions read; its scalar jets are
    finite and its value at 64*eps infinite, so the endpoint rule and
    criterion_T3 change no verdict and add no witness."""

    def __init__(self, arrays):
        self.arrays = arrays

    def eval_jet(self, s):
        if np.ndim(s) == 0:
            return Jet3(1.0, 1.0, 1.0, 1.0)
        c1, c2, c3, c4, c4star_extra = self.arrays
        return SimpleNamespace(f0=c1, f1=c2, f2=c3, c4=c4, c4star_extra=c4star_extra)

    def taylor(self, s, order=3):
        return (math.inf,) * (order + 1)


@contextmanager
def given_conditions():
    """check_conditions reads c4 and c4star's numerators off a GridModel jet."""
    ratios = classifier._RATIOS
    classifier._RATIOS = {"m2/m1": (lambda j: j.c4, None), "m1/m": (lambda j: j.c4star_extra, None)}
    try:
        yield
    finally:
        classifier._RATIOS = ratios


def _outcome(fn, *args):
    """fn's result, or its exception as (type, message, index)."""
    try:
        return fn(*args)
    except (DomainError, ValueError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "index", None))


def check_trace(arrays):
    """(reference, change) outcomes of check_conditions' sign stage on five
    condition arrays of one length n >= 100, on the grid clipped_grid(n, 1e-6):
    {condition: (verdict, witnesses)} with c4star's verdict, or the error."""
    n = len(arrays[0])
    s = classifier.clipped_grid(n, 1e-6)

    def reference():
        d = mask_decisions(s, arrays)
        witnesses = [w for verdict, wit in d.values() for w in wit]
        c4star = "pass" if d["c4"][0] == d["c4star_extra"][0] == "pass" else "fail"
        return [d[c][0] for c in ("c1", "c2", "c3", "c4")] + [c4star], witnesses

    def change():
        with given_conditions():
            r = classifier.check_conditions(GridModel(arrays), grid_n=n, eps=1e-6)
        return [r.c1, r.c2, r.c3, r.c4, r.c4star], r.witnesses

    return repr(_outcome(reference)), repr(_outcome(change))


def classify_trace(s, values, want_positive):
    """(reference, change) reprs of one grid sign test."""
    return (repr(mask_classify("c", s, values, want_positive)),
            repr(classifier._classify("c", s, values, want_positive)))


def finite_trace(s, values):
    """(reference, change) reprs of the finiteness test of sampled values."""
    return (repr(_outcome(mask_require_finite, s, values, "sample")),
            repr(_outcome(classifier._require_finite, s, values, "sample")))


def scan_trace(s, values, tol=1e-12):
    """(reference, change) reprs of a sign scan: the (lo, hi, f_lo, f_hi) of
    each bracket handed to the solver, in order, and the result or error.  The
    solver stand-in returns the bracket's midpoint without evaluating func."""
    def run(scan):
        calls = []

        def solver(func, lo, hi, tol, f_lo, f_hi):
            calls.append((lo, hi, f_lo, f_hi))
            return 0.5 * (lo + hi)
        return repr((calls, _outcome(scan, solver)))

    def change(solver):
        saved, classifier._bisect_sign_change = classifier._bisect_sign_change, solver
        try:
            return classifier.sign_changes(s, values, math.sin, tol)
        finally:
            classifier._bisect_sign_change = saved

    return run(lambda solver: mask_sign_changes(s, values, math.sin, tol, solver)), run(change)


def array_traces(s, values):
    """Every single-array comparison of sampled values: the finiteness test,
    the sign scan and, without NaN, both grid sign tests."""
    traces = [("finite", finite_trace(s, values)), ("scan", scan_trace(s, values))]
    if values.size and not np.isnan(values).any():
        traces += [(f"classify {want}", classify_trace(s, values, want)) for want in (True, False)]
    return traces


# -- drawn arrays

# samples with |value| <= ZERO_TOL, which decide nothing, and with them the
# decided samples next to ZERO_TOL and at +-1
UNDECIDED = [ZERO_TOL, -ZERO_TOL, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
             math.nextafter(ZERO_TOL, 0.0), -math.nextafter(ZERO_TOL, 0.0)]
EDGES = UNDECIDED + [math.nextafter(ZERO_TOL, 1.0), -math.nextafter(ZERO_TOL, 1.0), 1.0, -1.0]
DRAW_KINDS = ("edges", "undecided runs", "all undecided", "non-finite", "overflowing sum")


def draw_values(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """n sampled values of the given kind:
    - "edges": values at exactly +-ZERO_TOL, +-0.0, subnormals and their
      neighbours, mixed with decided values;
    - "undecided runs": decided values with runs of undecided ones at the
      start, the middle and the end;
    - "all undecided": every |value| below ZERO_TOL or equal to it;
    - "non-finite": decided or edge values with one NaN or +-inf anywhere;
    - "overflowing sum": finite values whose sum overflows, like [1e308] * 4."""
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-14.0, 3.0, n)
    if kind in ("edges", "non-finite"):
        pick = rng.random(n) < rng.random()
        values[pick] = rng.choice(EDGES, int(pick.sum()))
    elif kind == "undecided runs":
        for where in ("start", "middle", "end"):
            if rng.random() < 0.6:
                width = int(rng.integers(1, max(2, n // 3)))
                lo = {"start": 0, "end": n - width}.get(where, int(rng.integers(0, n)))
                values[lo:lo + width] = rng.choice(UNDECIDED, len(values[lo:lo + width]))
    elif kind == "all undecided":
        values = rng.choice(UNDECIDED, n) * rng.choice([1.0, 0.5, 1e-3], n)
    elif kind == "overflowing sum":
        values = rng.choice([1e308, -1e308, 1.5e308, 1.0, -1.0, ZERO_TOL], n)
        values[rng.integers(0, n)] = rng.choice([1e308, -1e308])
        values[rng.integers(0, n)] = rng.choice([1e308, -1e308])
    if kind == "non-finite":
        values[rng.integers(0, n)] = rng.choice([math.nan, math.inf, -math.inf])
    return values


def _check_pool_conditions():
    """The five condition arrays of every check_sweep pool entry's mobility
    on the check grid."""
    import workloads

    s = classifier.clipped_grid(4096, 1e-6)
    for entries in workloads.load_pool("check_sweep")["strata"].values():
        for entry in entries:
            m = workloads.parse_input("check_sweep", entry["input"])
            with np.errstate(all="ignore"):
                j = m.eval_jet(s)
                yield (j.f0, j.f1, j.f2, classifier._RATIOS["m2/m1"][0](j), classifier._RATIOS["m1/m"][0](j))


def _analyze_pool_scans():
    """(s, values) of every sign scan of every analyze_sweep pool entry."""
    import workloads
    from fracflow import flux

    scanned = []
    scan = flux.sign_changes
    flux.sign_changes = lambda s, values, func, tol: scanned.append((s, values)) or scan(s, values, func, tol)
    try:
        for stratum, entries in workloads.load_pool("analyze_sweep")["strata"].items():
            for entry in entries:
                inp = workloads.Input(stratum, stratum, entry["input"], entry["golden"],
                                      workloads.parse_input("analyze_sweep", entry["input"]))
                workloads.quiet(workloads.op, "analyze_sweep", inp)
                yield from scanned
                scanned.clear()
    finally:
        flux.sign_changes = scan


def _main(n_random: int) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    mismatches, counts = [], {}

    def compare(where, what, trace):
        counts[where] = counts.get(where, 0) + 1
        if trace[0] != trace[1]:
            mismatches.append((where, what, trace[0][:300], trace[1][:300]))

    def compare_all(where, s, arrays):
        if len(arrays[0]) >= 100:
            compare(where, "check_conditions", check_trace(arrays))
        for values in arrays:
            for what, trace in array_traces(s, values):
                compare(where, what, trace)

    for arrays in _check_pool_conditions():
        compare_all("check_sweep", classifier.clipped_grid(4096, 1e-6), arrays)
    for s, values in _analyze_pool_scans():
        for what, trace in array_traces(s, np.asarray(values, dtype=float)):
            compare("analyze_sweep", what, trace)
    for workload in ("check_sweep", "analyze_sweep"):
        print(f"{workload}: {counts.get(workload, 0)} comparisons")

    rng = np.random.default_rng(0)
    groups = -(-n_random // len(CONDITIONS))
    for _ in range(groups):
        n = int(rng.choice([rng.integers(1, 9), rng.integers(100, 160)]))
        arrays = tuple(draw_values(rng, DRAW_KINDS[int(rng.integers(len(DRAW_KINDS)))], n) for _ in CONDITIONS)
        compare_all("random", np.linspace(0.0, 1.0, n), arrays)
    print(f"random: {groups * len(CONDITIONS)} arrays, {counts.get('random', 0)} comparisons")
    for m in mismatches[:5]:
        print("MISMATCH", m)
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(_main(int(sys.argv[1]) if len(sys.argv) > 1 else 20000))
