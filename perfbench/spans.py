"""Run-time tracing of fracflow's layers from outside the package.

``Tracer.install()`` replaces each traced function at the place its caller
looks it up (module attribute or class method) with a wrapper that records a
span (name, start, end, parent) or bumps a counter, and ``uninstall()`` puts
the originals back.  Spans stay in memory in compact arrays and are
aggregated (calls, inclusive and self time per name) or written out when
the run ends.  Self time is a span's duration minus the durations of its
direct children; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from fracflow import classifier, flux, jet, models, riemann

# jet arithmetic rules counted as jet.ops (counters only: they are too
# frequent and too short for a span each)
JET_RULES = ("seed", "constant", "add", "sub", "neg", "mul", "div", "pow_const", "exp_jet", "reflect")
# flux binds these jet rules by name at import time
FLUX_JET_RULES = ("add", "div", "reflect")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._depth = Counter()   # nesting depth of envelope / evaluate
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, sid: int, fn, *args, **kwargs):
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn):
        sid = self.sid(name)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(sid, fn, *args, **kwargs)
        return wrapper

    def counted(self, key: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owners, attr: str, make):
        original = getattr(owners[0], attr)
        wrapper = make(original)
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            return
        c = self.counters
        depth = self._depth
        call = self.call

        for rule in JET_RULES:
            self._patch([jet], rule, lambda fn: self.counted("jet.ops", fn))
        for rule in FLUX_JET_RULES:
            self._patch([flux], rule, lambda fn: self.counted("jet.ops", fn))

        def by_shape(scalar: str, arr: str):
            sid_s, sid_a = self.sid(scalar), self.sid(arr)

            def make(fn):
                def wrapper(obj, s, *args, **kwargs):
                    return call(sid_a if isinstance(s, np.ndarray) else sid_s, fn, obj, s, *args, **kwargs)
                return wrapper
            return make

        self._patch([models.ModelExpr], "eval_jet", by_shape("models.eval_jet_scalar", "models.eval_jet_array"))
        self._patch([models.ModelExpr], "eval", lambda fn: self.spanned("models.eval", fn))
        self._patch([models], "parse", lambda fn: self.spanned("models.parse", fn))

        self._patch([classifier], "check_conditions", lambda fn: self.spanned("classifier.check_conditions", fn))
        self._patch([classifier, flux], "sign_changes", lambda fn: self.spanned("classifier.sign_changes", fn))

        bisect_sid = self.sid("classifier._bisect_sign_change")

        def make_bisect(fn):
            def wrapper(func, *args, **kwargs):
                c["classifier.brackets"] += 1

                def counted_func(t):
                    c["classifier.bisect_evals"] += 1
                    return func(t)
                return call(bisect_sid, fn, counted_func, *args, **kwargs)
            return wrapper
        self._patch([classifier], "_bisect_sign_change", make_bisect)

        self._patch([flux, riemann], "f_jet", by_shape("flux.f_jet_scalar", "flux.f_jet_array"))
        self._patch([flux, riemann], "f_value", lambda fn: self.counted("flux.f_value_calls", fn))
        for name in ("inflection_points", "find_s1", "find_s2"):
            self._patch([flux], name, lambda fn, n=name: self.spanned(f"flux.{n}", fn))

        self._patch([riemann], "solve", lambda fn: self.spanned("riemann.solve", fn))
        env_sid = self.sid("riemann.envelope")

        def make_envelope(fn):
            def wrapper(*args, **kwargs):
                depth["envelope"] += 1
                try:
                    pieces = call(env_sid, fn, *args, **kwargs)
                finally:
                    depth["envelope"] -= 1
                if not depth["envelope"]:
                    c["riemann.pieces"] += len(pieces)
                return pieces
            return wrapper
        self._patch([riemann], "envelope", make_envelope)

        hull_sid = self.sid("riemann._lower_hull_indices")

        def make_hull(fn):
            def wrapper(xs, ys, *args, **kwargs):
                hull = call(hull_sid, fn, xs, ys, *args, **kwargs)
                c["riemann.hull_points"] += len(xs)
                c["riemann.hull_vertices"] += len(hull)
                return hull
            return wrapper
        self._patch([riemann], "_lower_hull_indices", make_hull)
        self._patch([riemann], "_bisect", lambda fn: self.spanned("riemann._bisect", fn))

        eval_sid = self.sid("riemann.evaluate")

        def make_evaluate(fn):
            def wrapper(*args, **kwargs):
                depth["evaluate"] += 1
                try:
                    return call(eval_sid, fn, *args, **kwargs)
                finally:
                    depth["evaluate"] -= 1
            return wrapper
        self._patch([riemann], "evaluate", make_evaluate)

        def make_deriv(fn):
            def wrapper(curve, *args, **kwargs):
                if depth["evaluate"]:
                    c["riemann.invert_evals"] += 1
                elif depth["envelope"]:
                    c["riemann.refine_evals"] += 1
                return fn(curve, *args, **kwargs)
            return wrapper
        self._patch([riemann.PairFlux], "deriv", make_deriv)
        self._patch([riemann.ExprFlux], "deriv", make_deriv)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation -----------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to aggregate from: span index and a copy of the counters."""
        return len(self.start), Counter(self.counters)

    def aggregate(self, since: tuple[int, Counter], until: tuple[int, Counter] | None = None) -> dict:
        """Calls, inclusive and self seconds per span name, and counter
        increments, for everything recorded between two marks (the second
        defaults to now)."""
        lo, counters0 = since
        hi, counters1 = until or self.mark()
        names = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy()
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        inside = parent >= lo
        child = np.bincount(parent[inside] - lo, weights=dur[inside], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        # envelope recurses once for concave envelopes; count the outer call only
        env = self._ids.get("riemann.envelope", -1)
        outer = names == env
        outer[inside] &= names[parent[inside] - lo] != env
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names) if calls[i]},
            "incl": {n: float(incl[i]) for i, n in enumerate(self.names) if calls[i]},
            "self": {n: float(self_s[i]) for i, n in enumerate(self.names) if calls[i]},
            "envelope_outer_s": float(dur[outer].sum()),
            "counters": dict(counters1 - counters0),
        }

    def write(self, path) -> None:
        """All spans as compressed arrays: names (table), name id, parent, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def merge(aggs: list[dict]) -> dict:
    """Sum aggregates (of several processes or passes)."""
    out = {"calls": Counter(), "incl": Counter(), "self": Counter(), "envelope_outer_s": 0.0, "counters": Counter()}
    for a in aggs:
        for key in ("calls", "incl", "self", "counters"):
            out[key].update(a[key])
        out["envelope_outer_s"] += a["envelope_outer_s"]
    return out


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "models.eval_jet_scalar_calls": "count",
    "models.eval_jet_scalar_us": "us",
    "models.eval_jet_array_calls": "count",
    "models.eval_jet_array_us": "us",
    "models.eval_calls": "count",
    "models.eval_us": "us",
    "models.parse_us": "us",
    "jet.ops": "count",
    "jet.ops_per_eval": "ratio",
    "classifier.sign_changes_calls": "count",
    "classifier.brackets": "count",
    "classifier.bisect_evals": "count",
    "classifier.bisect_evals_per_bracket": "ratio",
    "classifier.sign_changes_self_s": "s",
    "classifier.check_conditions_self_s": "s",
    "flux.inflection_points_self_s": "s",
    "flux.find_s1_s": "s",
    "flux.find_s2_s": "s",
    "flux.f_jet_scalar_calls": "count",
    "flux.f_jet_array_calls": "count",
    "flux.f_value_calls": "count",
    "flux.multi_root_warnings": "count",
    "riemann.solve_s": "s",
    "riemann.envelope_s": "s",
    "riemann.hull_s": "s",
    "riemann.hull_points": "count",
    "riemann.hull_vertices": "count",
    "riemann.refine_evals": "count",
    "riemann.pieces": "count",
    "riemann.evaluate_calls": "count",
    "riemann.evaluate_s": "s",
    "riemann.invert_evals": "count",
    "riemann.invert_evals_per_xi": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.output_bytes": "bytes",
    "bench.traced_ops_per_s": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: dict, times: dict, passes: float, parse: dict, extra: dict) -> dict:
    """Per-layer metrics: counts from one pass over the inputs (`counts`, so
    they repeat exactly for a seed), times in seconds per pass from `times`,
    which covers `passes` passes (a fraction when the last pass was cut), the
    mean parse time from the set-up (`parse`), and the values in `extra`
    measured by the runner."""
    calls = counts["calls"]
    ctr = counts["counters"]

    def per_call_us(agg, name):
        return 1e6 * _ratio(agg["incl"].get(name, 0.0), agg["calls"].get(name, 0))

    def per_pass(key, name):
        return times[key].get(name, 0.0) / passes

    evals = calls.get("models.eval_jet_scalar", 0) + calls.get("models.eval_jet_array", 0)
    m = {
        "models.eval_jet_scalar_calls": calls.get("models.eval_jet_scalar", 0),
        "models.eval_jet_scalar_us": per_call_us(times, "models.eval_jet_scalar"),
        "models.eval_jet_array_calls": calls.get("models.eval_jet_array", 0),
        "models.eval_jet_array_us": per_call_us(times, "models.eval_jet_array"),
        "models.eval_calls": calls.get("models.eval", 0),
        "models.eval_us": per_call_us(times, "models.eval"),
        "models.parse_us": per_call_us(parse, "models.parse"),
        "jet.ops": ctr.get("jet.ops", 0),
        "jet.ops_per_eval": _ratio(ctr.get("jet.ops", 0), evals),
        "classifier.sign_changes_calls": calls.get("classifier.sign_changes", 0),
        "classifier.brackets": ctr.get("classifier.brackets", 0),
        "classifier.bisect_evals": ctr.get("classifier.bisect_evals", 0),
        "classifier.bisect_evals_per_bracket": _ratio(
            ctr.get("classifier.bisect_evals", 0), ctr.get("classifier.brackets", 0)),
        "classifier.sign_changes_self_s": per_pass("self", "classifier.sign_changes"),
        "classifier.check_conditions_self_s": per_pass("self", "classifier.check_conditions"),
        "flux.inflection_points_self_s": per_pass("self", "flux.inflection_points"),
        "flux.find_s1_s": per_pass("incl", "flux.find_s1"),
        "flux.find_s2_s": per_pass("incl", "flux.find_s2"),
        "flux.f_jet_scalar_calls": calls.get("flux.f_jet_scalar", 0),
        "flux.f_jet_array_calls": calls.get("flux.f_jet_array", 0),
        "flux.f_value_calls": ctr.get("flux.f_value_calls", 0),
        "flux.multi_root_warnings": ctr.get("flux.multi_root_warnings", 0),
        "riemann.solve_s": per_pass("incl", "riemann.solve"),
        "riemann.envelope_s": times["envelope_outer_s"] / passes,
        "riemann.hull_s": per_pass("incl", "riemann._lower_hull_indices"),
        "riemann.hull_points": ctr.get("riemann.hull_points", 0),
        "riemann.hull_vertices": ctr.get("riemann.hull_vertices", 0),
        "riemann.refine_evals": ctr.get("riemann.refine_evals", 0),
        "riemann.pieces": ctr.get("riemann.pieces", 0),
        "riemann.evaluate_calls": calls.get("riemann.evaluate", 0),
        "riemann.evaluate_s": per_pass("incl", "riemann.evaluate"),
        "riemann.invert_evals": ctr.get("riemann.invert_evals", 0),
        "riemann.invert_evals_per_xi": _ratio(
            ctr.get("riemann.invert_evals", 0), calls.get("riemann.evaluate", 0)),
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        "cli.output_bytes": 0,
        "bench.traced_ops_per_s": 0.0,
    }
    m.update(extra)
    return {k: {"value": m[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}
