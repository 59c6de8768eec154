"""The four benchmark workloads: inputs, the timed operation, and checks.

Library workloads draw their inputs from committed pools in ``data/``.  Each
pool entry carries the input (expression texts and states) and the golden
summary of its output, captured with ``make_golden.py``.  A run's seed picks a
stratified sample from the pool; the program only ever sees the expression
texts and states.

Library workloads share four functions, each taking the workload name:

    build(workload, seed)        -> list of Input (parsed, ready to run)
    op(workload, inp)            -> the raw result of one timed operation
    summary(workload, result)    -> JSON-able digest, compared with the golden
    check(workload, inp, result) -> failure messages from known answers and
                                    independent oracles (empty when correct)

The cli workload runs a fixed sequence of fresh `python -m fracflow.cli`
processes and compares their exit codes, stdout and files with the golden.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fracflow import classifier, flux, models, riemann
from procs import run_to_end

DATA = Path(__file__).resolve().parent / "data"
PROFILE_XI = 201  # xi samples per riemann_fans profile
GOLDEN_ATOL = {"analyze_sweep": 1e-9, "check_sweep": 1e-9, "riemann_fans": 1e-8, "cli": 1e-9}
GOLDEN_RTOL = 1e-9


@dataclass
class Input:
    key: str          # pool stratum and index, e.g. "counterexample/17"
    stratum: str
    spec: dict        # the pool entry's input fields
    golden: dict
    obj: object       # parsed program input


# ---------------------------------------------------------------------------
# tolerant comparison of JSON-like digests

def close(a, b, atol: float, rtol: float = GOLDEN_RTOL) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y, atol, rtol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], atol, rtol) for k in a)
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
    return a == b


def _num(x):
    """Float for JSON; NaN and inf become strings so digests compare with ==."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


# ---------------------------------------------------------------------------
# pools and per-seed sampling

def load_pool(workload: str) -> dict:
    with open(DATA / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def sample(pool: dict, seed: int) -> list[tuple[str, str, dict]]:
    """Stratified draw of per_run[stratum] entries from each stratum.

    Strata are stored sorted by work, so one entry is drawn from each of
    per_run[stratum] equal slices: every seed gets the same spread of costs.
    The draws are interleaved round-robin across strata, and within a stratum
    in golden-ratio order over the slices, so that any prefix of the list, as
    cut by the deadline, keeps the mix.
    """
    rng = np.random.default_rng(seed)
    picks = {}
    for name, count in pool["per_run"].items():
        entries = pool["strata"][name]
        edges = np.linspace(0, len(entries), count + 1).astype(int)
        chosen = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        order = sorted(range(count), key=lambda k: (k * 0.6180339887498949) % 1.0)
        picks[name] = [(f"{name}/{chosen[k]}", name, entries[chosen[k]]) for k in order]
    out = []
    for k in range(max(len(v) for v in picks.values())):
        for name in pool["per_run"]:
            if k < len(picks[name]):
                out.append(picks[name][k])
    return out


def _pair(spec: dict) -> models.ModelPair:
    m_a = models.parse(spec["m_a"])
    m_b = m_a if spec["m_b"] == spec["m_a"] else models.parse(spec["m_b"])
    return models.ModelPair(m_a, m_b)


def parse_input(workload: str, spec: dict):
    """The program input of a pool entry: a model, a pair or a Riemann problem."""
    if workload == "check_sweep":
        return models.parse(spec["m"])
    if workload == "analyze_sweep":
        return _pair(spec)
    return riemann.RiemannProblem(spec["s_L"], spec["s_R"], _pair(spec))


def build(workload: str, seed: int) -> list[Input]:
    return [Input(key, stratum, entry["input"], entry["golden"], parse_input(workload, entry["input"]))
            for key, stratum, entry in sample(load_pool(workload), seed)]


# ---------------------------------------------------------------------------
# operations

def op(workload: str, inp: Input):
    if workload == "check_sweep":
        return classifier.check_conditions(inp.obj)
    if workload == "analyze_sweep":
        return flux.inflection_points(inp.obj)
    return solve_and_profile(inp.obj)


def profile_xi(fan: riemann.WaveFan, samples: int) -> np.ndarray:
    """xi samples spanning the fan's speeds +-0.5, the rule `fracflow riemann` uses."""
    speeds = []
    for w in fan.waves:
        if isinstance(w, riemann.Shock):
            speeds.append(w.speed)
        else:
            speeds.extend((w.speed_lo, w.speed_hi))
    lo = min(speeds) - 0.5 if speeds else -1.0
    hi = max(speeds) + 0.5 if speeds else 1.0
    return np.linspace(lo, hi, samples)


def solve_and_profile(problem):
    """riemann_fans op: solve, then evaluate at PROFILE_XI points.

    Returns (fan, xi, profile, solve_seconds); the solve time is taken here so
    that solve and profile are timed apart within one op.
    """
    t0 = time.perf_counter()
    fan = riemann.solve(problem)
    t1 = time.perf_counter()
    xi = profile_xi(fan, PROFILE_XI)
    profile = [riemann.evaluate(fan, float(x)) for x in xi]
    return fan, xi, profile, t1 - t0


# ---------------------------------------------------------------------------
# digests compared against the golden outputs

def summary(workload: str, result) -> dict:
    if workload == "check_sweep":
        r = result
        return {
            "verdicts": [r.c1, r.c2, r.c3, r.c4, r.c4star, r.in_class_M],
            "criterion_T3": _num(r.criterion_T3),
            "witnesses": witness_digest(r.witnesses),
        }
    if workload == "analyze_sweep":
        a = result
        return {
            "inflections": [[i.s, i.direction] for i in a.inflections],
            "s1": _num(a.s1),
            "s2": _num(a.s2),
            "s_shaped": a.s_shaped,
            "f3_at_half": _num(a.f3_at_half),
            "tangency_warnings": len(a.tangency_warnings),
        }
    fan, xi, profile, _ = result
    waves = []
    for w in fan.waves:
        if isinstance(w, riemann.Shock):
            waves.append(["shock", w.left_state, w.right_state, w.speed])
        else:
            waves.append(["rarefaction", w.left_state, w.right_state, w.speed_lo, w.speed_hi])
    return {"waves": waves, "n_invert": n_invert(fan, xi), "profile_sum": float(np.sum(profile))}


def witness_digest(witnesses) -> dict:
    """Per condition and kind: how many witnesses, and where the first one is."""
    out = {}
    for w in witnesses:
        key = f"{w.condition}/{w.kind}"
        if key in out:
            out[key][0] += 1
        else:
            out[key] = [1, w.s]
    return out


def n_invert(fan, xi) -> int:
    """xi samples that land inside a rarefaction, i.e. need an inversion."""
    count = 0
    for x in xi:
        for w in fan.waves:
            if isinstance(w, riemann.Shock):
                if x < w.speed:
                    break
            else:
                if x < w.speed_lo:
                    break
                if x <= w.speed_hi:
                    count += 1
                    break
    return count


def golden_mismatch(workload: str, inp: Input, digest: dict) -> list[str]:
    if close(digest, inp.golden, GOLDEN_ATOL[workload]):
        return []
    return [f"{inp.key}: output {json.dumps(digest)} differs from golden {json.dumps(inp.golden)}"]


# ---------------------------------------------------------------------------
# known answers and independent oracles

CE1 = "s^1.1 * exp(s^10)"
CE2 = "s^1.1 * (1 + 15*s^10)"
CE3 = "s^1.1 * (1 + 15*s^30)"
CE_INFLECTIONS = {CE1: 3, CE2: 3, CE3: 5}  # the paper's counterexamples
_ORACLE_STEP = 1e-6   # offset from a reported inflection at which f2_closed is sampled
_RH_TOL = 1e-10
_CLIP = 1e-9


def _f1_closed(pair, s: float) -> float:
    """f' = h/m^2 from the mobility jets, without the jet quotient rule."""
    s = min(max(s, _CLIP), 1.0 - _CLIP)
    ja = pair.m_a.eval_jet(s)
    jb = pair.m_b.eval_jet(1.0 - s)
    h = ja.f1 * jb.f0 + ja.f0 * jb.f1
    return float(h / (ja.f0 + jb.f0) ** 2)


def check(workload: str, inp: Input, result) -> list[str]:
    bad = []
    if workload == "check_sweep":
        r = result
        if inp.stratum == "power" and not (
            (r.c1, r.c2, r.c3, r.c4, r.c4star) == ("pass",) * 5 and r.in_class_M
        ):
            bad.append(f"{inp.key}: power law {inp.spec['m']} must pass c1-c4 and c4star")
        return bad

    if workload == "analyze_sweep":
        a = result
        pair = inp.obj
        n = len(a.inflections)
        text = inp.spec["m_a"]
        if inp.stratum == "known" and n != CE_INFLECTIONS[text]:
            bad.append(f"{inp.key}: {text} has {n} inflections, expected {CE_INFLECTIONS[text]}")
        if inp.stratum.startswith("admissible") and n != 1:
            bad.append(f"{inp.key}: admissible pair has {n} inflections, expected 1")
        for infl in a.inflections:
            before = float(flux.f2_closed(pair, infl.s - _ORACLE_STEP))
            after = float(flux.f2_closed(pair, infl.s + _ORACLE_STEP))
            want = (-1.0, 1.0) if infl.direction == "-+" else (1.0, -1.0)
            if not (before * want[0] > 0.0 and after * want[1] > 0.0):
                bad.append(
                    f"{inp.key}: f2_closed does not change sign {infl.direction} at "
                    f"s={infl.s!r} ({before!r}, {after!r})"
                )
        if pair.m_a == pair.m_b:
            roots = [i.s for i in a.inflections]
            if any(abs(r + q - 1.0) > 1e-9 for r, q in zip(roots, reversed(roots))):
                bad.append(f"{inp.key}: inflections of a symmetric pair are not symmetric about 0.5")
        return bad

    fan, xi, profile, _ = result
    pair = inp.obj.flux
    s_L, s_R = inp.obj.s_L, inp.obj.s_R
    for w in fan.waves:
        if isinstance(w, riemann.Shock):
            jump = w.right_state - w.left_state
            residual = w.speed * jump - (flux.f_value(pair, w.right_state) - flux.f_value(pair, w.left_state))
            if abs(residual) > _RH_TOL:
                bad.append(f"{inp.key}: shock {w} violates Rankine-Hugoniot by {residual!r}")
    prof = np.asarray(profile, dtype=float)
    if prof[0] != s_L or prof[-1] != s_R:
        bad.append(f"{inp.key}: profile ends {prof[0]!r}, {prof[-1]!r} are not the states {s_L}, {s_R}")
    step = np.diff(prof) * np.sign(s_R - s_L)
    if np.any(step < -1e-12):
        bad.append(f"{inp.key}: profile is not monotone between the states")
    # integral of s over [A, B] equals s_R*B - s_L*A - (f(s_R) - f(s_L)); for a
    # monotone profile the trapezoid rule is within h*|s_R - s_L|/2 of it
    A, B = float(xi[0]), float(xi[-1])
    h = (B - A) / (len(xi) - 1)
    trapezoid = h * (prof.sum() - 0.5 * (prof[0] + prof[-1]))
    exact = s_R * B - s_L * A - (flux.f_value(pair, s_R) - flux.f_value(pair, s_L))
    if abs(trapezoid - exact) > 0.5 * h * abs(s_R - s_L) + 1e-9:
        bad.append(f"{inp.key}: profile integral {trapezoid!r} misses the conservation value {exact!r}")
    # inside each rarefaction the state inverts f'(s) = xi
    for x, s in zip(xi, prof):
        for w in fan.waves:
            if isinstance(w, riemann.Rarefaction) and w.speed_lo < x < w.speed_hi:
                lo, hi = sorted((w.left_state, w.right_state))
                d_lo = _f1_closed(pair, max(lo, s - 1e-7)) - x
                d_hi = _f1_closed(pair, min(hi, s + 1e-7)) - x
                if d_lo * d_hi > 0.0 and min(abs(d_lo), abs(d_hi)) > 1e-6:
                    bad.append(f"{inp.key}: profile s={s!r} at xi={x!r} does not invert f'")
                break
    return bad


# ---------------------------------------------------------------------------
# cli workload


def cli_commands(out: Path) -> list[tuple[str, str, list[str]]]:
    """The fixed closed-loop sequence: (name, metric group, argv)."""
    return [
        ("check_s2", "check", ["check", "s^2"]),
        ("check_ce1", "check", ["check", CE1, "--json"]),
        ("analyze_ce3", "analyze",
         ["analyze", CE3, "same", "--csv", str(out / "analyze.csv"), "--svg", str(out / "analyze.svg")]),
        ("figures", "figures", ["figures", "--out", str(out / "figs"), "--svg"]),
        ("riemann", "riemann",
         ["riemann", "s^4", "s^2*(1-(1-s)^2)", "1", "0", "--profile", str(out / "profile.csv")]),
    ]


CLI_TIMEOUT_S = 120
CLI_EXIT = {"check_s2": 0, "check_ce1": 1, "analyze_ce3": 0, "figures": 0, "riemann": 0}
CLI_FILES = {
    "analyze_ce3": ["analyze.csv", "analyze.svg"],
    "figures": [f"figs/counterexample-{k}_{c}.{ext}" for k in (1, 2, 3) for c in ("f", "f2")
                for ext in ("csv", "svg")] + ["figs/manifest.json"],
    "riemann": ["profile.csv"],
}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|inf|nan)")


def text_digest(text: str) -> dict:
    """Text with numbers replaced by '#', plus the numbers, for tolerant comparison."""
    nums = [float(m) for m in _NUMBER.findall(text)]
    return {"skeleton": _NUMBER.sub("#", text), "numbers": [_num(x) for x in nums]}


def file_digest(path: Path) -> dict:
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        data = np.asarray(rows[1:], dtype=float)
        return {
            "header": rows[0],
            "rows": len(rows) - 1,
            "min": [_num(v) for v in data.min(axis=0)],
            "max": [_num(v) for v in data.max(axis=0)],
            "mean": [_num(v) for v in data.mean(axis=0)],
            "every_100th": [[_num(v) for v in r] for r in data[::100]],
        }
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".svg":
        m = re.search(r'points="([^"]*)"', text)
        pts = [tuple(float(c) for c in p.split(",")) for p in m.group(1).split()]
        return {
            "frame": re.sub(r'points="[^"]*"', 'points=""', text),
            "points": len(pts),
            "every_50th": [list(p) for p in pts[::50]],
        }
    return json.loads(text)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(argv: list[str], env: dict, out: Path,
            child: list[str] | None = None) -> tuple[subprocess.CompletedProcess, float]:
    """One fresh `python -m fracflow.cli` process (or the traced shim `child`),
    killed after CLI_TIMEOUT_S.  Returns it with its own peak resident memory
    in MB."""
    cmd = [sys.executable] + (child or ["-m", "fracflow.cli"]) + argv
    with open(out / ".stdout", "w+", encoding="utf-8") as so, open(out / ".stderr", "w+", encoding="utf-8") as se:
        code, usage = run_to_end(cmd, CLI_TIMEOUT_S, env, so, se)
        so.seek(0)
        se.seek(0)
        done = subprocess.CompletedProcess(cmd, code, so.read(), se.read())
    return done, usage.ru_maxrss / 1024.0


def cli_digest(name: str, proc: subprocess.CompletedProcess, out: Path) -> dict:
    text = proc.stdout.replace(str(out), "<out>")
    stdout = json.loads(text) if name == "check_ce1" else text_digest(text)
    return {
        "exit": proc.returncode,
        "stdout": stdout,
        "files": {f: file_digest(out / f) for f in CLI_FILES.get(name, [])},
    }


def cli_check(name: str, proc, out: Path, golden: dict) -> list[str]:
    bad = []
    if proc.returncode != CLI_EXIT[name]:
        bad.append(f"cli {name}: exit code {proc.returncode}, expected {CLI_EXIT[name]}; {proc.stderr.strip()}")
        return bad
    try:
        digest = cli_digest(name, proc, out)
    except (OSError, ValueError, AttributeError) as exc:
        return [f"cli {name}: unreadable output: {exc}"]
    if not close(digest, golden[name], GOLDEN_ATOL["cli"]):
        bad.append(f"cli {name}: output differs from golden")
    if "Traceback" in proc.stderr:
        bad.append(f"cli {name}: traceback on stderr {proc.stderr.strip()[-200:]!r}")
    return bad


def quiet(fn, *args):
    """Run fn with UserWarnings recorded instead of printed; returns (result, n_warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        result = fn(*args)
    return result, sum(1 for w in caught if issubclass(w.category, UserWarning))

