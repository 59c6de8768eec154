#!/usr/bin/env python3
"""fracflow benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload analyze_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
process drives the load in a closed loop, one operation at a time.  Every
operation's output is checked (golden outputs, known answers, independent
oracles); failures count in `failed` and make `correct` false.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  The lines before it print every
end-to-end metric by name, with unit and sample count, including those that
exist on one workload only.  See README.md for the metric definitions.

Operation times are host-normalised: a fixed reference that does not use
fracflow runs between operations, and each operation's time is scaled by
(reference time on the baseline host) / (median of the reference times taken
around it).  In-process operations use a computation as reference; cli
commands and set-up interpreters, which are process start-up bound, use the
start-up of an interpreter that imports numpy.  On a shared host whose speed
drifts by tens of percent within minutes this keeps one run's figures
comparable with another's; the raw figures and the median factor are printed
too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from procs import run_to_end

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("analyze_sweep", "check_sweep", "riemann_fans", "cli")
SETUP_REPEATS = 7
STARTUP_REPEATS = 5  # traced cli runs: bare interpreter and `import fracflow.cli`
MAX_REPORTED_FAILURES = 20
# median reference_work() time on the host the baseline was taken on
# (2-core Xeon, Python 3.11.7, numpy 2.4.6); only sets the scale of the
# normalised figures
REFERENCE_S = 0.0027
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 41  # reference samples around an operation that set its factor
STARTUP_REFERENCE_S = 0.17  # startup_reference() on the same host
M_TRIM_THRESHOLD = -1  # glibc mallopt parameter
HEAP_TRIM_THRESHOLD = 64 << 20


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, reports the per-layer metrics")
    p.add_argument("--out", help="also append the result record as one JSON line to this file")
    p.add_argument("--setup-only", action="store_true",
                   help="import fracflow (and fracflow.cli for cli), build the inputs and exit "
                        "(what setup_s times)")
    return p.parse_args(argv)


def import_program():
    """Import fracflow from this checkout's src/, never from anywhere else."""
    if not (SRC / "fracflow" / "__init__.py").is_file():
        fail(f"no fracflow package under {SRC}; run from the root of a fracflow checkout")
    sys.path.insert(0, str(SRC))
    import fracflow
    if Path(fracflow.__file__).resolve().parent != SRC / "fracflow":
        fail(f"imported fracflow from {fracflow.__file__}, not from {SRC}")
    import workloads
    return workloads


def pin_heap() -> None:
    """Keep glibc from handing the freed top of the heap back to the system
    between operations.  Otherwise it does so after most check_sweep
    operations and faults the pages in again (about 100 minor faults per
    operation), and how often depends on what else the process holds: the
    tracer's spans kept it from happening, so operation and reference times
    depended on the benchmark's own state.  A no-op where libc has no mallopt."""
    try:
        ctypes.CDLL(None).mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    except (OSError, AttributeError):
        pass


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def robust_ops_per_s(by_input: dict) -> float:
    """Inputs per second of one pass, each input costed at its median time,
    so a host hiccup during one repetition does not move the figure."""
    return len(by_input) / sum(statistics.median(v) for v in by_input.values())


def measure_setup(workload: str, seed: int) -> dict:
    """Wall time of fresh interpreters that import fracflow and build the
    inputs: host-normalised and raw medians."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    host = HostSpeed(startup_reference, STARTUP_REFERENCE_S)
    timings = Timings()
    for _ in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        try:
            code, _ = run_to_end(cmd, 120)
        except subprocess.TimeoutExpired:
            fail("set-up timed out")
        timings.add("setup", t0, time.perf_counter() - t0)
        if code != 0:
            fail(f"set-up failed with exit code {code}")
    host.sample()
    return {"setup_s": timings.median(host), "raw_setup_s": (statistics.median(timings.took), SETUP_REPEATS)}


@dataclass(frozen=True)
class _Jet:
    f0: float
    f1: float
    f2: float
    f3: float


def _jet_mul(x: _Jet, y: _Jet) -> _Jet:
    return _Jet(x.f0 * y.f0, x.f1 * y.f0 + x.f0 * y.f1, x.f2 * y.f0 + 2.0 * x.f1 * y.f1 + x.f0 * y.f2,
                x.f3 * y.f0 + 3.0 * x.f2 * y.f1 + 3.0 * x.f1 * y.f2 + x.f0 * y.f3)


def reference_work() -> float:
    """Fixed work that shares no code with fracflow but has its mix: small
    frozen-dataclass jet arithmetic inside bisection loops, scalar float
    arithmetic, and numpy ufuncs over a grid."""
    total = 0.0
    for _ in range(8):
        lo, hi = 0.1, 0.9
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            s = _Jet(mid, 1.0, 0.0, 0.0)
            if _jet_mul(_jet_mul(s, s), s).f0 > 0.3:
                hi = mid
            else:
                lo = mid
        total += lo
    for i in range(3000):
        total += (i * 0.5) ** 2 % 7.0
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(20):
        a = np.exp(-a) * a + 1.0
    return total + float(a[0])


def startup_reference() -> None:
    """A fresh interpreter that imports numpy: the start-up work of a cli
    command or a set-up interpreter, without fracflow."""
    startup_times(None, "import numpy", 1)


class HostSpeed:
    """Reference timings taken between operations throughout a run.

    `sample()` runs the reference unless the last sample is younger than
    `every` seconds; `reference_s` is its time on the baseline host.
    """

    def __init__(self, reference=reference_work, reference_s: float = REFERENCE_S,
                 every: float = REFERENCE_EVERY_S):
        self.reference = reference
        self.reference_s = reference_s
        self.every = every
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        if not self.at or t0 - self.at[-1] >= self.every:
            self.reference()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def factors(self, when: list[float]) -> np.ndarray:
        """How much slower than the baseline host the host was at each time:
        the median of the REFERENCE_WINDOW reference samples around it."""
        took = np.asarray(self.took)
        half = REFERENCE_WINDOW // 2
        local = np.array([np.median(took[max(0, i - half):i + half + 1]) for i in range(len(took))])
        nearest = np.clip(np.searchsorted(self.at, when), 0, len(took) - 1)
        return local[nearest] / self.reference_s


class Timings:
    """Operation times with their start times, grouped by input."""

    def __init__(self):
        self.key: list[str] = []
        self.start: list[float] = []
        self.took: list[float] = []

    def add(self, key: str, start: float, took: float):
        self.key.append(key)
        self.start.append(start)
        self.took.append(took)

    def normalised(self, host: HostSpeed) -> np.ndarray:
        return np.asarray(self.took) / host.factors(self.start)

    def median(self, host: HostSpeed) -> tuple[float, int]:
        return float(np.median(self.normalised(host))), len(self.took)

    def metrics(self, host: HostSpeed) -> dict:
        """Host-normalised throughput and latency quantiles, with the raw ones."""
        out = {"host_factor": (float(np.median(host.factors(self.start))), len(host.took))}
        for prefix, took in (("", self.normalised(host)), ("raw_", self.took)):
            by_key = defaultdict(list)
            for k, t in zip(self.key, took):
                by_key[k].append(float(t))
            n = len(self.took)
            out[f"{prefix}ops_per_s"] = (robust_ops_per_s(by_key), n)
            out[f"{prefix}op_ms_p50"] = (1e3 * quantile(list(took), 0.5), n)
            out[f"{prefix}op_ms_p90"] = (1e3 * quantile(list(took), 0.9), n)
        return out


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def run_library(wl, workload: str, seed: int, seconds: float, tracer):
    """Closed loop over the seed's inputs, pass after pass, until `seconds`.

    The first pass checks every output against the golden and the oracles;
    later passes require outputs identical to the first pass.  The run stops
    at the deadline, but never before the first pass is complete.
    """
    if tracer:
        before_build = tracer.mark()
        tracer.install()
    inputs = wl.build(workload, seed)
    if tracer:
        tracer.uninstall()
        parse_agg = tracer.aggregate(before_build)

    tally = Tally()
    host = HostSpeed()
    first: dict[str, dict] = {}
    timings = Timings()
    stages = defaultdict(Timings)
    warned = 0
    passes = 0
    marks = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    deadline_hit = False
    while not deadline_hit:
        marks.append(tracer.mark() if tracer else None)
        for inp in inputs:
            if passes and time.perf_counter() - start >= seconds:
                deadline_hit = True
                break
            host.sample()
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result, n_warn = wl.quiet(wl.op, workload, inp)
            except Exception:  # a failing operation is counted; the run goes on
                tally.record([f"{inp.key}: {traceback.format_exc()}"])
                continue
            finally:
                if tracer:
                    tracer.uninstall()
            dt = time.perf_counter() - t0
            timings.add(inp.key, t0, dt)
            if workload == "riemann_fans":
                stages["solve_ms_p50"].add(inp.key, t0, 1e3 * result[3])
                stages["profile_ms_p50"].add(inp.key, t0, 1e3 * (dt - result[3]))
            digest = wl.summary(workload, result)
            if passes == 0:
                warned += n_warn
                first[inp.key] = digest
                tally.record(wl.golden_mismatch(workload, inp, digest) + wl.check(workload, inp, result))
            else:
                tally.record([] if digest == first.get(inp.key) else [f"{inp.key}: output changed between passes"])
        else:
            passes += 1
            deadline_hit = time.perf_counter() - start >= seconds
    marks.append(tracer.mark() if tracer else None)

    e2e = timings.metrics(host)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    e2e["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, 1)
    # near 0 while pin_heap() holds; the heap trims it prevents showed up here
    e2e["minor_faults_per_op"] = ((usage.ru_minflt - faults) / max(tally.attempted, 1), tally.attempted)
    for name, stage in stages.items():
        e2e[name] = stage.median(host)
    layers = None
    if tracer:
        from spans import layer_metrics
        counts = tracer.aggregate(marks[0], marks[1])
        counts["counters"]["flux.multi_root_warnings"] = warned
        full = tracer.aggregate(marks[0], marks[-1])
        layers = layer_metrics(counts, full, len(timings.took) / len(inputs), parse_agg,
                               {"bench.traced_ops_per_s": e2e["ops_per_s"][0]})
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-{seed}.npz")
    return tally, e2e, layers


def run_cli_workload(wl, seconds: float, traced: bool):
    """Closed loop over the fixed command sequence, whole sequences only.

    One operation is one sequence of five commands: command times drift
    together with the host, and their sum is steadier than any one of them.
    Each command still counts as attempted (or failed) on its own.
    """
    out = OUT / f"cli-{os.getpid()}"
    with open(HERE / "data" / "cli.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    env = wl.cli_env(ROOT)
    tally = Tally()
    host = HostSpeed(startup_reference, STARTUP_REFERENCE_S)
    timings = Timings()
    by_group = defaultdict(Timings)
    seq_aggs: list[list[dict]] = []
    output_bytes = 0
    peak_rss_mb = 0.0
    sequences = 0
    start = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        while True:
            aggs = []
            host.sample()  # once per sequence: the reference costs half a command
            seq_start, seq_took = time.perf_counter(), 0.0
            for name, group, argv in wl.cli_commands(out):
                agg_file = out / f"{name}.trace.json"
                child = [str(HERE / "cli_child.py"), str(agg_file)] if traced else None
                t0 = time.perf_counter()
                try:
                    proc, rss_mb = wl.run_cli(argv, env, out, child)
                except subprocess.TimeoutExpired:
                    tally.record([f"cli {name}: timed out"])
                    continue
                dt = time.perf_counter() - t0
                seq_took += dt
                peak_rss_mb = max(peak_rss_mb, rss_mb)
                by_group[f"{group}_s"].add(name, t0, dt)
                tally.record(wl.cli_check(name, proc, out, golden))
                if sequences == 0:
                    output_bytes += len(proc.stdout.encode()) + len(proc.stderr.encode()) + sum(
                        (out / f).stat().st_size for f in wl.CLI_FILES.get(name, []) if (out / f).exists())
                if traced and agg_file.exists():
                    with open(agg_file, encoding="utf-8") as fh:
                        aggs.append(json.load(fh))
            timings.add("sequence", seq_start, seq_took)
            seq_aggs.append(aggs)
            sequences += 1
            elapsed = time.perf_counter() - start
            # only whole sequences keep the command mix, and so the medians, fixed
            if elapsed + elapsed / sequences > seconds:
                break
        host.sample()
    finally:
        for path in sorted(out.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        out.rmdir()

    e2e = timings.metrics(host)
    e2e["peak_rss_mb"] = (peak_rss_mb, sum(len(group.took) for group in by_group.values()))
    for name, group in by_group.items():
        e2e[name] = group.median(host)
    layers = None
    if traced:
        from spans import layer_metrics, merge
        interp = startup_times(env, "pass")
        imported = startup_times(env, "import fracflow.cli")
        full = merge([a for aggs in seq_aggs for a in aggs])
        layers = layer_metrics(merge(seq_aggs[0]), full, sequences, full, {
            "cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imported) - statistics.median(interp),
            "cli.output_bytes": output_bytes,
            "bench.traced_ops_per_s": e2e["ops_per_s"][0],
        })
    return tally, e2e, layers


def startup_times(env: dict | None, code: str, repeats: int = STARTUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters that run `code`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        if run_to_end([sys.executable, "-c", code], 60, env)[0] != 0:
            fail(f"python -c {code!r} failed")
        times.append(time.perf_counter() - t0)
    return times


# every end-to-end metric, bounded or not, then the host factor and the raw
# timings behind the normalised ones, with units, in report order
REPORTED = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
    ("error_rate", "ratio"), ("peak_rss_mb", "MB"), ("solve_ms_p50", "ms"), ("profile_ms_p50", "ms"),
    ("check_s", "s"), ("analyze_s", "s"), ("figures_s", "s"), ("riemann_s", "s"), ("minor_faults_per_op", "count"),
    ("host_factor", "ratio"), ("raw_setup_s", "s"), ("raw_ops_per_s", "1/s"), ("raw_op_ms_p50", "ms"),
    ("raw_op_ms_p90", "ms"),
)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    if args.setup_only:
        if args.workload == "cli":
            import fracflow.cli  # noqa: F401  (what every cli command starts with)
            wl.cli_commands(OUT)
        else:
            wl.build(args.workload, args.seed)
        return 0

    pin_heap()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    setup = measure_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    if args.workload == "cli":
        tally, e2e, layers = run_cli_workload(wl, args.seconds, bool(args.trace))
    else:
        tally, e2e, layers = run_library(wl, args.workload, args.seed, args.seconds, tracer)
    e2e.update(setup)
    e2e["error_rate"] = (tally.failed / max(tally.attempted, 1), tally.attempted)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in REPORTED:
        if name in e2e:
            value, n = e2e[name]
            print(f"  {name:<20} {value:>14.6g} {unit:<6} (n={n})")
        else:
            print(f"  {name:<20} {'n/a':>14} {unit:<6} (not measured on this workload)")
    if layers:
        for name, m in layers.items():
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    for message in tally.messages[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {message}", file=sys.stderr)

    if layers:
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {"correct": tally.failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "report": {k: v[0] for k, v in e2e.items()}, **result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
