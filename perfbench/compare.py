#!/usr/bin/env python3
"""Summarise and compare benchmark records written by sweep.py.

    python3 perfbench/compare.py results.jsonl
        per label, workload and metric: runs, median, quartiles and the
        spread (q3 - q1) / median, against the metric's bound

    python3 perfbench/compare.py ab.jsonl --base parent --change change
        per workload and metric: both medians and quartiles, the change in
        the median, the share of seed-matched pairs the change won (ties
        count for neither side), and a verdict: "gain" when the change wins
        at least 9 of 10 pairs and the medians differ by more than the
        parent's spread, "regression" when the change's median is worse by
        more than the bound, "unresolved" when the parent's spread exceeds
        the bound, otherwise "same".  A workload on which the change has an
        incorrect run, or more failed operations than the parent, gets no
        "gain": it is flagged instead

    python3 perfbench/compare.py overhead.jsonl
        with untraced and traced runs of the same seeds (sweep.py --trace
        0,1), also the tracing overhead per workload: 1 - traced/untraced
        ops_per_s over runs paired by seed and order, host-normalised and
        raw, and the ratio of their host factors

Traced records (trace 1) of one label, workload and seed must repeat every
count-valued metric exactly; any difference is listed.  Quartiles are those
of statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def series(records, label, trace=0):
    """(workload, metric) -> {seed: value} for one label."""
    out = defaultdict(dict)
    for r in records:
        if r.get("label", "change") == label and r["trace"] == trace:
            for name, m in r["metrics"].items():
                out[(r["workload"], name)][r["seed"]] = m["value"]
    return out


def summarise(records, specs) -> None:
    labels = sorted({r.get("label", "change") for r in records})
    for label in labels:
        for trace in (0, 1):
            data = series(records, label, trace)
            if not data:
                continue
            print(f"[{label}] {'traced' if trace else 'end-to-end'}")
            print(f"  {'workload':<14} {'metric':<36} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
            for (workload, name), by_seed in sorted(data.items()):
                values = list(by_seed.values())
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("nan")
                bound = specs.get(name, {}).get("bound")
                flag = "" if bound is None else f"  bound {bound:g}{'  WIDE' if spread > bound / 3 else ''}"
                print(f"  {workload:<14} {name:<36} {len(values):>4} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f}{flag}")
        failed = [r for r in records if r.get("label", "change") == label and not r["correct"]]
        for r in failed:
            print(f"  INCORRECT: {r['workload']} seed {r['seed']} failed {r['failed']}/{r['attempted']}")


def failures(records, label: str) -> dict:
    """workload -> (failed operations, incorrect runs) over the label's untraced runs."""
    out = defaultdict(lambda: [0, 0])
    for r in records:
        if r.get("label", "change") == label and r["trace"] == 0:
            out[r["workload"]][0] += r["failed"]
            out[r["workload"]][1] += not r["correct"]
    return out


def compare(records, specs, base: str, change: str) -> None:
    a, b = series(records, base), series(records, change)
    fa, fb = failures(records, base), failures(records, change)
    flagged = {w for w, (failed, incorrect) in fb.items() if incorrect or failed > fa[w][0]}
    for workload in sorted(flagged):
        print(f"FLAGGED {workload}: {change} failed {fb[workload][0]} ops in {fb[workload][1]} incorrect runs, "
              f"{base} failed {fa[workload][0]}; no gain is counted on it")
    print(f"{'workload':<14} {'metric':<14} {base + ' median':>14} {change + ' median':>14} "
          f"{'delta':>8} {'won':>6} verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        spec = specs[name]
        seeds = sorted(set(a[key]) & set(b[key]))
        if not seeds:
            continue
        pa, pb = [a[key][s] for s in seeds], [b[key][s] for s in seeds]
        qa, qb = quartiles(pa), quartiles(pb)
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(1 for x, y in zip(pa, pb) if sign * (y - x) > 0)
        delta = (qb[1] - qa[1]) / qa[1]
        parent_spread = (qa[2] - qa[0]) / qa[1]
        if wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
            verdict = "flagged" if workload in flagged else "gain"
        elif -sign * delta > spec["bound"]:
            verdict = "regression"
        elif parent_spread > spec["bound"] and not all(sign * (y - x) > 0 for x in pa for y in pb):
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"{workload:<14} {name:<14} {qa[1]:>14.6g} {qb[1]:>14.6g} {100 * delta:>7.1f}% "
              f"{wins:>3}/{len(seeds):<2} {verdict}   q1-q3 {qa[0]:.6g}-{qa[2]:.6g} | {qb[0]:.6g}-{qb[2]:.6g}")


def tracing_overhead(records) -> None:
    """1 - traced/untraced ops_per_s, normalised and raw, over runs of one
    label, workload and seed paired in the order they were made."""
    runs = defaultdict(lambda: ([], []))
    for r in records:
        runs[(r.get("label", "change"), r["workload"], r["seed"])][r["trace"]].append(r["report"])
    by_workload = defaultdict(lambda: defaultdict(list))
    for (label, workload, _), (untraced, traced) in sorted(runs.items()):
        for u, t in zip(untraced, traced):
            got = by_workload[(label, workload)]
            got["overhead"].append(1 - t["ops_per_s"] / u["ops_per_s"])
            got["raw_overhead"].append(1 - t["raw_ops_per_s"] / u["raw_ops_per_s"])
            got["host_factor_ratio"].append(t["host_factor"] / u["host_factor"])
    for (label, workload), got in sorted(by_workload.items()):
        cells = "  ".join(f"{name} {q[1]:+.3f} (q1 {q[0]:+.3f}, q3 {q[2]:+.3f})"
                          for name, q in ((n, quartiles(v)) for n, v in got.items()))
        print(f"[{label}] tracing {workload:<14} pairs {len(got['overhead']):>2}  {cells}")


def count_repeats(records) -> int:
    """Differences between traced runs of one label, workload and seed."""
    groups = defaultdict(list)
    for r in records:
        if r["trace"] == 1:
            groups[(r.get("label", "change"), r["workload"], r["seed"])].append(r["metrics"])
    bad = 0
    for (label, workload, seed), runs in sorted(groups.items()):
        if len(runs) < 2:
            continue
        differ = [name for name, m in runs[0].items()
                  if m["unit"] == "count" and len({run[name]["value"] for run in runs}) > 1]
        for name in differ:
            print(f"COUNT DIFFERS [{label}] {workload} seed {seed} {name}: "
                  f"{[run[name]['value'] for run in runs]}")
        print(f"[{label}] {workload} seed {seed}: {len(runs)} traced runs, counts "
              f"{'differ' if differ else 'repeat exactly'}")
        bad += len(differ)
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="+", help="JSON-lines files written by sweep.py")
    p.add_argument("--base", help="label of the parent side")
    p.add_argument("--change", help="label of the changed side")
    args = p.parse_args(argv)
    records = [r for path in args.records for r in load(path)]
    specs = metric_specs()
    if args.base and args.change:
        compare(records, specs, args.base, args.change)
    else:
        summarise(records, specs)
        tracing_overhead(records)
    return 1 if count_repeats(records) else 0


if __name__ == "__main__":
    sys.exit(main())
