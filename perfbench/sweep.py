#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads, appending each run's
record to a JSON-lines file that compare.py reads.

    python3 perfbench/sweep.py --seeds 1-10 --out results.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --trace 1 --out traced.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --root parent=../old --root change=. --out ab.jsonl
    python3 perfbench/sweep.py --seeds 1,1,2,2 --trace 0,1 --out overhead.jsonl

Every run measures for BENCHMARK.json's run_seconds.  With two --root
checkouts, or both --trace values, the runs of one seed are paired and
alternate which side goes first from one seed to the next.  Runs are
sequential: the benchmark measures one process at a time, so nothing else
from this script runs alongside it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7,11")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", default="0", choices=("0", "1", "0,1"),
                   help="0,1: an untraced and a traced run per seed (tracing overhead)")
    p.add_argument("--root", action="append", default=[],
                   help="LABEL=DIR checkout to run (default: this one, labelled 'change')")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    roots = [tuple(r.split("=", 1)) for r in args.root] or [("change", str(HERE.parent))]
    sides = [(label, root, trace) for label, root in roots for trace in args.trace.split(",")]

    out = Path(args.out).resolve()
    one = out.with_suffix(".run.jsonl")
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in args.workloads.split(","):
            for label, root, trace in order:
                one.unlink(missing_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", trace, "--out", str(one)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    print(f"{label} {workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                record = {"label": label, **json.loads(one.read_text(encoding="utf-8"))}
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{label} {workload} seed {seed} trace {trace}: correct={record['correct']} "
                      f"attempted={record['attempted']} failed={record['failed']}", flush=True)
    one.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
