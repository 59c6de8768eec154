"""Every benchmark pool entry's answer, dumped, and two dumps diffed.

    python tests/answers.py dump --out FILE
    python tests/answers.py diff A B

`dump` runs every entry of the check_sweep, analyze_sweep and riemann_fans
pools (read through perfbench/workloads.py, as the benchmark runs them) with
the fracflow found on PYTHONPATH.  Per entry it writes the repr of each field
of the answer: a ConditionReport, a FluxAnalysis, or a fan's waves with its
201-point profile, plus the warnings the entry raised.  An entry that raises
an error records the error's type and message instead.  To compare a change
with its parent, dump the parent from a copy of its tree on its own
PYTHONPATH:

    git archive HEAD~1 | tar -x -C ../parent
    PYTHONPATH=../parent/src python tests/answers.py dump --out parent.json
    PYTHONPATH=src python tests/answers.py dump --out change.json
    python tests/answers.py diff parent.json change.json

`diff` prints, per workload, the identical and changed counts; per field, how
many entries it changed in and the largest absolute and relative numeric
moves, each with its entry key; and every error that appears, vanishes or
changes.  A relative move is the move over the larger of the two numbers'
magnitudes.  A field whose text differs other than in its numbers, such as
a verdict, a wave kind or a count of inflections, is reported as changed in
form, with its first entry key.  Changes are printed, not judged: `diff`
exits 0 whatever it finds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

WORKLOADS = ("check_sweep", "analyze_sweep", "riemann_fans")
# a number in a repr, but not a digit inside a name such as c4 or float64
_NUMBER = re.compile(r"(?<![\w.])-?(?:inf|nan|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)(?![\w.])")


def answer(workloads, workload: str, key: str, stratum: str, spec: dict) -> dict:
    """{field: repr} of one pool entry's answer, or {"error": "Type: message"};
    workloads is perfbench/workloads.py."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inp = workloads.Input(key, stratum, spec, {}, workloads.parse_input(workload, spec))
            result = workloads.op(workload, inp)
    except Exception as exc:  # an answer like any other
        return {"error": f"{type(exc).__name__}: {exc}"}
    if workload == "riemann_fans":
        fan, xi, profile, _ = result
        out = {"waves": repr(fan.waves), "xi": repr(xi.tolist()), "profile": repr([float(s) for s in profile])}
    else:
        out = {f.name: repr(getattr(result, f.name)) for f in dataclasses.fields(result)}
    out["warnings"] = repr([f"{w.category.__name__}: {w.message}" for w in caught])
    return out


def collect(per_stratum: int | None = None) -> dict:
    """{workload: {key: answer}} over every pool entry, or over the first
    per_stratum entries of each stratum."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads  # imports fracflow, which diff does not need

    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for stratum, entries in workloads.load_pool(workload)["strata"].items():
            for index, entry in enumerate(entries[:per_stratum]):
                key = f"{stratum}/{index}"
                out[workload][key] = answer(workloads, workload, key, stratum, entry["input"])
    return out


def numeric_move(a: str, b: str) -> tuple[float, float] | None:
    """Largest absolute and relative moves between the numbers of two reprs
    that differ only in their numbers, else None."""
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(na) != len(nb) or _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    move = relative = 0.0
    for p, q in zip(map(float, na), map(float, nb)):
        if p != q and not (math.isnan(p) and math.isnan(q)):
            step = abs(p - q) if math.isfinite(p - q) else math.inf
            move = max(move, step)
            relative = max(relative, step / max(abs(p), abs(q)) if math.isfinite(step) else math.inf)
    return move, relative


def compare(a: dict, b: dict) -> list[str]:
    """The diff's report lines, A the old dump and B the new one."""
    lines = []
    for workload in [w for w in WORKLOADS if w in a or w in b]:
        old, new = a.get(workload, {}), b.get(workload, {})
        keys = [k for k in old if k in new]
        same = sum(old[k] == new[k] for k in keys)
        lines.append(f"{workload}: {same} identical, {len(keys) - same} changed")
        for side, only in (("A", [k for k in old if k not in new]), ("B", [k for k in new if k not in old])):
            if only:
                lines.append(f"  {len(only)} entries only in {side}, first {only[0]}")
        # field -> [entries, largest move, its key, largest relative move, its key]; field -> [entries, first key]
        moved, reformed = {}, {}
        for k in keys:
            x, y = old[k], new[k]
            if x == y:
                continue
            if "error" in x or "error" in y:
                if "error" not in y:
                    lines.append(f"  error vanishes at {k}: {x['error']}")
                elif "error" not in x:
                    lines.append(f"  error appears at {k}: {y['error']}")
                else:
                    lines.append(f"  error changes at {k}: {x['error']} -> {y['error']}")
                continue
            for field in list(x) + [f for f in y if f not in x]:
                if x.get(field) == y.get(field):
                    continue
                move = None if field not in x or field not in y else numeric_move(x[field], y[field])
                if move is None:
                    reformed.setdefault(field, [0, k])[0] += 1
                    continue
                record = moved.setdefault(field, [0, -1.0, k, -1.0, k])
                record[0] += 1
                if move[0] > record[1]:
                    record[1:3] = [move[0], k]
                if move[1] > record[3]:
                    record[3:] = [move[1], k]
        for field, (n, move, k, relative, k_relative) in moved.items():
            lines.append(f"  {field}: {n} changed, largest move {move:.3g} at {k}, "
                         f"relative {relative:.3g} at {k_relative}")
        for field, (n, k) in reformed.items():
            lines.append(f"  {field}: {n} changed in form, first at {k}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Dump or diff the answers of every benchmark pool entry.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write every pool entry's answer as JSON")
    p.add_argument("--out", required=True, help="output file")
    p = sub.add_parser("diff", help="compare two dumps, A the old one")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(collect(), fh, indent=0)
        return 0
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        print("\n".join(compare(json.load(fa), json.load(fb))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
