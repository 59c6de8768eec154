"""Every benchmark pool entry's and cli command's answer, dumped, and two
dumps diffed.

    python tests/answers.py dump --out FILE
    python tests/answers.py diff A B

`dump` runs every entry of the check_sweep, analyze_sweep and riemann_fans
pools (read through perfbench/workloads.py, as the benchmark runs them) with
the fracflow found on PYTHONPATH.  Per entry it writes the repr of each field
of the answer: a ConditionReport, a FluxAnalysis, or a fan's waves with its
201-point profile, plus the warnings the entry raised.  An entry that raises
an error records the error's type and message instead.  It then runs the cli
workload's commands in this process, through fracflow.cli.main, into a
temporary directory, and writes a `cli` section: per command its exit code,
stdout and stderr with that directory masked, and per file it writes the
file's sha256 and its perfbench digest (the numbers the cli golden
compares).  Last, a `programs` section: for every catalog and pool tree's
programs at orders 0-3, scalar and array, and every pool pair's flux
programs, the sha256 of the generated source and of the outputs, on 4097
points of (0, 1) as an array and at 13 scalar points across [-0.25, 1.25],
an error taken as its type, message and index.  To compare a change with
its parent, dump the parent from a copy of its tree, with its own script on
its own PYTHONPATH (each script calls its own tree's API):

    git archive HEAD~1 | tar -x -C ../parent
    PYTHONPATH=../parent/src python ../parent/tests/answers.py dump --out parent.json
    PYTHONPATH=src python tests/answers.py dump --out change.json
    python tests/answers.py diff parent.json change.json

`diff` prints, per workload and for the cli section, the identical and
changed counts; per field, how many entries it changed in and the largest
absolute and relative numeric moves, each with its entry key; and every
error that appears, vanishes or changes.  A relative move is the move over
the larger of the two numbers' magnitudes.  A field whose text differs other
than in its numbers, such as a verdict, a wave kind, a count of inflections
or a file's sha256, is reported as changed in form, with its first entry
key.  Changes are printed, not judged: `diff`
exits 0 whatever it finds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

WORKLOADS = ("check_sweep", "analyze_sweep", "riemann_fans")
SECTIONS = WORKLOADS + ("cli", "programs")
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


def cli_answers(workloads) -> dict:
    """{command: {field: text}} of the cli workload's commands, each run
    through fracflow.cli.main into one temporary directory, or {"error": ...}."""
    from fracflow.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, _, argv in workloads.cli_commands(Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                answer = {"exit": repr(code), "stdout": stdout.getvalue().replace(tmp, "<out>"),
                          "stderr": stderr.getvalue().replace(tmp, "<out>")}
                for file in workloads.CLI_FILES.get(name, []):
                    path = Path(tmp) / file
                    answer[f"{file} sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
                    answer[file] = repr(workloads.file_digest(path))
            except Exception as exc:  # an answer like any other
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            out[name] = answer
    return out


def outputs_sha256(program, inputs) -> str:
    """sha256 of what program gives on each input: per component its type,
    dtype, shape and bytes, or the error's type, message and index."""
    import numpy as np

    digest = hashlib.sha256()
    for s in inputs:
        try:
            with np.errstate(all="ignore"):
                out = program(s)
        except Exception as exc:  # an answer like any other
            digest.update(repr((type(exc).__name__, str(exc), getattr(exc, "index", None))).encode())
            continue
        for c in out:
            digest.update(repr((type(c).__name__, np.asarray(c).dtype.str, np.shape(c))).encode())
            digest.update(np.asarray(c).tobytes())
    return digest.hexdigest()


def program_answers(objects: dict) -> dict:
    """{program: {"source sha256", "outputs sha256"}} of every tree's programs
    and every pair's flux programs at orders 0-3, scalar and array, each built
    afresh; objects maps each tree or pair to its name."""
    import numpy as np
    from fracflow import jet

    sources, maker = [], jet._maker
    inputs = {True: [np.linspace(0.0, 1.0, 4099)[1:-1]], False: np.linspace(-0.25, 1.25, 13).tolist()}
    out = {}
    jet._maker = lambda src: sources.append(src) or maker(src)  # Tape.build compiles through jet._maker
    try:
        for obj, name in objects.items():
            for order in range(4):
                for array in (False, True):
                    obj._programs.pop((order, array), None)
                    program = obj.program(order, array)
                    out[f"{name} order {order} {'array' if array else 'scalar'}"] = {
                        "source sha256": hashlib.sha256(sources[-1].encode()).hexdigest(),
                        "outputs sha256": outputs_sha256(program, inputs[array])}
    finally:
        jet._maker = maker
    return out


def collect(per_stratum: int | None = None) -> dict:
    """{section: {key: answer}} over every pool entry, or over the first
    per_stratum entries of each stratum, over the cli commands and over the
    programs of the catalog's trees and of those entries' trees and pairs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads  # imports fracflow, which diff does not need
    from fracflow import models

    out, objects = {}, {m: f"tree {m}" for m in models.catalog().values()}
    for workload in WORKLOADS:
        out[workload] = {}
        for stratum, entries in workloads.load_pool(workload)["strata"].items():
            for index, entry in enumerate(entries[:per_stratum]):
                key = f"{stratum}/{index}"
                out[workload][key] = answer(workloads, workload, key, stratum, entry["input"])
                obj = workloads.parse_input(workload, entry["input"])
                pair = getattr(obj, "flux", obj)
                if isinstance(pair, models.ModelPair):
                    objects.update({pair: f"pair ({pair.m_a}, {pair.m_b})", pair.m_a: f"tree {pair.m_a}",
                                    pair.m_b: f"tree {pair.m_b}"})
                else:
                    objects[pair] = f"tree {pair}"
    out["cli"] = cli_answers(workloads)
    out["programs"] = program_answers(objects)
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
    for workload in [w for w in SECTIONS if w in a or w in b]:
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
    parser = argparse.ArgumentParser(description="Dump or diff the answers of every benchmark pool entry and cli command.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write every pool entry's and cli command's answer as JSON")
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
