#!/usr/bin/env python3
"""Build the input pools and golden outputs in perfbench/data/.

    python3 perfbench/make_golden.py

Run once, at the commit that defines the benchmark, from the root of the
checkout.  The pools come from a fixed master seed; each entry stores its
input (expression texts and states) and the digest of the program's output
at that commit.  Regenerating the files at a later commit would make the
golden checks compare the program with itself, so do not, unless a change
to the benchmark itself requires new pools.

Each entry also records its work: the jet operations one run of its
operation performs.  Strata are stored sorted by work, and a run's --seed
draws `per_run` entries from each stratum, one from each of that many
equal slices of it (see workloads.sample), so every seed gets the same
spread of costs.

Pools:
  analyze_sweep  admissible pairs (power, Brooks-Corey, Chierici and their
                 products; symmetric and asymmetric), counterexample-family
                 pairs s^a*(1+c*s^k) and s^a*exp(s^k), and the paper's three
                 counterexamples.
  check_sweep    single mobilities from every catalog family, the
                 criterion-7 Brooks-Corey grid, and the counterexample family.
  riemann_fans   pairs from both families with states in both directions,
                 including the endpoints 0 and 1; fans with a rarefaction
                 per family, and a small stratum of shock-only fans.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fracflow as ff  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

MASTER_SEED = 20230316


def r4(x: float) -> float:
    return round(float(x), 4)


def base_member(rng) -> ff.ModelExpr:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return ff.power(r4(rng.uniform(0.1, 10.0)), r4(rng.uniform(1.05, 8.0)))
    if kind == 1:
        return ff.brooks_b(r4(rng.uniform(2.0, 6.0)), r4(rng.uniform(2.0, 6.0)))
    return ff.chierici(1.0, r4(rng.uniform(2.001, 10.0)), 1.0)


def admissible_member(rng) -> ff.ModelExpr:
    """The acceptance suite's admissible families, or a product of two."""
    if int(rng.integers(0, 4)) == 3:
        return ff.product(base_member(rng), base_member(rng))
    return base_member(rng)


def ce_member(rng) -> str:
    a = r4(rng.uniform(1.05, 1.5))
    k = int(rng.integers(6, 41))
    if rng.uniform() < 0.5:
        return f"s^{a}*(1 + {r4(rng.uniform(5.0, 30.0))}*s^{k})"
    return f"s^{a}*exp(s^{k})"


def pair_spec(m_a: str, m_b: str) -> dict:
    return {"m_a": m_a, "m_b": m_b}


def golden_of(workload: str, spec: dict, stratum: str) -> dict:
    inp = wl.Input("new", stratum, spec, {}, wl.parse_input(workload, spec))
    tracer = Tracer()
    tracer.install()
    try:
        result, _ = wl.quiet(wl.op, workload, inp)
    finally:
        tracer.uninstall()
    problems = wl.check(workload, inp, result)
    if problems:
        print("\n".join(problems), file=sys.stderr)
    return {"input": spec, "golden": wl.summary(workload, result), "work": tracer.counters["jet.ops"],
            "problems": problems}


def check_pool(rng) -> dict:
    strata = {
        "power": [{"m": str(ff.power(r4(rng.uniform(0.1, 10.0)), r4(rng.uniform(1.05, 8.0))))} for _ in range(128)],
        "brooks_grid": [{"m": str(ff.brooks_b(eta, alpha))}
                        for alpha in (2.0, 2.5, 3.0, 5.0) for eta in (2.0, 2.5, 3.0, 5.0)],
        "brooks": [{"m": str(ff.brooks_b(r4(rng.uniform(1.0, 6.0)), r4(rng.uniform(1.2, 6.0))))}
                   for _ in range(128)],
        "chierici": [{"m": str(ff.chierici(r4(rng.uniform(0.5, 5.0)), r4(rng.uniform(0.5, 10.0)),
                                           r4(rng.uniform(0.5, 2.0))))} for _ in range(128)],
        "product": [{"m": str(ff.product(base_member(rng), base_member(rng)))} for _ in range(128)],
        "counterexample": [{"m": ce_member(rng)} for _ in range(128)],
    }
    per_run = {"power": 48, "brooks_grid": 16, "brooks": 48, "chierici": 48, "product": 48, "counterexample": 48}
    return {"strata": {k: [golden_of("check_sweep", s, k) for s in v] for k, v in strata.items()},
            "per_run": per_run}


def analyze_pool(rng) -> dict:
    strata = {"known": [], "admissible_sym": [], "admissible_asym": [], "counterexample": []}
    for t in wl.CE_INFLECTIONS:
        strata["known"].append(golden_of("analyze_sweep", pair_spec(t, t), "known"))
    for _ in range(128):
        m = str(admissible_member(rng))
        strata["admissible_sym"].append(golden_of("analyze_sweep", pair_spec(m, m), "admissible_sym"))
        spec = pair_spec(str(admissible_member(rng)), str(admissible_member(rng)))
        strata["admissible_asym"].append(golden_of("analyze_sweep", spec, "admissible_asym"))
    for i in range(256):
        m = ce_member(rng)
        spec = pair_spec(m, m if i % 4 else ce_member(rng))
        strata["counterexample"].append(golden_of("analyze_sweep", spec, "counterexample"))
    per_run = {"known": 3, "admissible_sym": 24, "admissible_asym": 24, "counterexample": 48}
    return {"strata": strata, "per_run": per_run}


def riemann_pool(rng) -> dict:
    strata = {"admissible": [], "counterexample": []}
    for i in range(400):
        if i % 2:
            m_a = ce_member(rng)
            m_b = m_a if rng.uniform() < 0.5 else ce_member(rng)
        else:
            m_a = str(admissible_member(rng))
            m_b = m_a if rng.uniform() < 0.5 else str(admissible_member(rng))
        u = rng.uniform()
        if u < 0.25:
            s_L, s_R = (1.0, 0.0) if rng.uniform() < 0.5 else (0.0, 1.0)
        elif u < 0.5:
            end, other = float(rng.integers(0, 2)), r4(rng.uniform(0.02, 0.98))
            s_L, s_R = (end, other) if rng.uniform() < 0.5 else (other, end)
        else:
            s_L, s_R = r4(rng.uniform(0.0, 1.0)), r4(rng.uniform(0.0, 1.0))
        if s_L == s_R:
            continue
        family = "counterexample" if i % 2 else "admissible"
        strata[family].append(golden_of("riemann_fans", {**pair_spec(m_a, m_b), "s_L": s_L, "s_R": s_R}, family))
    # fans of shocks only cost a solve and almost no profile; kept apart and
    # few, so that the op-time median falls among fans with rarefactions
    strata["shock_only"] = [e for f in ("admissible", "counterexample") for e in strata[f]
                            if e["golden"]["n_invert"] == 0]
    for f in ("admissible", "counterexample"):
        strata[f] = [e for e in strata[f] if e["golden"]["n_invert"] > 0]
    return {"strata": strata, "per_run": {"admissible": 20, "counterexample": 20, "shock_only": 10}}


def cli_golden() -> dict:
    env = wl.cli_env(ROOT)
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp)
        for name, _, argv in wl.cli_commands(out):
            proc, _ = wl.run_cli(argv, env, out)
            if proc.returncode != wl.CLI_EXIT[name]:
                raise SystemExit(f"cli {name}: exit {proc.returncode}\n{proc.stderr}")
            golden[name] = wl.cli_digest(name, proc, out)
    return golden


def write(name: str, data: dict) -> None:
    for stratum in data.get("strata", {}).values():
        stratum.sort(key=lambda e: e["work"])
    bad = [p for stratum in data.get("strata", {}).values() for e in stratum for p in e.pop("problems")]
    if bad:
        print(f"{name}: {len(bad)} oracle failures at this commit (kept in the pool)", file=sys.stderr)
    with open(HERE / "data" / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> None:
    (HERE / "data").mkdir(exist_ok=True)
    rng = np.random.default_rng(MASTER_SEED)
    write("check_sweep", check_pool(rng))
    write("analyze_sweep", analyze_pool(rng))
    write("riemann_fans", riemann_pool(rng))
    write("cli", cli_golden())


if __name__ == "__main__":
    main()
