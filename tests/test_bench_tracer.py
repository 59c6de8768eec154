"""The benchmark's tracer on one seed's draw: every name it patches must
exist, its counts must match the refinement's cost, and uninstalling must
put the originals back.  perfbench/spans.py and perfbench/workloads.py are
imported as they are, read only."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_counts_seed_one_and_restores_the_patched_names():
    tracer = spans.Tracer()
    tracer.install()
    saved = list(tracer._saved)
    try:
        for inp in workloads.build("analyze_sweep", 1):
            workloads.quiet(workloads.op, "analyze_sweep", inp)
        analyze = spans.Counter(tracer.counters)
        fans = []  # riemann counters of the draw's first two fans: one arc, then a shock and an arc
        for inp in workloads.build("riemann_fans", 1)[:2]:
            before = spans.Counter(tracer.counters)
            workloads.quiet(workloads.op, "riemann_fans", inp)
            fans.append({k: v for k, v in (tracer.counters - before).items() if k.startswith("riemann.")})
    finally:
        tracer.uninstall()

    brackets = analyze["classifier.brackets"]
    assert brackets == 539
    assert analyze["classifier.bisect_evals"] <= 6 * brackets
    # a rewrite that stops a counted name from being called reads 0 here
    assert fans == [
        {"riemann.hull_points": 4097, "riemann.hull_vertices": 4088, "riemann.pieces": 1,
         "riemann.invert_evals": 3},
        {"riemann.hull_points": 4097, "riemann.hull_vertices": 369, "riemann.refine_evals": 19,
         "riemann.pieces": 2, "riemann.invert_evals": 9},
    ]
    calls = tracer.aggregate((0, spans.Counter()))["calls"]
    assert calls["riemann.solve"] == 2 and calls["riemann._bisect"] > 0
    assert saved and all(getattr(owner, attr) is original for owner, attr, original in saved)
