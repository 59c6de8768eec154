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
        analyze = dict(tracer.counters)
        workloads.quiet(workloads.op, "riemann_fans", workloads.build("riemann_fans", 1)[0])
    finally:
        tracer.uninstall()

    brackets = analyze["classifier.brackets"]
    assert brackets == 539
    assert analyze["classifier.bisect_evals"] <= 6 * brackets
    assert tracer.counters["riemann.invert_evals"] > 0
    calls = tracer.aggregate((0, spans.Counter()))["calls"]
    assert calls["riemann.solve"] == 1 and calls["riemann._bisect"] > 0
    assert saved and all(getattr(owner, attr) is original for owner, attr, original in saved)
