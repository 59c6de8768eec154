"""The benchmark's pool goldens and oracles on one seed's draw, so that a
drift in the library's answers shows up in the test suite and not only in a
benchmark run.  perfbench/workloads.py is imported as it is, read only."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["analyze_sweep", "check_sweep", "riemann_fans"])
def test_seed_one_matches_the_goldens_and_oracles(workload):
    failures = []
    for inp in workloads.build(workload, 1):
        result, _ = workloads.quiet(workloads.op, workload, inp)
        digest = workloads.summary(workload, result)
        failures += workloads.golden_mismatch(workload, inp, digest)
        failures += workloads.check(workload, inp, result)
    assert not failures, failures[:3]
