"""The benchmark's workloads, each run once as a check of the calls they make.

``perfbench/workloads.py`` is imported as it stands, from its directory; the
timing, repetition and tracing of ``perfbench/run.py`` are left out.  Each
workload's set-up, inputs, one solve and its boundary probe must run with
no failed operation, so a change that breaks a call the benchmark makes
into rdlab fails here rather than only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))
import workloads  # noqa: E402

# (faces tried, faces that raised) of each workload that probes its boundary:
# the 4 x 6 boundary faces of the 6 x 6 P2 sweep mesh, none raising
PROBES = {"family_sweep_p2_euler": (24, 0)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    problem = workload.setup()
    inputs = workload.inputs(problem)
    outcome = workload.solve(problem, inputs)
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert workload.boundary_probe(problem, inputs) == PROBES.get(name)
