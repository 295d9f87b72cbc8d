"""The benchmark's traced counts, capped per op: one traced op of every case at seed 1.

Each case of three workloads runs once through the benchmark's own loop
(``perfbench/run.py``'s ``measure``) with its tracer installed, and must
pass its output check and stay within its workload's cap. A cap on every
case is at least as strict as one on the average op, and it reads one whole
cycle of cases, whatever mix of cases a timed run happens to hold.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402  (needs fairalloc on the path)
import workloads  # noqa: E402

# workload: (the traced count, the most that one op of any of its cases may make)
CAPS = {
    # the frontier optimizer scores breakpoints, not a grid
    "frontier_opt": ("allocation.objective_evals", 30),
    # an input-based principle is scored once per inputs vector
    "discrete_enum": ("principles.score_calls.equality_of_opportunity", 1),
    # only cells that fall back from their pair kernel build a ValueVector
    "heatmap_grid": ("core.value_vector_calls", 1_000),
}


@pytest.mark.parametrize("name", CAPS)
def test_one_traced_op_of_each_case_keeps_the_cap(name):
    metric, cap = CAPS[name]
    counts = {}
    for case in workloads.build(name, gen.generate(name, 1), 1).cases:
        tally, tracer = run.Tally(), tracing.Tracer()
        run.measure([case], 0.0, tally, tracer)
        assert (tally.attempted, tally.failed) == (1, 0), case.label
        counts[case.label] = tracer.counts[metric]
    assert {label: n for label, n in counts.items() if n > cap} == {}, (metric, counts)
