"""The benchmark's traced counts, capped per op: one traced op of every case at seed 1.

Each case of three workloads runs once through the benchmark's own loop
(``perfbench/run.py``'s ``measure``) with its tracer installed, and must
pass its output check and stay within its workload's caps. A cap on every
case is at least as strict as one on the average op, and it reads one whole
cycle of cases, whatever mix of cases a timed run happens to hold.

The heatmap CSV that ``heatmap_grid`` times is checked here byte for byte,
since the benchmark's own check counts its lines and empty fields alone, and
so is the stdout table of each ``discrete_enum`` ranking, which no workload
times or checks.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402

run.import_library()

from fairalloc.cli import _print_table  # noqa: E402

import oracles  # noqa: E402  (needs fairalloc on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

# workload: each (traced count, the most that one op of any of its cases may make)
CAPS = {
    "frontier_opt": [
        # the frontier optimizer scores breakpoints, not a grid
        ("allocation.objective_evals", 30),
        # an input-based principle is scored once on the frontier and once in the ranking
        ("principles.score_calls.equality_of_opportunity", 2),
    ],
    # an input-based principle is scored once per inputs vector
    "discrete_enum": [("principles.score_calls.equality_of_opportunity", 1)],
    # only cells that fall back from their pair kernel build a ValueVector
    "heatmap_grid": [("core.value_vector_calls", 1_000)],
}


@pytest.mark.parametrize("name", CAPS)
def test_one_traced_op_of_each_case_keeps_the_cap(name):
    over = {}
    for case in workloads.build(name, gen.generate(name, 1), 1).cases:
        tally, tracer = run.Tally(), tracing.Tracer()
        run.measure([case], 0.0, tally, tracer)
        assert (tally.attempted, tally.failed) == (1, 0), case.label
        for metric, cap in CAPS[name]:
            if tracer.counts[metric] > cap:
                over[case.label, metric] = tracer.counts[metric]
    assert over == {}


def test_the_measured_heatmaps_are_written_as_a_row_writer_writes_them():
    cases = workloads.build("heatmap_grid", gen.generate("heatmap_grid", 1), 1).cases
    maps = [case.run() for case in cases]
    for cells, text in maps:
        expected = oracles.heatmap_csv_by_row(cells)
        # the first lines that differ, not a diff of some 90k lines
        differ = [(a, b) for a, b in zip(text.splitlines(), expected.splitlines()) if a != b]
        assert (text.count("\n"), differ[:3]) == (expected.count("\n"), [])
    # they hold a blank column 0 in every row, and a mirrored square
    n = len(maps[0][0].axis)
    assert sum(all(s is None for s in cells.scores[::n]) for cells, _ in maps) == 2
    transposed = [tuple(cells.scores[col * n + row] for row in range(n) for col in range(n))
                  for cells, _ in maps]
    assert any(cells.scores == t for (cells, _), t in zip(maps, transposed))


def test_the_measured_rankings_print_as_a_print_per_line_prints_them():
    cases = workloads.build("discrete_enum", gen.generate("discrete_enum", 1), 1).cases
    sizes = []
    for case in cases:
        _, table, _ = case.run()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            _print_table(table)
        text, expected = buffer.getvalue(), oracles.print_table_by_line(table)
        differ = [(a, b) for a, b in zip(text.splitlines(), expected.splitlines()) if a != b]
        assert (text.count("\n"), differ[:3]) == (expected.count("\n"), [])
        assert text == expected
        sizes.append(len(table.candidates))
    assert sizes == [2**14, 3**9]
