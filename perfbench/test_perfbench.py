"""Tests of the benchmark itself: inputs, checks, tracing and names.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

import calibrate
import checks
import gen
import run

run.import_library()

import tracing  # noqa: E402  (needs fairalloc on the path)
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = gen.digest(gen.generate(workload, 11))
    assert gen.digest(gen.generate(workload, 11)) == first
    assert gen.digest(gen.generate(workload, 12)) != first


def test_generated_configs_parse():
    for workload in gen.WORKLOADS:
        inputs = gen.generate(workload, 3)
        assert len(workloads.parse_all(inputs)) == len(inputs["configs"])


def _small_discrete_case():
    n_agents, _, specs = gen.DISCRETE_SHAPES[0]
    doc = gen.discrete_doc(random.Random(5), n_agents, 5, specs)
    cfg = workloads.config.parse_config(doc)
    return workloads._discrete_case("2x5", cfg, random.Random(0)), cfg


def _corrupt(monkeypatch, change):
    original = workloads.alloc.build_ranking

    def corrupted(*args, **kwargs):
        return change(original(*args, **kwargs))

    monkeypatch.setattr(workloads.alloc, "build_ranking", corrupted)


def _ops_failed(case):
    tally = run.Tally()
    run.measure([case], 0.0, tally)
    return tally.attempted, tally.failed


def test_clean_op_passes():
    case, _ = _small_discrete_case()
    assert _ops_failed(case) == (1, 0)


def test_corrupted_rank_counts_as_failed(monkeypatch):
    case, _ = _small_discrete_case()

    def swap_first_ranks(table):
        ranks = list(table.ranks[1])
        best = ranks.index(1)
        worst = ranks.index(max(ranks))
        ranks[best], ranks[worst] = ranks[worst], ranks[best]
        return dataclasses.replace(table, ranks=(table.ranks[0], tuple(ranks), *table.ranks[2:]))

    _corrupt(monkeypatch, swap_first_ranks)
    assert _ops_failed(case) == (1, 1)


def test_corrupted_borda_point_counts_as_failed(monkeypatch):
    case, _ = _small_discrete_case()

    def bump_borda(table):
        return dataclasses.replace(table, borda=(table.borda[0] + 1.0, *table.borda[1:]))

    _corrupt(monkeypatch, bump_borda)
    assert _ops_failed(case) == (1, 1)


def test_raising_op_counts_as_failed(monkeypatch):
    case, _ = _small_discrete_case()

    def boom(table):
        raise RuntimeError("boom")

    _corrupt(monkeypatch, boom)
    assert _ops_failed(case) == (1, 1)


def test_rank_check_accepts_ties_within_rounding_noise():
    scores = [0.3, 0.30000000000000004, 0.1]
    assert checks.check_competition_ranks(scores, [1, 1, 3], "maximize", "t") == []
    assert checks.check_competition_ranks(scores, [2, 1, 3], "maximize", "t") == []
    assert checks.check_competition_ranks(scores, [1, 2, 3], "minimize", "t") != []
    assert checks.check_competition_ranks(scores, [1, 1, 2], "maximize", "t") != []
    assert checks.check_competition_ranks([0.5, 0.5], [1, 2], "maximize", "t") != []


def test_tracer_restores_the_library():
    originals = {
        "score": workloads.alloc.score,
        "dispersion": workloads.principles.dispersion,
        "init": workloads.core.ValueVector.__init__,
    }
    tracer = tracing.Tracer()
    tracer.install()
    assert workloads.alloc.score is not originals["score"]
    workloads.core.ValueVector([1.0, 2.0])
    tracer.remove()
    assert workloads.alloc.score is originals["score"]
    assert workloads.principles.dispersion is originals["dispersion"]
    assert workloads.core.ValueVector.__init__ is originals["init"]
    assert tracer.counts["core.value_vector_calls"] == 1


def test_traced_op_records_layers():
    case, _ = _small_discrete_case()
    tracer = tracing.Tracer()
    tally = run.Tally()
    run.measure([case], 0.0, tally, tracer)
    assert tally.failed == 0
    assert tracer.counts["allocation.candidates"] == 32
    assert tracer.counts["principles.score_calls.equality"] == 32
    assert tracer.self_s["allocation.evaluate_discrete_s"] > 0.0


def test_reference_scaling():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(ref, ref) == pytest.approx(1.0)
    # A host running at half speed doubles both the op and the task.
    assert 2.0 * calibrate.scale(2 * ref, 2 * ref) == pytest.approx(1.0)
    assert calibrate.task_seconds() > 0.0


def test_names_are_valid_and_match_the_code():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run._per_layer_units()


def test_command_stays_inside_the_benchmark():
    command = BENCHMARK["command"]
    assert command[0] == "python3"
    assert Path(command[1]).parts[0] in BENCHMARK["paths"]
