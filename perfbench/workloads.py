"""Benchmark workloads: the timed ops, their output checks and golden anchors.

A workload is a list of cases run round-robin. Each case has a timed
``run`` that calls fairalloc's public functions on generated inputs, the
number of work units one op completes, and a ``check`` that validates the
op's output outside the timed region. The library modules are looked up
by attribute at call time, so the tracer's wrappers take effect while they
are installed.

Import this module only after ``fairalloc`` is importable.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import checks
import gen

alloc = importlib.import_module("fairalloc.allocation")
cli = importlib.import_module("fairalloc.cli")
config = importlib.import_module("fairalloc.config")
core = importlib.import_module("fairalloc.core")
disp = importlib.import_module("fairalloc.dispersion")
errors = importlib.import_module("fairalloc.errors")
presets = importlib.import_module("fairalloc.presets")
principles = importlib.import_module("fairalloc.principles")
welf = importlib.import_module("fairalloc.welfare")

MB = float(1 << 20)


@dataclass
class Case:
    label: str
    units: int  # work units one op completes; see UNIT_NAMES
    run: Callable[[], object]
    # check(output, expected_errors) -> problems; counts expected domain
    # errors by name into the Counter.
    check: Callable[[object, Counter], list[str]]
    # Discrete cases only: () -> (enumerate peak MB, evaluate peak MB).
    probe_memory: Callable[[], tuple[float, float]] | None = None


@dataclass
class Workload:
    cases: list[Case]
    anchors: list[tuple[str, Callable[[], list[str]]]] = field(default_factory=list)


# What one work unit is, per workload, and the name the throughput is
# reported under in the human-readable summary.
UNIT_NAMES = {
    "discrete_enum": ("candidates_per_s", "candidates ranked, CSV included"),
    "frontier_opt": ("problems_per_s", "continuous problems ranked, CSV included"),
    "heatmap_grid": ("cells_per_s", "heatmap cells, undefined cells and CSV included"),
    "wide_vectors": ("values_per_s", "vector elements x functions evaluated"),
}


def parse_all(inputs: dict) -> list:
    """Parse the generated config documents the way ``load_config`` does."""
    return [config.parse_config(json.loads(text)) for text in gen.config_texts(inputs)]


def build(workload: str, inputs: dict, seed: int) -> Workload:
    cfgs = parse_all(inputs)
    rng = random.Random(f"checks:{workload}:{seed}")
    if workload == "discrete_enum":
        cases = [
            _discrete_case(f"{len(c.problem.agents)}x{len(c.problem.pieces)}", c, rng)
            for c in cfgs
        ]
        return Workload(cases, [("cake golden", _cake_golden)])
    if workload == "frontier_opt":
        fishermen = presets.load_preset("fishermen")
        cases = [_frontier_case("fishermen", fishermen, _fishermen_verdicts)]
        cases += [_frontier_case(f"synthetic{i + 1}", c, None) for i, c in enumerate(cfgs)]
        return Workload(cases, [("fishermen golden", _fishermen_golden)])
    if workload == "heatmap_grid":
        (cfg,) = cfgs
        return Workload([
            _heatmap_case(label, cfg.problem, spec, rng)
            for label, spec in zip(cfg.principle_labels, cfg.specs)
        ])
    return Workload([_wide_case(inputs)])


# -- discrete_enum ---------------------------------------------------------

def _discrete_case(label: str, cfg, rng: random.Random) -> Case:
    problem = cfg.problem
    n_agents, n_pieces = len(problem.agents), len(problem.pieces)
    count = n_agents**n_pieces
    sample = rng.sample(range(count), min(64, count))

    def run():
        allocations = alloc.enumerate_discrete(problem)
        contexts = [alloc.evaluate_discrete(problem, a) for a in allocations]
        names = [f"scenario {i + 1}" for i in range(len(allocations))]
        table = alloc.build_ranking(names, contexts, cfg.principle_labels, cfg.specs, cfg.weights)
        return allocations, table, cli._evaluate_csv(table)

    def check(out, expected_errors):
        allocations, table, text = out
        problems = []
        if len(allocations) != count or len({a.assignment for a in allocations}) != count:
            problems.append(f"enumeration is not the {count} distinct assignments")
        if len(table.contexts) != len(allocations):
            return problems + ["one context per allocation required"]
        for ctx in table.contexts:
            if len(ctx.outputs) != n_agents or not checks.close(math.fsum(ctx.outputs), 1.0):
                problems.append("a candidate's outputs do not sum to one")
                break
        for i in sample:
            problems += _check_discrete_context(problem, allocations[i], table.contexts[i])
        problems += checks.check_table(table, cfg.weights)
        problems += checks.check_evaluate_csv(text, table)
        return problems

    def probe_memory():
        tracemalloc.start()
        try:
            allocations = alloc.enumerate_discrete(problem)
            enumerate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            contexts = [alloc.evaluate_discrete(problem, a) for a in allocations]
            evaluate_peak = tracemalloc.get_traced_memory()[1] - held
            del contexts, allocations
        finally:
            tracemalloc.stop()
        return enumerate_peak / MB, evaluate_peak / MB

    return Case(label, count, run, check, probe_memory)


def _check_discrete_context(problem, allocation, ctx) -> list[str]:
    """Recompute one candidate's outputs and utilities from its assignment."""
    n = len(problem.agents)
    outputs = [[] for _ in range(n)]
    utilities = [[] for _ in range(n)]
    for piece, owner in zip(problem.pieces, allocation.assignment):
        outputs[owner].append(piece.amount)
        utilities[owner] += [piece.amount, piece.bonus.get(problem.agents[owner].id, 0.0)]
    for i in range(n):
        if not (checks.close(ctx.outputs[i], math.fsum(outputs[i]))
                and checks.close(ctx.utilities[i], math.fsum(utilities[i]))
                and ctx.inputs[i] == problem.agents[i].input):
            return [f"assignment {allocation.assignment}: wrong values for agent {i}"]
    return []


def _rank1(table, principle: str) -> set[str]:
    p = table.principles.index(principle)
    return {table.candidates[c] for c, r in enumerate(table.ranks[p]) if r == 1}


def _cake_golden() -> list[str]:
    """Acceptance criterion 1: the cake verdicts."""
    cfg = presets.load_preset("cake")
    table = alloc.discrete_ranking(
        cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights, labels=cfg.candidate_labels
    )
    problems = checks.check_table(table, cfg.weights)
    expected = {
        "difference": {"scenario 5"},
        "greater_good": {"scenario 5"},
        "equality": {"scenario 3"},
        "proportion": {"scenario 1"},
        "sufficiency": {"scenario 3", "scenario 4", "scenario 5"},
    }
    for principle, want in expected.items():
        if _rank1(table, principle) != want:
            problems.append(f"cake {principle}: rank 1 is {sorted(_rank1(table, principle))}")
    p = table.principles.index("sufficiency")
    passing = {table.candidates[c] for c, s in enumerate(table.scores[p]) if s == 1.0}
    if passing != expected["sufficiency"]:
        problems.append(f"cake sufficiency: passing set is {sorted(passing)}")
    p = table.principles.index("difference")
    if not checks.close(table.scores[p][table.candidates.index("scenario 5")], 0.7):
        problems.append("cake difference: scenario 5 does not score 0.7")
    return problems


# -- frontier_opt ----------------------------------------------------------

def _frontier_case(label: str, cfg, verdicts) -> Case:
    problem = cfg.problem
    total = problem.total
    # Best score of each principle on a 101-point frontier grid. Every grid
    # point is also on the optimizer's default grid, so each principle's
    # optimum must score at least this well.
    grid = [total * i / 100 for i in range(100)] + [total]
    grid_best = []
    for spec in cfg.specs:
        values = [
            principles.score(spec, alloc.frontier_context(problem, core.ValueVector((t, total - t)))).value
            for t in grid
        ]
        minimize = principles.direction(spec) == principles.MINIMIZE
        grid_best.append(min(values) if minimize else max(values))

    def run():
        table = alloc.continuous_ranking(
            problem, cfg.principle_labels, cfg.specs, cfg.weights, resolution=gen.FRONTIER_RESOLUTION
        )
        return table, cli._evaluate_csv(table)

    def check(out, expected_errors):
        table, text = out
        problems = checks.check_table(table, cfg.weights)
        problems += checks.check_evaluate_csv(text, table)
        for ctx in table.contexts:
            if not checks.close(math.fsum(ctx.outputs), total, abs_tol=1e-9):
                problems.append(f"candidate {list(ctx.outputs)} is off the frontier")
        for p, principle in enumerate(table.principles):
            minimize = table.directions[p] == principles.MINIMIZE
            best = min(table.scores[p]) if minimize else max(table.scores[p])
            slack = 1e-9 * max(1.0, abs(grid_best[p]))
            if best > grid_best[p] + slack if minimize else best < grid_best[p] - slack:
                problems.append(f"{label} {principle}: best candidate {best!r} is worse "
                                f"than the grid optimum {grid_best[p]!r}")
        if verdicts is not None:
            problems += verdicts(table)
        return problems

    return Case(label, 1, run, check)


def _fishermen_verdicts(table) -> list[str]:
    """The rank-1 candidates of the fishermen ranking (criterion 3)."""
    problems = []
    expect = {"difference": 3.5, "equality": 3.5, "proportion": 2.8, "greater_good": 7.0}
    for principle, t_star in expect.items():
        p = table.principles.index(principle)
        winners = [table.contexts[c].outputs[0] for c, r in enumerate(table.ranks[p]) if r == 1]
        if not any(abs(t - t_star) <= 0.01 for t in winners):
            problems.append(f"fishermen {principle}: rank 1 at t={winners}, expected {t_star}")
    return problems


def _fishermen_golden() -> list[str]:
    """Acceptance criterion 3: frontier optima and the [2, 5] plateau."""
    cfg = presets.load_preset("fishermen")
    by_label = dict(zip(cfg.principle_labels, cfg.specs))
    problems = []
    for principle, t_star, tol in (
        ("difference", 3.5, 0.01),
        ("equality", 3.5, 0.01),
        ("proportion", 2.8, 0.01),
        ("greater_good", 7.0, 0.0),
    ):
        shares, _ = alloc.optimize_frontier(cfg.problem, by_label[principle], gen.FRONTIER_RESOLUTION)
        if abs(shares[0] - t_star) > tol:
            problems.append(f"fishermen {principle}: optimum t={shares[0]!r}, expected {t_star}")
    for k in range(31):
        t = 2.0 + 3.0 * k / 30.0
        ctx = alloc.frontier_context(cfg.problem, core.ValueVector([t, 7.0 - t]))
        if principles.score(by_label["sufficiency"], ctx).value != 1.0:
            problems.append(f"fishermen sufficiency: t={t} is not on the plateau")
    return problems


# -- heatmap_grid ----------------------------------------------------------

def _heatmap_case(label: str, problem, spec, rng: random.Random) -> Case:
    size = gen.HEATMAP_GRID + 1
    n_cells = size * size
    band = problem.total / gen.HEATMAP_GRID
    retention = problem.retention_factors()
    undefined_on_zero = label in gen.HEATMAP_UNDEFINED_ON_ZERO
    sample = rng.sample(range(n_cells), 32)

    def rescore(cell):
        shares = (cell.y_a, cell.y_b)
        ctx = core.AllocationContext(
            inputs=problem.inputs,
            outputs=core.ValueVector(shares),
            utilities=core.ValueVector(r * y for r, y in zip(retention, shares)),
        )
        return principles.score(spec, ctx).value

    def run():
        cells = alloc.heatmap(problem, spec, gen.HEATMAP_GRID)
        return cells, cli._heatmap_csv(cells)

    def check(out, expected_errors):
        cells, text = out
        if len(cells) != n_cells:
            return [f"heatmap {label}: {len(cells)} cells, expected {n_cells}"]
        problems = []
        first_row = [c.y_b for c in cells[:size]]
        if first_row[0] != 0.0 or first_row[-1] != problem.total or \
                any(b <= a for a, b in zip(first_row, first_row[1:])):
            problems.append(f"heatmap {label}: y_b axis is not 0..total ascending")
        undefined = 0
        for i in range(size):
            row = cells[i * size:(i + 1) * size]
            y_a = row[0].y_a
            for cell, y_b in zip(row, first_row):
                if cell.y_a != y_a or cell.y_b != y_b:
                    return problems + [f"heatmap {label}: cells are not row-major"]
                if cell.on_frontier != (abs(cell.y_a + cell.y_b - problem.total) <= band):
                    return problems + [f"heatmap {label}: wrong on_frontier flag"]
                if cell.score is None:
                    undefined += 1
                    if not (undefined_on_zero and (cell.y_a == 0.0 or cell.y_b == 0.0)):
                        return problems + [f"heatmap {label}: unexpected undefined cell"]
                    try:
                        rescore(cell)
                        return problems + [f"heatmap {label}: undefined cell scores fine"]
                    except errors.DomainError as err:
                        expected_errors[err.name] += 1
                elif undefined_on_zero and (cell.y_a == 0.0 or cell.y_b == 0.0):
                    return problems + [f"heatmap {label}: zero share scored"]
        for i in sample:
            if cells[i].score is not None and not checks.close(cells[i].score, rescore(cells[i])):
                problems.append(f"heatmap {label}: cell {i} differs from a direct score")
        problems += checks.check_heatmap_csv(text, n_cells, undefined)
        return problems

    return Case(label, n_cells, run, check)


# -- wide_vectors ----------------------------------------------------------

def _wide_functions(metric_names):
    """(name, callable(ValueVector) -> float) for every wide-vector function."""
    functions = [
        (name, lambda v, m=disp.DispersionMetric.parse(name): disp.dispersion(m, v))
        for name in metric_names
    ]
    welfare = {
        "sen": lambda v: welf.sen(v),
        "foster": lambda v: welf.foster(v),
        "isoelastic(0.5)": lambda v: welf.isoelastic(v, None, 0.5),
        "isoelastic(2)": lambda v: welf.isoelastic(v, None, 2.0),
        "rawlsian": lambda v: welf.rawlsian(v),
        "benthamite": lambda v: welf.benthamite(v),
    }
    functions += [(name, welfare[name]) for name in gen.WIDE_WELFARE]
    return functions


def _wide_case(inputs: dict) -> Case:
    vectors = inputs["vectors"]
    functions = _wide_functions(inputs["metrics"])
    expected = {
        (kind, name): checks.reference(name, raw)
        for kind, raw in vectors.items()
        for name, _ in functions
    }
    units = sum(len(raw) for raw in vectors.values()) * len(functions)

    def run():
        results = {}
        for kind, raw in vectors.items():
            v = core.ValueVector(raw)
            for name, fn in functions:
                try:
                    results[kind, name] = fn(v)
                except errors.DomainError as err:
                    # Keep the name only: the exception's traceback would
                    # keep this op's vectors alive until a cyclic collection.
                    results[kind, name] = err.name
        return results

    def check(results, expected_errors):
        problems = []
        for key, want in expected.items():
            got = results.get(key)
            if want is None:
                if isinstance(got, str):
                    expected_errors[got] += 1
                else:
                    problems.append(f"{key}: expected a domain error, got {got!r}")
            elif not isinstance(got, float) or not checks.close(got, want):
                problems.append(f"{key}: got {got!r}, reference {want!r}")
        return problems

    return Case("vectors", units, run, check)
