"""Seeded input generator for the benchmark workloads.

Everything here is plain data (JSON-compatible dicts and float lists) built
from ``random.Random(seed)``; the library is never imported, so the inputs
handed to fairalloc depend on the seed alone. The same seed gives
byte-identical inputs (see ``digest``).

The structure of each workload (problem shapes, principle specs, metric
choices) is fixed; the seed draws the numbers: agent inputs, piece sizes,
bonuses, totals, retention factors, thresholds, rho exponents and
aggregation weights. Keeping the structure fixed keeps the work per op
comparable across seeds, which the run-to-run spread bounds rely on.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("discrete_enum", "frontier_opt", "heatmap_grid", "wide_vectors")

# Each discrete case is (agents, pieces, principle specs without thresholds).
# Every metric here is defined when an agent receives nothing (zero output
# or utility), so no enumerated candidate raises; metrics that need
# positive values are applied to the agents' inputs only.
DISCRETE_SHAPES = (
    (
        2,
        14,
        (
            {"principle": "difference", "variant": "rawlsian", "basis": "utility"},
            {"principle": "equality", "basis": "output", "metric": "gini"},
            {"principle": "equality_of_opportunity", "metric": "theil_l"},
            {"principle": "greater_good", "basis": "utility"},
            {"principle": "proportion", "basis": "utility", "metric": "hoover"},
            {"principle": "sufficiency", "basis": "output"},
        ),
    ),
    (
        3,
        9,
        (
            {"principle": "difference", "variant": "harsanyian", "basis": "utility"},
            {"principle": "equality", "basis": "utility", "metric": "atkinson(0.5)"},
            {"principle": "equality_of_opportunity", "metric": "std_dev"},
            {"principle": "greater_good", "basis": "output"},
            {"principle": "proportion", "basis": "output", "metric": "theil_t"},
            {"principle": "sufficiency", "basis": "utility"},
        ),
    ),
)

# Diorthotic principle sets for the frontier workload. Every function is
# defined on the whole frontier, endpoints included (isoelastic rho < 1 or
# inf, zero-tolerant dispersion metrics on the ratio vector). Across the
# three sets every variant of every principle appears.
FRONTIER_SETS = (
    (
        {"principle": "difference", "variant": "rawlsian", "basis": "output"},
        {"principle": "equality", "variant": "foster", "basis": "output"},
        {"principle": "equality_of_opportunity", "metric": "gini"},
        {"principle": "greater_good", "basis": "utility", "rho": "draw"},
        {"principle": "proportion", "variant": "dispersion", "basis": "output", "metric": "std_dev"},
        {"principle": "sufficiency", "basis": "output"},
    ),
    (
        {"principle": "difference", "variant": "harsanyian", "basis": "utility"},
        {"principle": "equality", "variant": "sen", "basis": "utility"},
        {"principle": "equality_of_opportunity", "metric": "theil_l"},
        {"principle": "greater_good", "basis": "utility", "rho": "inf"},
        {"principle": "proportion", "variant": "noop"},
        {"principle": "sufficiency", "basis": "utility"},
    ),
    (
        {"principle": "difference", "variant": "rawlsian", "basis": "utility"},
        {"principle": "equality", "variant": "foster", "basis": "utility"},
        {"principle": "equality_of_opportunity", "metric": "atkinson(1)"},
        {"principle": "greater_good", "basis": "output", "rho": "draw", "weights": "draw"},
        {"principle": "proportion", "variant": "dispersion", "basis": "utility", "metric": "hoover"},
        {"principle": "sufficiency", "basis": "output"},
    ),
)

# Principles of the heatmap problem, one heatmap per op in this order.
# ``theil_l`` and ``atkinson(1)`` are undefined wherever a share is zero,
# so their y=0 row and column exercise the domain-error path; the
# isoelastic welfare is defined everywhere. Three principles rather than
# all six keep about six ops of each in one run, which the median needs.
HEATMAP_PRINCIPLES = (
    {"principle": "equality", "basis": "output", "metric": "theil_l"},
    {"principle": "greater_good", "basis": "utility", "mode": "diorthotic", "rho": "draw"},
    {"principle": "proportion", "basis": "output", "metric": "atkinson(1)"},
)
HEATMAP_UNDEFINED_ON_ZERO = ("equality", "proportion")
HEATMAP_GRID = 300

FRONTIER_RESOLUTION = 10_001  # the CLI default

WIDE_SIZE = 100_000
WIDE_KINDS = ("lognormal", "pareto", "with_zeros")
WIDE_ZERO_SHARE = 0.05
WIDE_METRICS = (
    "gini",
    "atkinson(0.5)",
    "atkinson(1)",
    "atkinson(2)",
    "atkinson(inf)",
    "herfindahl",
    "hoover",
    "palma",
    "std_dev",
    "theil_t",
    "theil_l",
)
WIDE_WELFARE = ("sen", "foster", "isoelastic(0.5)", "isoelastic(2)", "rawlsian", "benthamite")


def _agents(rng: random.Random, n: int) -> list[dict]:
    return [
        {"id": chr(ord("A") + i), "input": round(rng.uniform(0.5, 20.0), 3)}
        for i in range(n)
    ]


def _weights(rng: random.Random, principles: list[dict]) -> dict:
    return {
        "weights": {p["principle"]: round(rng.uniform(0.25, 3.0), 2) for p in principles}
    }


def discrete_doc(rng: random.Random, n_agents: int, n_pieces: int, specs) -> dict:
    """A discrete problem with seeded inputs, piece sizes and bonuses."""
    agents = _agents(rng, n_agents)
    raw = [rng.uniform(0.2, 1.0) for _ in range(n_pieces)]
    total = math.fsum(raw)
    pieces = []
    for x in raw:
        bonus = {
            a["id"]: round(rng.uniform(0.0, 0.15), 4)
            for a in agents
            if rng.random() < 0.6
        }
        pieces.append({"amount": x / total, "bonus": bonus})
    share = 1.0 / n_agents
    principles = []
    for spec in specs:
        spec = dict(spec)
        if spec["principle"] == "sufficiency":
            spec["threshold"] = round(rng.uniform(0.6, 1.3) * share, 4)
        principles.append(spec)
    return {
        "kind": "discrete",
        "agents": agents,
        "pieces": pieces,
        "principles": principles,
        "aggregation": _weights(rng, principles),
    }


def continuous_doc(rng: random.Random, specs, mode: str | None) -> dict:
    """A two-agent continuous problem; the total spans 1e-2 to 1e6."""
    agents = _agents(rng, 2)
    total = round(10.0 ** rng.uniform(-2.0, 6.0), 6)
    retention = {a["id"]: round(rng.uniform(0.5, 1.0), 3) for a in agents}
    principles = []
    for spec in specs:
        spec = dict(spec)
        if mode is not None:
            spec["mode"] = mode
        if spec.get("rho") == "draw":
            spec["rho"] = round(rng.uniform(0.1, 0.9), 3)
        if spec.get("weights") == "draw":
            spec["weights"] = [round(rng.uniform(0.5, 2.0), 3) for _ in agents]
        if spec["principle"] == "sufficiency":
            # Strictly inside (0, total), so the plateau is a proper interval.
            spec["threshold"] = round(rng.uniform(0.1, 0.45) * total, 6)
        principles.append(spec)
    return {
        "kind": "continuous",
        "agents": agents,
        "total": total,
        "retention": retention,
        "principles": principles,
        "aggregation": _weights(rng, principles),
    }


def wide_vector(rng: random.Random, kind: str) -> list[float]:
    """``WIDE_SIZE`` nonnegative values drawn from the named distribution."""
    if kind == "lognormal":
        return [rng.lognormvariate(0.0, 1.0) for _ in range(WIDE_SIZE)]
    if kind == "pareto":
        return [rng.paretovariate(2.5) for _ in range(WIDE_SIZE)]
    return [
        0.0 if rng.random() < WIDE_ZERO_SHARE else rng.lognormvariate(1.0, 0.75)
        for _ in range(WIDE_SIZE)
    ]


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload for one seed.

    Returns ``{"presets": [...], "configs": [...], "metrics": [...],
    "vectors": {...}}``: built-in presets run as golden anchors, config
    documents for the parser, dispersion metric names, and raw value lists.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out: dict = {"presets": [], "configs": [], "metrics": [], "vectors": {}}
    if workload == "discrete_enum":
        out["presets"] = ["cake"]
        out["configs"] = [discrete_doc(rng, n, p, specs) for n, p, specs in DISCRETE_SHAPES]
    elif workload == "frontier_opt":
        out["presets"] = ["fishermen"]
        out["configs"] = [continuous_doc(rng, specs, "diorthotic") for specs in FRONTIER_SETS]
    elif workload == "heatmap_grid":
        out["configs"] = [continuous_doc(rng, HEATMAP_PRINCIPLES, None)]
    else:
        out["metrics"] = list(WIDE_METRICS)
        out["vectors"] = {kind: wide_vector(rng, kind) for kind in WIDE_KINDS}
    return out


def config_texts(inputs: dict) -> list[str]:
    """The config documents as the JSON text a config file would hold."""
    return [json.dumps(doc) for doc in inputs["configs"]]


def digest(inputs: dict) -> str:
    """SHA-256 of the canonical JSON encoding of generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
