"""Strict JSON problem-configuration parsing.

The schema is fail-closed: unknown keys are rejected with a path-qualified
message, because a typo in a fairness configuration would otherwise
silently change verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .allocation import ContinuousProblem, DiscreteProblem, Piece
from .core import Agent
from .dispersion import DispersionMetric
from .errors import ConfigError
from .principles import DIANEMETIC, PrincipleSpec

_TOP_KEYS_DISCRETE = {"kind", "agents", "pieces", "labels", "principles", "aggregation"}
_TOP_KEYS_CONTINUOUS = {"kind", "agents", "total", "retention", "principles", "aggregation"}
_AGENT_KEYS = {"id", "input", "weight"}
_PIECE_KEYS = {"amount", "bonus"}
_PRINCIPLE_KEYS = {
    "principle",
    "variant",
    "basis",
    "metric",
    "threshold",
    "mode",
    "rho",
    "weights",
}


@dataclass(frozen=True)
class ProblemConfig:
    """A parsed configuration: the problem plus labelled principle specs."""

    problem: DiscreteProblem | ContinuousProblem
    principle_labels: tuple[str, ...]
    specs: tuple[PrincipleSpec, ...]
    weights: tuple[float, ...]
    candidate_labels: tuple[str, ...] | None = None

    @property
    def kind(self) -> str:
        return "discrete" if isinstance(self.problem, DiscreteProblem) else "continuous"


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _check_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise _fail(path, f"unknown key {unknown[0]!r}")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise _fail(path, f"missing required key {key!r}")
    return obj[key]


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, "expected an object")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, "expected an array")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, "expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise _fail(path, "expected a finite number")
    return out


def _as_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _fail(path, "expected a string")
    return value


def _parse_agents(raw: Any, path: str) -> tuple[Agent, ...]:
    items = _as_list(raw, path)
    if not items:
        raise _fail(path, "at least one agent required")
    agents = []
    for i, item in enumerate(items):
        apath = f"{path}[{i}]"
        obj = _as_dict(item, apath)
        _check_unknown(obj, _AGENT_KEYS, apath)
        agent_id = _as_string(_require(obj, "id", apath), f"{apath}.id")
        value = _as_number(_require(obj, "input", apath), f"{apath}.input")
        weight = _as_number(obj.get("weight", 1.0), f"{apath}.weight")
        try:
            agents.append(Agent(id=agent_id, input=value, weight=weight))
        except ValueError as err:
            raise _fail(apath, str(err)) from None
    if len({a.id for a in agents}) != len(agents):
        raise _fail(path, "agent ids must be unique")
    return tuple(agents)


def _parse_bonus(raw: Any, agents: tuple[Agent, ...], path: str) -> dict[str, float]:
    obj = _as_dict(raw, path)
    known = {a.id for a in agents}
    bonus = {}
    for agent_id, value in obj.items():
        if agent_id not in known:
            raise _fail(path, f"bonus for unknown agent {agent_id!r}")
        bonus[agent_id] = _as_number(value, f"{path}.{agent_id}")
    return bonus


def _parse_discrete(obj: dict, agents: tuple[Agent, ...]) -> DiscreteProblem:
    items = _as_list(_require(obj, "pieces", "$"), "$.pieces")
    pieces = []
    for i, item in enumerate(items):
        ppath = f"$.pieces[{i}]"
        piece = _as_dict(item, ppath)
        _check_unknown(piece, _PIECE_KEYS, ppath)
        amount = _as_number(_require(piece, "amount", ppath), f"{ppath}.amount")
        bonus = _parse_bonus(piece.get("bonus", {}), agents, f"{ppath}.bonus")
        try:
            pieces.append(Piece(amount=amount, bonus=bonus))
        except ValueError as err:
            raise _fail(ppath, str(err)) from None
    try:
        return DiscreteProblem(agents=agents, pieces=tuple(pieces))
    except ValueError as err:
        raise _fail("$.pieces", str(err)) from None


def _parse_continuous(obj: dict, agents: tuple[Agent, ...]) -> ContinuousProblem:
    total = _as_number(_require(obj, "total", "$"), "$.total")
    raw = _as_dict(_require(obj, "retention", "$"), "$.retention")
    retention = {
        agent_id: _as_number(value, f"$.retention.{agent_id}")
        for agent_id, value in raw.items()
    }
    try:
        return ContinuousProblem(agents=agents, total=total, retention=retention)
    except ValueError as err:
        raise _fail("$", str(err)) from None


def _parse_principle(item: Any, path: str, n_agents: int) -> tuple[str, PrincipleSpec]:
    obj = _as_dict(item, path)
    _check_unknown(obj, _PRINCIPLE_KEYS, path)
    name = _as_string(_require(obj, "principle", path), f"{path}.principle")
    mode = _as_string(obj.get("mode", DIANEMETIC), f"{path}.mode")
    variant = obj.get("variant")
    if variant is not None:
        variant = _as_string(variant, f"{path}.variant")
    basis = obj.get("basis")
    if basis is not None:
        basis = _as_string(basis, f"{path}.basis")
    metric = None
    if "metric" in obj:
        text = _as_string(obj["metric"], f"{path}.metric")
        try:
            metric = DispersionMetric.parse(text)
        except ValueError as err:
            raise _fail(f"{path}.metric", str(err)) from None
    threshold = None
    if "threshold" in obj:
        threshold = _as_number(obj["threshold"], f"{path}.threshold")
    rho = None
    if "rho" in obj:
        raw_rho = obj["rho"]
        if raw_rho == "inf":
            rho = math.inf
        else:
            rho = _as_number(raw_rho, f"{path}.rho")
    weights = None
    if "weights" in obj:
        values = _as_list(obj["weights"], f"{path}.weights")
        weights = tuple(
            _as_number(v, f"{path}.weights[{i}]") for i, v in enumerate(values)
        )
        if len(weights) != n_agents:
            raise _fail(f"{path}.weights", f"expected {n_agents} agent weights")
    try:
        spec = PrincipleSpec(
            principle=name,
            mode=mode,
            variant=variant,
            basis=basis,
            metric=metric,
            threshold=threshold,
            rho=rho,
            weights=weights,
        )
    except ValueError as err:
        raise _fail(path, str(err)) from None
    return name, spec


def _parse_aggregation(
    obj: dict, principle_labels: tuple[str, ...]
) -> tuple[float, ...]:
    if "aggregation" not in obj:
        return (1.0,) * len(principle_labels)
    agg = _as_dict(obj["aggregation"], "$.aggregation")
    _check_unknown(agg, {"weights"}, "$.aggregation")
    raw = _as_dict(_require(agg, "weights", "$.aggregation"), "$.aggregation.weights")
    known = set(principle_labels)
    for label in raw:
        if label not in known:
            raise _fail("$.aggregation.weights", f"unknown principle label {label!r}")
    weights = []
    for label in principle_labels:
        value = _as_number(
            raw.get(label, 1.0), f"$.aggregation.weights.{label}"
        )
        if value < 0:
            raise _fail(f"$.aggregation.weights.{label}", "weight must be >= 0")
        weights.append(value)
    return tuple(weights)


def parse_config(data: Any) -> ProblemConfig:
    """Validate a decoded JSON document and build the problem it describes."""
    obj = _as_dict(data, "$")
    kind = _as_string(_require(obj, "kind", "$"), "$.kind")
    if kind == "discrete":
        _check_unknown(obj, _TOP_KEYS_DISCRETE, "$")
    elif kind == "continuous":
        _check_unknown(obj, _TOP_KEYS_CONTINUOUS, "$")
    else:
        raise _fail("$.kind", f"expected 'discrete' or 'continuous', got {kind!r}")

    agents = _parse_agents(_require(obj, "agents", "$"), "$.agents")
    if kind == "discrete":
        problem: DiscreteProblem | ContinuousProblem = _parse_discrete(obj, agents)
    else:
        problem = _parse_continuous(obj, agents)

    raw_principles = _as_list(_require(obj, "principles", "$"), "$.principles")
    if not raw_principles:
        raise _fail("$.principles", "at least one principle required")
    labels: list[str] = []
    specs: list[PrincipleSpec] = []
    for i, item in enumerate(raw_principles):
        label, spec = _parse_principle(item, f"$.principles[{i}]", len(agents))
        if label in labels:
            raise _fail(f"$.principles[{i}]", f"duplicate principle {label!r}")
        labels.append(label)
        specs.append(spec)

    candidate_labels = None
    if kind == "discrete" and "labels" in obj:
        raw_labels = _as_list(obj["labels"], "$.labels")
        candidate_labels = tuple(
            _as_string(v, f"$.labels[{i}]") for i, v in enumerate(raw_labels)
        )
        expected = len(agents) ** len(problem.pieces)
        if len(candidate_labels) != expected:
            raise _fail("$.labels", f"expected {expected} labels (one per allocation)")
        if len(set(candidate_labels)) != len(candidate_labels):
            raise _fail("$.labels", "labels must be unique")

    weights = _parse_aggregation(obj, tuple(labels))
    return ProblemConfig(
        problem=problem,
        principle_labels=tuple(labels),
        specs=tuple(specs),
        weights=weights,
        candidate_labels=candidate_labels,
    )


def load_config(path: str | Path) -> ProblemConfig:
    """Read and parse a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}") from None
    return parse_config(data)
