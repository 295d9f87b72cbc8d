"""Strict JSON problem-configuration parsing.

The schema is fail-closed: unknown keys are rejected with a path-qualified
message, because a typo in a fairness configuration would otherwise
silently change verdicts.

Each JSON object has one schema table below, mapping each key, in reading
order, to ``(reader, default)``; a ``_REQUIRED`` default marks a required
key. A rule about one object is checked by the type built from it
(``Agent``, ``Piece``, ``PrincipleSpec``, the problem classes) and only
gets its path here; ``parse_config`` checks the rules that relate one
top-level key to another.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable

from .allocation import ContinuousProblem, DiscreteProblem, Piece, _checked_agents
from .core import Agent, immutable
from .dispersion import DispersionMetric
from .errors import ConfigError
from .principles import DIANEMETIC, PrincipleSpec


@immutable
class ProblemConfig:
    """A parsed configuration: the problem plus labelled principle specs."""

    problem: DiscreteProblem | ContinuousProblem
    specs: tuple[PrincipleSpec, ...]
    weights: tuple[float, ...]
    candidate_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.candidate_labels is not None:
            object.__setattr__(self, "candidate_labels", tuple(self.candidate_labels))

    @property
    def kind(self) -> str:
        return "discrete" if isinstance(self.problem, DiscreteProblem) else "continuous"

    @property
    def principle_labels(self) -> tuple[str, ...]:
        return tuple(spec.principle for spec in self.specs)


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _built(make: Callable, path: str, *args, **kwargs):
    """Call a constructor, giving its ``ValueError`` the config path."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise _fail(path, str(err)) from None


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
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise _fail(path, "expected a finite number")
    return out


def _as_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _fail(path, "expected a string")
    return value


def _optional_string(value: Any, path: str) -> str | None:
    return None if value is None else _as_string(value, path)


def _as_metric(value: Any, path: str) -> DispersionMetric:
    return _built(DispersionMetric.parse, path, _as_string(value, path))


def _as_rho(value: Any, path: str) -> float:
    return math.inf if value == "inf" else _as_number(value, path)


def _as_kind(value: Any, path: str) -> str:
    kind = _as_string(value, path)
    if kind not in _TOP_LEVEL:
        raise _fail(path, f"expected 'discrete' or 'continuous', got {kind!r}")
    return kind


def _number_map(value: Any, path: str) -> dict[str, float]:
    return {key: _as_number(v, f"{path}.{key}") for key, v in _as_dict(value, path).items()}


def _list_of(read_item: Callable) -> Callable:
    def read(value: Any, path: str) -> tuple:
        items = _as_list(value, path)
        return tuple(read_item(item, f"{path}[{i}]") for i, item in enumerate(items))

    return read


def _object(table: dict, make: Callable = dict) -> Callable:
    def read(value: Any, path: str):
        return _built(make, path, **_read(value, table, path))

    return read


_REQUIRED = object()


def _field(obj: dict, key: str, entry: tuple, path: str) -> Any:
    reader, default = entry
    if key in obj:
        return reader(obj[key], f"{path}.{key}")
    if default is _REQUIRED:
        raise _fail(path, f"missing required key {key!r}")
    return default


def _read(value: Any, table: dict, path: str) -> dict[str, Any]:
    """Check one JSON object against its schema table and read its keys."""
    obj = _as_dict(value, path)
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise _fail(path, f"unknown key {unknown[0]!r}")
    return {key: _field(obj, key, entry, path) for key, entry in table.items()}


_AGENT = {"id": (_as_string, _REQUIRED), "input": (_as_number, _REQUIRED)}
_PIECE = {"amount": (_as_number, _REQUIRED), "bonus": (_number_map, {})}
# Read into a dict, not a PrincipleSpec: parse_config checks the weight
# count against the agents first.
_PRINCIPLE = {
    "principle": (_as_string, _REQUIRED),
    "mode": (_as_string, DIANEMETIC),
    "variant": (_optional_string, None),
    "basis": (_optional_string, None),
    "metric": (_as_metric, None),
    "threshold": (_as_number, None),
    "rho": (_as_rho, None),
    "weights": (_list_of(_as_number), None),
}
_AGGREGATION = {"weights": (_number_map, _REQUIRED)}

_KIND = (_as_kind, _REQUIRED)
_AGENTS = (_list_of(_object(_AGENT, Agent)), _REQUIRED)
_PRINCIPLES = (_list_of(_object(_PRINCIPLE)), _REQUIRED)
_AGGREGATIONS = (_object(_AGGREGATION), None)
_TOP_LEVEL = {
    "discrete": {
        "kind": _KIND,
        "agents": _AGENTS,
        "pieces": (_list_of(_object(_PIECE, Piece)), _REQUIRED),
        "principles": _PRINCIPLES,
        "labels": (_list_of(_as_string), None),
        "aggregation": _AGGREGATIONS,
    },
    "continuous": {
        "kind": _KIND,
        "agents": _AGENTS,
        "total": (_as_number, _REQUIRED),
        "retention": (_number_map, _REQUIRED),
        "principles": _PRINCIPLES,
        "aggregation": _AGGREGATIONS,
    },
}


def _specs(principles: tuple[dict, ...], n_agents: int) -> tuple[PrincipleSpec, ...]:
    if not principles:
        raise _fail("$.principles", "at least one principle required")
    specs: list[PrincipleSpec] = []
    for i, fields in enumerate(principles):
        path = f"$.principles[{i}]"
        if fields["weights"] is not None and len(fields["weights"]) != n_agents:
            raise _fail(f"{path}.weights", f"expected {n_agents} agent weights")
        spec = _built(PrincipleSpec, path, **fields)
        if any(s.principle == spec.principle for s in specs):
            raise _fail(path, f"duplicate principle {spec.principle!r}")
        specs.append(spec)
    return tuple(specs)


def _aggregation_weights(
    aggregation: dict | None, principle_labels: tuple[str, ...]
) -> tuple[float, ...]:
    raw = {} if aggregation is None else aggregation["weights"]
    for label in raw:
        if label not in principle_labels:
            raise _fail("$.aggregation.weights", f"unknown principle label {label!r}")
    weights = tuple(raw.get(label, 1.0) for label in principle_labels)
    for label, weight in zip(principle_labels, weights):
        if weight < 0:
            raise _fail(f"$.aggregation.weights.{label}", "weight must be >= 0")
    if not any(w > 0 for w in weights):
        raise _fail("$.aggregation.weights", "at least one weight must be positive")
    return weights


def parse_config(data: Any) -> ProblemConfig:
    """Validate a decoded JSON document and build the problem it describes."""
    kind = _field(_as_dict(data, "$"), "kind", _KIND, "$")
    doc = _read(data, _TOP_LEVEL[kind], "$")
    agents = _built(_checked_agents, "$.agents", doc["agents"])
    if kind == "discrete":
        problem: DiscreteProblem | ContinuousProblem = _built(
            DiscreteProblem, "$.pieces", agents=agents, pieces=doc["pieces"]
        )
    else:
        problem = _built(
            ContinuousProblem, "$", agents=agents, total=doc["total"], retention=doc["retention"]
        )
    specs = _specs(doc["principles"], len(agents))
    candidate_labels = doc.get("labels")  # discrete documents only
    if candidate_labels is not None:
        expected = len(agents) ** len(problem.pieces)
        if len(candidate_labels) != expected:
            raise _fail("$.labels", f"expected {expected} labels (one per allocation)")
        if len(set(candidate_labels)) != len(candidate_labels):
            raise _fail("$.labels", "labels must be unique")
    return ProblemConfig(
        problem=problem,
        specs=specs,
        weights=_aggregation_weights(doc["aggregation"], tuple(s.principle for s in specs)),
        candidate_labels=candidate_labels,
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads would keep the last of a repeated key; a config must say one thing
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str | Path) -> ProblemConfig:
    """Read and parse a JSON configuration file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}") from None
    except (ValueError, RecursionError) as err:  # not UTF-8, too many digits, too deep, a key twice
        raise ConfigError(f"{path}: invalid JSON: {err}") from None
    return parse_config(data)
