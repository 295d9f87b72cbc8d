"""The six guiding principles and their quantitative scoring.

Each principle can be scored in two modes: dianemetic (a statistic of the
allocation, suited to a central allocator) or diorthotic (a welfare
function, suited to transactions between individuals). A principle is
scored on a basis vector: outputs y, utilities u, or, for equality of
opportunity, always inputs x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import AllocationContext, ValueVector, mean, min_value, ratio_vector, threshold_share
from .dispersion import STD_DEV, DispersionMetric, dispersion
from .welfare import benthamite, foster, isoelastic, rawlsian, sen

DIFFERENCE = "difference"
EQUALITY = "equality"
EQUALITY_OF_OPPORTUNITY = "equality_of_opportunity"
GREATER_GOOD = "greater_good"
PROPORTION = "proportion"
SUFFICIENCY = "sufficiency"

PRINCIPLES = (
    DIFFERENCE,
    EQUALITY,
    EQUALITY_OF_OPPORTUNITY,
    GREATER_GOOD,
    PROPORTION,
    SUFFICIENCY,
)

DIANEMETIC = "dianemetic"
DIORTHOTIC = "diorthotic"

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

BASIS_OUTPUT = "output"
BASIS_UTILITY = "utility"

_DEFAULT_BASIS = {
    DIFFERENCE: BASIS_OUTPUT,
    EQUALITY: BASIS_OUTPUT,
    GREATER_GOOD: BASIS_UTILITY,
    PROPORTION: BASIS_OUTPUT,
    SUFFICIENCY: BASIS_OUTPUT,
}

_VARIANTS = {
    DIFFERENCE: ("rawlsian", "harsanyian"),
    EQUALITY: ("foster", "sen"),
    PROPORTION: ("dispersion", "noop"),
}


@dataclass(frozen=True)
class PrincipleSpec:
    """One guiding principle plus the parameters needed to score it."""

    principle: str
    mode: str = DIANEMETIC
    variant: str | None = None
    basis: str | None = None
    metric: DispersionMetric | None = None
    threshold: float | None = None
    rho: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        p = self.principle
        if p not in PRINCIPLES:
            raise ValueError(f"unknown principle {p!r}")
        if self.mode not in (DIANEMETIC, DIORTHOTIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.variant is not None and self.variant not in _VARIANTS.get(p, ()):
            raise ValueError(f"principle {p!r} has no variant {self.variant!r}")
        if self.basis is not None:
            if p == EQUALITY_OF_OPPORTUNITY:
                raise ValueError("equality_of_opportunity is always input-based")
            if self.basis not in (BASIS_OUTPUT, BASIS_UTILITY):
                raise ValueError(f"unknown basis {self.basis!r}")
        if (self.threshold is not None) != (p == SUFFICIENCY):
            raise ValueError("threshold is required for sufficiency and only there")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        # The principles that minimize in dianemetic mode are exactly those
        # that score a dispersion metric.
        if self.metric is not None and _SCORING[p, DIANEMETIC].direction != MINIMIZE:
            raise ValueError(f"principle {p!r} takes no dispersion metric")
        if self.rho is not None or self.weights is not None:
            if not (p == GREATER_GOOD and self.mode == DIORTHOTIC):
                raise ValueError(
                    "rho/weights apply to the diorthotic greater-good principle only"
                )
        if self.rho is not None and (math.isnan(self.rho) or self.rho < 0.0):
            raise ValueError("rho must be >= 0")
        if self.weights is not None and any(
            not math.isfinite(w) or w <= 0.0 for w in self.weights
        ):
            raise ValueError("weights must be finite and > 0")

    def resolved_basis(self) -> str:
        if self.principle == EQUALITY_OF_OPPORTUNITY:
            return "input"
        return self.basis or _DEFAULT_BASIS[self.principle]

    def resolved_metric(self) -> DispersionMetric:
        return self.metric or STD_DEV

    def resolved_variant(self) -> str | None:
        return self.variant or _VARIANTS.get(self.principle, (None,))[0]


@dataclass(frozen=True)
class PrincipleScore:
    """A principle's value for one allocation plus its optimization direction."""

    spec: PrincipleSpec
    value: float
    direction: str


def direction(spec: PrincipleSpec) -> str:
    """Optimization direction: dianemetic dispersion principles minimize."""
    return _SCORING[spec.principle, spec.mode].direction


def score(spec: PrincipleSpec, ctx: AllocationContext) -> PrincipleScore:
    """Score one allocation context under one principle spec."""
    scoring = _SCORING[spec.principle, spec.mode]
    basis = ctx.utilities if spec.resolved_basis() == BASIS_UTILITY else ctx.outputs
    return PrincipleScore(spec, scoring.value(spec, basis, ctx.inputs), scoring.direction)


def _negated(value: float) -> float:
    return 0.0 if value == 0.0 else -value


def _difference(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return mean(v) if spec.resolved_variant() == "harsanyian" else min_value(v)


def _maximin_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return mean(v) if spec.resolved_variant() == "harsanyian" else rawlsian(v)


def _capability_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return sen(v) if spec.resolved_variant() == "sen" else foster(v)


def _utility_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    if spec.rho is None and spec.weights is None:
        return benthamite(v)
    return isoelastic(v, spec.weights, 0.0 if spec.rho is None else spec.rho)


def _proportion_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    if spec.resolved_variant() == "noop":
        # Free-transaction stance: every allocation is equally fair.
        return 0.0
    return _negated(dispersion(spec.resolved_metric(), ratio_vector(v, x)))


def _sufficiency(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return threshold_share(v, spec.threshold)


class _Scoring(NamedTuple):
    direction: str
    # (spec, basis vector, inputs) -> score
    value: Callable[[PrincipleSpec, ValueVector, ValueVector], float]


# The one mapping of (principle, mode) to a score. Entries reach the
# dispersion and welfare functions through this module's globals at call
# time, never through references captured here, so that patching a module
# attribute (as instrumentation does) reaches every score.
_SCORING = {
    (DIFFERENCE, DIANEMETIC): _Scoring(MAXIMIZE, _difference),
    (DIFFERENCE, DIORTHOTIC): _Scoring(MAXIMIZE, _maximin_welfare),
    (EQUALITY, DIANEMETIC): _Scoring(
        MINIMIZE, lambda spec, v, x: dispersion(spec.resolved_metric(), v)
    ),
    (EQUALITY, DIORTHOTIC): _Scoring(MAXIMIZE, _capability_welfare),
    (EQUALITY_OF_OPPORTUNITY, DIANEMETIC): _Scoring(
        MINIMIZE, lambda spec, v, x: dispersion(spec.resolved_metric(), x)
    ),
    (EQUALITY_OF_OPPORTUNITY, DIORTHOTIC): _Scoring(
        MAXIMIZE, lambda spec, v, x: _negated(dispersion(spec.resolved_metric(), x))
    ),
    (GREATER_GOOD, DIANEMETIC): _Scoring(MAXIMIZE, lambda spec, v, x: math.fsum(v.values)),
    (GREATER_GOOD, DIORTHOTIC): _Scoring(MAXIMIZE, _utility_welfare),
    (PROPORTION, DIANEMETIC): _Scoring(
        MINIMIZE,
        lambda spec, v, x: dispersion(spec.resolved_metric(), ratio_vector(v, x)),
    ),
    (PROPORTION, DIORTHOTIC): _Scoring(MAXIMIZE, _proportion_welfare),
    (SUFFICIENCY, DIANEMETIC): _Scoring(MAXIMIZE, _sufficiency),
    (SUFFICIENCY, DIORTHOTIC): _Scoring(MAXIMIZE, _sufficiency),
}
