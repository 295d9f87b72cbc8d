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
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import AllocationContext, ValueVector, mean, ratio_vector, threshold_share
from .dispersion import STD_DEV, DispersionMetric, dispersion
from .errors import DomainError, NonFiniteScoreError
from .welfare import benthamite, foster, isoelastic, rawlsian, sen

DIANEMETIC = "dianemetic"
DIORTHOTIC = "diorthotic"

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

BASIS_INPUT = "input"
BASIS_OUTPUT = "output"
BASIS_UTILITY = "utility"


@dataclass(frozen=True)
class PrincipleSpec:
    """One guiding principle plus the parameters its ``_SCORING`` row reads."""

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
        row = _SCORING[p, self.mode]
        other = _SCORING[p, DIORTHOTIC if self.mode == DIANEMETIC else DIANEMETIC]
        if self.basis is not None and row.basis == BASIS_INPUT:
            raise ValueError(f"{p} is always input-based")
        if self.basis not in (None, BASIS_OUTPUT, BASIS_UTILITY):
            raise ValueError(f"unknown basis {self.basis!r}")
        if (self.threshold is not None) != row.threshold:
            raise ValueError("threshold is required for sufficiency and only there")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if (self.rho is not None or self.weights is not None) and not row.welfare:
            raise ValueError("rho/weights apply to the diorthotic greater-good principle only")
        if self.rho is not None and (math.isnan(self.rho) or self.rho < 0.0):
            raise ValueError("rho must be >= 0")
        if self.weights is not None and any(
            not math.isfinite(w) or w <= 0.0 for w in self.weights
        ):
            raise ValueError("weights must be finite and > 0")
        # Variant and metric are checked last, naming the mode when the other mode reads them.
        if self.variant is not None and self.variant not in row.variants:
            where = f" in {self.mode} mode" if self.variant in other.variants else ""
            raise ValueError(f"principle {p!r} has no variant {self.variant!r}{where}")
        if self.metric is not None and not row.metric:
            where = f" in {self.mode} mode" if other.metric else ""
            raise ValueError(f"principle {p!r} takes no dispersion metric{where}")

    def resolved_metric(self) -> DispersionMetric:
        return self.metric or STD_DEV

    def resolved_basis(self) -> str:
        """The basis vector scored: BASIS_OUTPUT, BASIS_UTILITY or BASIS_INPUT."""
        return self.basis or _SCORING[self.principle, self.mode].basis


@dataclass(frozen=True)
class PrincipleScore:
    """A principle's value for one allocation; its direction is ``direction(spec)``."""

    value: float


def direction(spec: PrincipleSpec) -> str:
    """Optimization direction: dianemetic dispersion principles minimize."""
    return _SCORING[spec.principle, spec.mode].direction


def peaks_between_breakpoints(spec: PrincipleSpec) -> bool:
    """Whether the score can peak strictly between the frontier's fixed breakpoints.

    The fixed breakpoints are the ends, equal-value crossings, sufficiency
    edges and the isoelastic maximum; every other score is monotone between
    them. The frontier optimizer adds such a score's critical points, in
    closed form, as further breakpoints.
    """
    row = _SCORING[spec.principle, spec.mode]
    return (spec.variant or row.variants[0], spec.resolved_basis()) in row.interior_peaks


def score(spec: PrincipleSpec, ctx: AllocationContext) -> PrincipleScore:
    """Score one allocation context under one principle spec.

    An arithmetic overflow or a NaN or infinite value raises NonFiniteScoreError.
    """
    scoring = _SCORING[spec.principle, spec.mode]
    b = spec.basis or scoring.basis
    v = ctx.outputs if b == BASIS_OUTPUT else ctx.utilities if b == BASIS_UTILITY else ctx.inputs
    try:
        value = scoring.value(spec, v, ctx.inputs)
    except OverflowError:
        raise NonFiniteScoreError("arithmetic overflow") from None
    if not math.isfinite(value):
        raise NonFiniteScoreError(f"non-finite score {value!r}")
    return PrincipleScore(value)


def score_column(
    spec: PrincipleSpec, vectors: Iterable[ValueVector], inputs: ValueVector
) -> Iterator[float | None]:
    """Score a stream of basis vectors that share one inputs vector.

    Yields what ``score`` would return as the value for each vector, or None
    where ``score`` would raise a domain error.
    """
    value_of = _SCORING[spec.principle, spec.mode].value
    for v in vectors:
        try:
            value = value_of(spec, v, inputs)
        except (OverflowError, DomainError):
            value = None
        else:
            if not math.isfinite(value):
                value = None
        yield value


def _negated(value: float) -> float:
    return 0.0 if value == 0.0 else -value


def _dispersion(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return dispersion(spec.resolved_metric(), v)


def _proportion(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return dispersion(spec.resolved_metric(), ratio_vector(v, x))


def _difference(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return mean(v) if spec.variant == "harsanyian" else rawlsian(v)


def _capability_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return sen(v) if spec.variant == "sen" else foster(v)


def _utility_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    if spec.rho is None and spec.weights is None:
        return benthamite(v)
    return isoelastic(v, spec.weights, 0.0 if spec.rho is None else spec.rho)


def _proportion_welfare(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    if spec.variant == "noop":
        # Free-transaction stance: every allocation is equally fair.
        return 0.0
    return _negated(_proportion(spec, v, x))


def _sufficiency(spec: PrincipleSpec, v: ValueVector, x: ValueVector) -> float:
    return threshold_share(v, spec.threshold)


class _Scoring(NamedTuple):
    direction: str
    # (spec, basis vector, inputs) -> score
    value: Callable[[PrincipleSpec, ValueVector, ValueVector], float]
    basis: str = BASIS_OUTPUT  # the default basis; BASIS_INPUT is fixed
    # The variants read, default first, or (None,) for none; since an unset
    # variant means the default, a value function tests for the others only.
    variants: tuple[str | None, ...] = (None,)
    # Whether the value reads a metric, a threshold, and rho and weights.
    metric: bool = False
    threshold: bool = False
    welfare: bool = False
    # The (variant, basis) pairs whose score can peak strictly between two
    # fixed frontier breakpoints; the frontier optimizer adds their critical
    # points as breakpoints.
    interior_peaks: tuple[tuple[str | None, str], ...] = ()


_DIFFERENCE = _Scoring(MAXIMIZE, _difference, variants=("rawlsian", "harsanyian"))
_GREATER_GOOD = _Scoring(MAXIMIZE, _utility_welfare, BASIS_UTILITY)
_SUFFICIENCY = _Scoring(MAXIMIZE, _sufficiency, threshold=True)

# The one mapping of (principle, mode) to a score and the spec parameters it
# reads; its keys name the principles. Entries reach the dispersion and
# welfare functions through this module's globals at call time, never through
# references captured here, so that patching a module attribute (as
# instrumentation does) reaches every score.
_SCORING = {
    ("difference", DIANEMETIC): _DIFFERENCE,
    ("difference", DIORTHOTIC): _DIFFERENCE,
    ("equality", DIANEMETIC): _Scoring(MINIMIZE, _dispersion, metric=True),
    # foster = mean * exp(-Theil T): on utilities the mean moves along the
    # frontier while exp(-T) is unimodal, so their product can peak between
    # fixed breakpoints, at a root of its closed-form derivative; on outputs
    # the mean is constant and foster is monotone between them.
    ("equality", DIORTHOTIC): _Scoring(
        MAXIMIZE,
        _capability_welfare,
        variants=("foster", "sen"),
        interior_peaks=(("foster", BASIS_UTILITY),),
    ),
    ("equality_of_opportunity", DIANEMETIC): _Scoring(
        MINIMIZE, _dispersion, BASIS_INPUT, metric=True
    ),
    ("equality_of_opportunity", DIORTHOTIC): _Scoring(
        MAXIMIZE, lambda spec, v, x: _negated(_dispersion(spec, v, x)), BASIS_INPUT, metric=True
    ),
    ("greater_good", DIANEMETIC): _GREATER_GOOD,
    ("greater_good", DIORTHOTIC): _GREATER_GOOD._replace(welfare=True),
    ("proportion", DIANEMETIC): _Scoring(MINIMIZE, _proportion, metric=True),
    ("proportion", DIORTHOTIC): _Scoring(
        MAXIMIZE, _proportion_welfare, variants=("dispersion", "noop"), metric=True
    ),
    ("sufficiency", DIANEMETIC): _SUFFICIENCY,
    ("sufficiency", DIORTHOTIC): _SUFFICIENCY,
}
PRINCIPLES = tuple(dict.fromkeys(principle for principle, _ in _SCORING))
