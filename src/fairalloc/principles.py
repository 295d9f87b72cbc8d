"""The six guiding principles and their quantitative scoring.

Each principle can be scored in two modes: dianemetic (a statistic of the
allocation, suited to a central allocator) or diorthotic (a welfare
function, suited to transactions between individuals). A principle is
scored on a basis vector: outputs y, utilities u, or, for equality of
opportunity, always inputs x.
"""

from __future__ import annotations

import math
import sys
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


def frontier_breakpoints(spec: PrincipleSpec, total: float, a: float, b: float) -> list[float]:
    """Splits t of a two-agent frontier (t, total - t) where the score can turn.

    a and b multiply the agents' shares on the spec's basis: the retention
    factors on utilities, 1 otherwise. With the ends and the points of equal
    value added, the score is monotone between neighbouring breakpoints.
    """
    return _SCORING[spec.principle, spec.mode].breakpoints(spec, total, a, b)


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


def _edge(holds: Callable[[float], bool], inside: float, outside: float) -> float:
    """The float next to ``outside``'s side at which monotone ``holds`` last holds.

    ``holds`` is true at ``inside`` and false at ``outside``; halving the gap
    between them ends at two neighbouring floats.
    """
    while (mid := inside + (outside - inside) / 2.0) not in (inside, outside):
        if holds(mid):
            inside = mid
        else:
            outside = mid
    return inside


def _threshold_crossings(total: float, threshold: float, a: float, b: float) -> list[float]:
    """Where each agent's value on the frontier (t, total - t) crosses the threshold.

    Agent a is sufficient from t_a on, the least float t with a * t >=
    threshold, so a plateau of sufficiency keeps its left end; agent b is
    sufficient up to t_b, the greatest float t with b * (total - t) >=
    threshold. An agent sufficient everywhere or nowhere on [0, total] has
    no crossing.
    """
    crossings = []
    if 0.0 < threshold <= a * total:
        crossings.append(_edge(lambda t: a * t >= threshold, total, 0.0))
    if 0.0 < threshold <= b * total:
        crossings.append(_edge(lambda t: b * (total - t) >= threshold, 0.0, total))
    return crossings


def _isoelastic_max(spec: PrincipleSpec, total: float, a: float, b: float) -> list[float]:
    # isoelastic welfare with 0 < rho < inf is concave on the frontier, with its maximum
    # at t = total / (1 + q), q = (w_b b^(1-rho) / (w_a a^(1-rho)))^(1/rho)
    weights = spec.weights or (1.0, 1.0)
    if spec.rho is None or not 0.0 < spec.rho < math.inf or len(weights) != 2:
        return []
    e = 1.0 - spec.rho
    try:
        q = (weights[1] * b**e / (weights[0] * a**e)) ** (1.0 / spec.rho)
    except (OverflowError, ZeroDivisionError):
        return []  # q is past the float range
    return [total / (1.0 + q)]


def _log_ratio(p: float, q: float) -> float:
    """ln(p / q) for p, q > 0: the log of the quotient where it is a normal float."""
    r = p / q
    return math.log(r) if sys.float_info.min <= r < math.inf else math.log(p) - math.log(q)


def _foster_peaks(total: float, a: float, b: float) -> list[float]:
    """Floats around each local maximum of foster on the utilities (a t, b (total - t)).

    foster = mean * exp(-Theil T): where a != b the mean moves along the
    frontier while exp(-T) is unimodal, so their product can peak between
    the other breakpoints; with a == b (always so on outputs) the mean is
    constant and the only peak is total / 2, the point of equal value.
    With U = a t + b (total - t), d ln foster / dt has the sign of g(t) =
    (a - b) U / total - a b ln(a t / (b (total - t))). g falls from +inf at
    0 to -inf at total and turns only where (t / total)(1 - t / total) =
    a b / (a - b)^2, so it has at most three monotone stretches. For each
    stretch on which g falls through 0, the last float with g > 0 and its
    successor are returned; they bracket the exact root. A float bisection
    finds the root to within a few floats, and g's sign in 50-digit decimal
    arithmetic moves it to the exact float.
    """
    if a == b:
        return []
    # g's sign is unchanged by scaling a and b alike; scaled to a max of 1,
    # the product a b cannot underflow to 0
    m = max(a, b)
    a_1, b_1 = a / m, b / m
    log_ab = _log_ratio(a, b)

    def rises(t: float) -> bool:  # g(t) > 0 in float arithmetic
        s = total - t
        u = a_1 * (t / total) + b_1 * (s / total)
        return (a_1 - b_1) * u > a_1 * b_1 * (log_ab + _log_ratio(t, s))

    import decimal  # here, not at the top: loading it adds about 3 ms to every start-up

    # 50 digits tell g's sign apart between neighbouring floats; with no
    # trap, an exp past the decimal range compares as infinite
    exact = decimal.Context(prec=50, traps=[])

    def rises_exactly(t: float) -> bool:  # exp((a - b) U / (a b total)) > a t / (b (total - t))
        with decimal.localcontext(exact):
            w, x, ca, cb = (decimal.Decimal(v) for v in (total, t, a, b))
            ua, ub = ca * x, cb * (w - x)
            return ((ca - cb) * (ua + ub) / (w * ca * cb)).exp() > ua / ub

    ends = [0.0, total]
    r = m / min(a, b)
    if (d := r - 2.0 + 1.0 / r) >= 4.0:  # g turns where x (1 - x) = 1 / d, x = t / total
        t = total * (2.0 / d / (1.0 + math.sqrt(1.0 - 4.0 / d)))
        ends[1:1] = [t for t in (t, total - t) if 0.0 < t < total]
    signs = [True, *map(rises, ends[1:-1]), False]
    peaks = []
    for lo, hi, up, down in zip(ends, ends[1:], signs, signs[1:]):
        if not up or down:
            continue
        t = _edge(rises, lo, hi)
        inside, outside, step = t, math.nextafter(t, hi), math.ulp(t)
        while inside > lo and not rises_exactly(inside):
            inside, step = max(lo, inside - step), 2.0 * step
        while outside < hi and rises_exactly(outside):
            outside, step = min(hi, outside + step), 2.0 * step
        t = _edge(rises_exactly, inside, outside)
        peaks += [t, math.nextafter(t, hi)]
    return peaks


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
    # (spec, total w, a, b) -> where the score can turn on the frontier; see frontier_breakpoints.
    breakpoints: Callable[..., list[float]] = lambda spec, w, a, b: []


_DIFFERENCE = _Scoring(MAXIMIZE, _difference, variants=("rawlsian", "harsanyian"))
_GREATER_GOOD = _Scoring(MAXIMIZE, _utility_welfare, BASIS_UTILITY)
_SUFFICIENCY = _Scoring(
    MAXIMIZE,
    _sufficiency,
    threshold=True,
    breakpoints=lambda spec, w, a, b: _threshold_crossings(w, spec.threshold, a, b),
)

# The one mapping of (principle, mode) to a score and the spec parameters it
# reads; its keys name the principles. Entries reach the dispersion and
# welfare functions through this module's globals at call time, never through
# references captured here, so that patching a module attribute (as
# instrumentation does) reaches every score.
_SCORING = {
    ("difference", DIANEMETIC): _DIFFERENCE,
    ("difference", DIORTHOTIC): _DIFFERENCE,
    ("equality", DIANEMETIC): _Scoring(MINIMIZE, _dispersion, metric=True),
    ("equality", DIORTHOTIC): _Scoring(
        MAXIMIZE,
        _capability_welfare,
        variants=("foster", "sen"),
        breakpoints=lambda spec, w, a, b: [] if spec.variant == "sen" else _foster_peaks(w, a, b),
    ),
    ("equality_of_opportunity", DIANEMETIC): _Scoring(
        MINIMIZE, _dispersion, BASIS_INPUT, metric=True
    ),
    ("equality_of_opportunity", DIORTHOTIC): _Scoring(
        MAXIMIZE, lambda spec, v, x: _negated(_dispersion(spec, v, x)), BASIS_INPUT, metric=True
    ),
    ("greater_good", DIANEMETIC): _GREATER_GOOD,
    ("greater_good", DIORTHOTIC): _GREATER_GOOD._replace(welfare=True, breakpoints=_isoelastic_max),
    ("proportion", DIANEMETIC): _Scoring(MINIMIZE, _proportion, metric=True),
    ("proportion", DIORTHOTIC): _Scoring(
        MAXIMIZE, _proportion_welfare, variants=("dispersion", "noop"), metric=True
    ),
    ("sufficiency", DIANEMETIC): _SUFFICIENCY,
    ("sufficiency", DIORTHOTIC): _SUFFICIENCY,
}
PRINCIPLES = tuple(dict.fromkeys(principle for principle, _ in _SCORING))
