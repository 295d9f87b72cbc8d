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
from bisect import bisect_left
from dataclasses import field
from itertools import repeat
from typing import Callable, NamedTuple

from .core import (
    AllocationContext,
    Pair,
    ValueVector,
    immutable,
    mean,
    ratio_vector,
    threshold_share,
)
from .dispersion import PAIR_KERNELS, STD_DEV, DispersionMetric, dispersion
from .errors import DomainError, NonFiniteScoreError
from .welfare import benthamite, foster, isoelastic, isoelastic_pair, rawlsian, sen

DIANEMETIC = "dianemetic"
DIORTHOTIC = "diorthotic"

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

BASIS_INPUT = "input"
BASIS_OUTPUT = "output"
BASIS_UTILITY = "utility"


@immutable
class PrincipleSpec:
    """One guiding principle plus the parameters its ``_SCORING`` row reads.

    A spec is resolved when built to the one form that its principle, mode
    and variant select, on its own basis; every scoring function reads it.
    The form's pair kernel, if it has one, is resolved then too, with the
    spec's parameters bound in.
    """

    principle: str
    mode: str = DIANEMETIC
    variant: str | None = None
    basis: str | None = None
    metric: DispersionMetric | None = None
    threshold: float | None = None
    rho: float | None = None
    weights: tuple[float, ...] | None = None
    _form: _Form = field(init=False, compare=False, repr=False)
    _pair: Pair | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
        p = self.principle
        if p not in PRINCIPLES:
            raise ValueError(f"unknown principle {p!r}")
        if self.mode not in (DIANEMETIC, DIORTHOTIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        row = _SCORING[p, self.mode]
        other = _SCORING[p, DIORTHOTIC if self.mode == DIANEMETIC else DIANEMETIC]
        default = next(iter(row.forms.values()))
        if self.basis is not None and default.basis == BASIS_INPUT:
            raise ValueError(f"{p} is always input-based")
        if self.basis not in (None, BASIS_OUTPUT, BASIS_UTILITY):
            raise ValueError(f"unknown basis {self.basis!r}")
        if (self.threshold is not None) != row.threshold:
            raise ValueError("threshold is required for sufficiency and only there")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        welfare = self.rho is not None or self.weights is not None
        if welfare and not row.welfare:
            raise ValueError("rho/weights apply to the diorthotic greater-good principle only")
        if self.rho is not None and (math.isnan(self.rho) or self.rho < 0.0):
            raise ValueError("rho must be >= 0")
        if self.weights is not None and any(
            not math.isfinite(w) or w <= 0.0 for w in self.weights
        ):
            raise ValueError("weights must be finite and > 0")
        # Variant and metric are checked last, naming the mode when the other mode reads them.
        if self.variant is not None and self.variant not in row.forms:
            where = f" in {self.mode} mode" if self.variant in other.forms else ""
            raise ValueError(f"principle {p!r} has no variant {self.variant!r}{where}")
        if self.metric is not None and not row.metric:
            where = f" in {self.mode} mode" if other.metric else ""
            raise ValueError(f"principle {p!r} takes no dispersion metric{where}")
        if self.metric is not None and not isinstance(self.metric, DispersionMetric):
            raise ValueError(f"metric must be a DispersionMetric, got {self.metric!r}")
        form = _ISOELASTIC if welfare else row.forms.get(self.variant, default)
        object.__setattr__(self, "_form", form._replace(basis=self.basis or form.basis))
        object.__setattr__(self, "_pair", None if form.pair is None else form.pair(self))

    def resolved_metric(self) -> DispersionMetric:
        return self.metric or STD_DEV


@immutable
class PrincipleScore:
    """A principle's value for one allocation; its direction is ``direction(spec)``."""

    value: float


def direction(spec: PrincipleSpec) -> str:
    """Optimization direction: dianemetic dispersion principles minimize."""
    return spec._form.direction


def input_based(spec: PrincipleSpec) -> bool:
    """Whether the spec's form reads the inputs alone: it scores a problem's allocations alike."""
    return spec._form.basis == BASIS_INPUT


def weighs_two_alike(spec: PrincipleSpec) -> bool:
    """Whether the spec weighs two agents alike: it sets no weights, or two equal ones.

    Every statistic and welfare function is invariant, bit for bit, under
    permuting its vector; only welfare weights tell agents apart. So where
    this holds, swapping the two elements of a vector that a form reads
    leaves its score unchanged.
    """
    w = spec.weights
    return w is None or (len(w) == 2 and w[0] == w[1])


def frontier_scales(
    spec: PrincipleSpec, retention: tuple[float, ...], inputs: tuple[float, ...]
) -> tuple[float, float, float, float]:
    """(a, b, p, q): the spec's form reads two agents' shares (s, t) as (a s / p, b t / q).

    a and b are the agents' retention factors where the spec is scored on
    utilities, and 1 otherwise; p and q are their inputs where the form reads
    its basis vector over the inputs, and 1 otherwise.
    """
    form = spec._form
    a, b = retention if form.basis == BASIS_UTILITY else (1.0, 1.0)
    p, q = inputs if form.over_inputs else (1.0, 1.0)
    return a, b, p, q


def frontier_breakpoints(
    spec: PrincipleSpec, total: float, retention: tuple[float, ...], inputs: tuple[float, ...]
) -> list[float]:
    """Every split t of a two-agent frontier (t, total - t) where the score can turn.

    retention and inputs are the two agents', read as ``frontier_scales``
    says. With the ends added, the score is monotone between neighbouring
    breakpoints, so a form that declares none (a linear or constant score)
    turns only at the ends.
    """
    return spec._form.breakpoints(spec, total, *frontier_scales(spec, retention, inputs))


def score(spec: PrincipleSpec, ctx: AllocationContext) -> PrincipleScore:
    """Score one allocation context under one principle spec.

    An arithmetic overflow or a NaN or infinite value raises NonFiniteScoreError.
    """
    form = spec._form
    b = form.basis
    v = ctx.outputs if b == BASIS_OUTPUT else ctx.utilities if b == BASIS_UTILITY else ctx.inputs
    if form.over_inputs:
        v = ratio_vector(v, ctx.inputs)
    try:
        value = form.value(spec, v)
    except OverflowError:
        raise NonFiniteScoreError("arithmetic overflow") from None
    if not math.isfinite(value):
        raise NonFiniteScoreError(f"non-finite score {value!r}")
    return PrincipleScore(value)


def score_square(
    spec: PrincipleSpec, axis: list[float], retention: tuple[float, ...], inputs: tuple[float, ...]
) -> list[float | None]:
    """The spec's score at each point (s, t) of the square ``axis`` x ``axis``, row-major.

    s and t are the shares of two agents with the given retention factors and
    inputs, and ``axis`` ascends and is finite and >= 0. A value is what
    ``score`` gives at the point, or None where it would raise a domain error.
    An input-based spec is scored once. Otherwise each axis point is prescaled
    once per agent as ``frontier_scales`` says; a zero input blanks every cell,
    and a ratio past the float range the rows and columns from it on. Where
    the prescaled axes are equal and the spec weighs two agents alike, the
    upper triangle, diagonal included, is scored and mirrored. A cell is scored
    by the spec's pair kernel (see ``core``) where it has one that gives a
    finite value, else by the form's value on ``ValueVector((s, t))``.
    """
    n = len(axis)
    if input_based(spec):
        return [_vector_value(spec, *inputs)] * n**2
    a, b, p, q = frontier_scales(spec, retention, inputs)
    if 0.0 in (p, q):  # every ratio is undefined
        return [None] * n**2
    axis_a, axis_b = [a * y / p for y in axis], [b * y / q for y in axis]
    # each prescaled axis ascends, so its infs come last
    rows, cols = bisect_left(axis_a, math.inf), bisect_left(axis_b, math.inf)
    mirror = axis_a == axis_b and weighs_two_alike(spec)
    kernel = spec._pair
    scores = [None] * n**2
    for row, s in enumerate(axis_a[:rows]):
        first = row if mirror else 0
        ts = axis_b[first:cols]
        if kernel is None:
            values = [_vector_value(spec, s, t) for t in ts]
        else:
            values = list(map(kernel, repeat(s), ts))
            if not math.isfinite(sum(values)):  # some value is inf or NaN
                values = [v if math.isfinite(v) else _vector_value(spec, s, t)
                          for v, t in zip(values, ts)]
        k = row * n
        scores[k + first:k + cols] = values
        if mirror:  # the scores right of the diagonal go below it, down column row
            scores[k + n + row:cols * n:n] = scores[k + row + 1:k + cols]
    return scores


def _vector_value(spec: PrincipleSpec, s: float, t: float) -> float | None:
    try:
        value = spec._form.value(spec, ValueVector((s, t)))
    except (OverflowError, DomainError):
        return None
    return value if math.isfinite(value) else None


def _negated(value: float) -> float:
    return 0.0 if value == 0.0 else -value


def _dispersion(spec: PrincipleSpec, v: ValueVector) -> float:
    return dispersion(spec.resolved_metric(), v)


def _negated_dispersion(spec: PrincipleSpec, v: ValueVector) -> float:
    return _negated(_dispersion(spec, v))


def _dispersion_pair(spec: PrincipleSpec) -> Pair | None:
    return PAIR_KERNELS.get(spec.resolved_metric())


def _at_equal_value(
    spec: PrincipleSpec, w: float, a: float, b: float, p: float, q: float
) -> list[float]:
    # the one turn of a score whose extremum or kink is at equal value as its form reads it
    return _equal_value(w, a, b, p, q)


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


def _edge_from(
    holds: Callable[[float], bool], guess: float, inside: float, outside: float, step: float
) -> float:
    """``_edge(holds, inside, outside)``, bracketed first from a guess near the edge.

    From ``guess`` the step doubles toward ``outside`` while ``holds`` holds,
    or toward ``inside`` while it fails, until a point on the other side of
    the edge brackets it; a guess k steps off then costs about 2 log2 k
    calls. ``holds`` is taken to hold at ``inside`` and fail at
    ``outside``; it is called there only where the guess is one of them.
    """
    hold = holds(guess)
    end = outside if hold else inside
    t = guess
    while t != end:
        t = min(end, t + step) if t < end else max(end, t - step)
        if t == end or holds(t) != hold:
            break
        guess, step = t, 2.0 * step
    return _edge(holds, guess, t) if hold else _edge(holds, t, guess)


def _equal_value(total: float, a: float, b: float, p: float = 1.0, q: float = 1.0) -> list[float]:
    """The split t where a t / p == b (total - t) / q, or none where no t is.

    In the form that is exact on round inputs; where that overflows, the
    quotient is divided first, and it is exact where that underflows to 0 / 0.
    """
    if (den := a * q + b * p) <= 0.0:
        return []
    t = total * b * p / den
    if math.isinf(den) or not math.isfinite(t):
        try:
            t = total * (0.5 * b * p / (0.5 * a * q + 0.5 * b * p))
        except ZeroDivisionError:
            from fractions import Fraction  # here, not at the top: it loads decimal
            bp = Fraction(b) * Fraction(p)
            t = float(Fraction(total) * bp / (Fraction(a) * Fraction(q) + bp))
    return [t]


def _threshold_crossings(total: float, threshold: float, a: float, b: float) -> list[float]:
    """Where each agent's value on the frontier (t, total - t) crosses the threshold.

    Agent a is sufficient from t_a on, the least float t with a * t >=
    threshold, so a plateau of sufficiency keeps its left end; agent b is
    sufficient up to t_b, the greatest float t with b * (total - t) >=
    threshold. An agent sufficient everywhere or nowhere on [0, total] has
    no crossing. Each is searched from its closed form, threshold / a or
    total - threshold / b, which rounding leaves near the edge.
    """
    crossings = []
    if 0.0 < threshold <= a * total:
        t = min(total, threshold / a)
        crossings.append(_edge_from(lambda t: a * t >= threshold, t, total, 0.0, math.ulp(t)))
    if 0.0 < threshold <= b * total:
        # steps on the grid of total - t, which may be coarser than t's
        t = max(0.0, total - threshold / b)
        step = math.ulp(max(t, total - t))
        crossings.append(_edge_from(lambda t: b * (total - t) >= threshold, t, 0.0, total, step))
    return crossings


def _isoelastic_max(
    spec: PrincipleSpec, total: float, a: float, b: float, p: float, q: float
) -> list[float]:
    # linear where rho is unset or 0; at rho = inf the Rawlsian minimum, which
    # peaks at equal value; with 0 < rho < inf concave on the frontier, with
    # its maximum at t = total / (1 + r), r = (w_b b^(1-rho) / (w_a a^(1-rho)))^(1/rho)
    if spec.rho == math.inf:
        return _equal_value(total, a, b)
    weights = spec.weights or (1.0, 1.0)
    if spec.rho is None or spec.rho == 0.0 or len(weights) != 2:
        return []
    e = 1.0 - spec.rho
    try:
        r = (weights[1] * b**e / (weights[0] * a**e)) ** (1.0 / spec.rho)
    except (OverflowError, ZeroDivisionError):
        return []  # r is past the float range
    return [total / (1.0 + r)]


def _log_ratio(p: float, q: float) -> float:
    """ln(p / q) for p, q > 0: the log of the quotient where it is a normal float."""
    r = p / q
    return math.log(r) if sys.float_info.min <= r < math.inf else math.log(p) - math.log(q)


def _foster_peaks(total: float, a: float, b: float) -> list[float]:
    """Floats around each local maximum of foster on the utilities (a t, b (total - t)).

    foster = mean * exp(-Theil T): with a == b (always so on outputs) the
    mean is constant and the only peak is the point of equal value, which
    is returned alone; where a != b the mean moves along the frontier
    while exp(-T) is unimodal, so their product peaks elsewhere. With U =
    a t + b (total - t), d ln foster / dt has the sign of g(t) =
    (a - b) U / total - a b ln(a t / (b (total - t))). g falls from +inf at
    0 to -inf at total and turns only where (t / total)(1 - t / total) =
    a b / (a - b)^2, so it has at most three monotone stretches. For each
    stretch on which g falls through 0, the last float with g > 0 and its
    successor are returned; they bracket the exact root. A float bisection
    finds the root to within a few floats, and g's sign in 50-digit decimal
    arithmetic moves it to the exact float.
    """
    if a == b:
        return _equal_value(total, a, b)
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
        t = _edge_from(rises_exactly, t, lo, hi, math.ulp(t))
        peaks += [t, math.nextafter(t, hi)]
    return peaks


class _Form(NamedTuple):
    """The one score a spec resolves to, and where it can turn on a frontier.

    ``value`` reads one vector and nothing else: the basis vector, or, for a
    form ``over_inputs``, the basis vector divided element-wise by the
    inputs, which ``score`` builds once per context and ``score_square`` once
    per axis point. ``pair`` gives the same score of a two-element vector as a
    pair kernel on its two values, where the form has one.
    """

    direction: str
    # (spec, the one vector read) -> score
    value: Callable[[PrincipleSpec, ValueVector], float]
    basis: str = BASIS_OUTPUT  # the default basis; BASIS_INPUT is fixed
    # (spec, total w, the scales a, b, p and q of frontier_scales) -> every
    # split where the score can turn on the frontier; see frontier_breakpoints.
    # The default suits a score linear or constant on the frontier.
    breakpoints: Callable[..., list[float]] = lambda spec, w, a, b, p, q: []
    over_inputs: bool = False  # proportion's dispersion forms
    # spec -> the pair kernel of value, parameters bound in, or None
    pair: Callable[[PrincipleSpec], Pair | None] | None = None


class _Scoring(NamedTuple):
    """A (principle, mode) row: a form per variant, and the parameters read."""

    # Each variant's form, the default first; a row without variants keys
    # its one form by None. All of a row's forms share its default basis.
    forms: dict[str | None, _Form]
    # Whether the forms read a metric, a threshold, and rho and weights.
    metric: bool = False
    threshold: bool = False
    welfare: bool = False


_DIFFERENCE = _Scoring({
    "rawlsian": _Form(MAXIMIZE, lambda spec, v: rawlsian(v), breakpoints=_at_equal_value),
    "harsanyian": _Form(MAXIMIZE, lambda spec, v: mean(v)),
})
_GREATER_GOOD = _Scoring({None: _Form(MAXIMIZE, lambda spec, v: benthamite(v), BASIS_UTILITY)})
# What a diorthotic greater-good spec that sets rho or weights resolves to.
_ISOELASTIC = _Form(
    MAXIMIZE,
    lambda spec, v: isoelastic(v, spec.weights, 0.0 if spec.rho is None else spec.rho),
    BASIS_UTILITY,
    _isoelastic_max,
    pair=lambda spec: isoelastic_pair(spec.weights, 0.0 if spec.rho is None else spec.rho),
)
# where the dispersion of the basis vector over the inputs is least
_PROPORTION = _Form(
    MINIMIZE, _dispersion, breakpoints=_at_equal_value, over_inputs=True, pair=_dispersion_pair
)
_SUFFICIENCY = _Scoring({None: _Form(
    MAXIMIZE,
    lambda spec, v: threshold_share(v, spec.threshold),
    breakpoints=lambda spec, w, a, b, p, q: _threshold_crossings(w, spec.threshold, a, b),
)}, threshold=True)

# The one mapping of (principle, mode) to its forms and the spec parameters
# they read; its keys name the principles. PrincipleSpec.__post_init__ alone
# reads it: each spec is resolved to its one form when it is built. No form's
# value reads the inputs: proportion's dispersion forms declare over_inputs,
# and their callers divide the basis vector by the inputs before scoring it.
# Forms' values reach the dispersion and welfare functions through this
# module's globals at call time, never through references captured here, so
# that patching a module attribute (as instrumentation does) reaches every
# score. Pair kernels are resolved once per spec and reached directly, so
# instrumentation that wraps module attributes does not see them: their time
# counts in the self time of the caller of score_square (heatmap).
_SCORING = {
    ("difference", DIANEMETIC): _DIFFERENCE,
    ("difference", DIORTHOTIC): _DIFFERENCE,
    ("equality", DIANEMETIC): _Scoring(
        {None: _Form(MINIMIZE, _dispersion, breakpoints=_at_equal_value, pair=_dispersion_pair)},
        metric=True,
    ),
    ("equality", DIORTHOTIC): _Scoring({
        "foster": _Form(
            MAXIMIZE,
            lambda spec, v: foster(v),
            breakpoints=lambda spec, w, a, b, p, q: _foster_peaks(w, a, b),
        ),
        # sen is piecewise linear, with its kink at equal value
        "sen": _Form(MAXIMIZE, lambda spec, v: sen(v), breakpoints=_at_equal_value),
    }),
    ("equality_of_opportunity", DIANEMETIC): _Scoring(
        {None: _Form(MINIMIZE, _dispersion, BASIS_INPUT)}, metric=True
    ),
    ("equality_of_opportunity", DIORTHOTIC): _Scoring(
        {None: _Form(MAXIMIZE, _negated_dispersion, BASIS_INPUT)},
        metric=True,
    ),
    ("greater_good", DIANEMETIC): _GREATER_GOOD,
    ("greater_good", DIORTHOTIC): _GREATER_GOOD._replace(welfare=True),
    ("proportion", DIANEMETIC): _Scoring({None: _PROPORTION}, metric=True),
    ("proportion", DIORTHOTIC): _Scoring({
        "dispersion": _PROPORTION._replace(
            direction=MAXIMIZE, value=_negated_dispersion, pair=None
        ),
        # Free-transaction stance: every allocation is equally fair.
        "noop": _Form(MAXIMIZE, lambda spec, v: 0.0),
    }, metric=True),
    ("sufficiency", DIANEMETIC): _SUFFICIENCY,
    ("sufficiency", DIORTHOTIC): _SUFFICIENCY,
}
PRINCIPLES = tuple(dict.fromkeys(principle for principle, _ in _SCORING))
