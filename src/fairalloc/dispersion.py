"""Statistical dispersion and economic concentration metrics.

All metrics are pure functions of a nonnegative :class:`ValueVector`.
Except for the standard deviation they are scale invariant, and they
respect the Pigou-Dalton transfer principle (a rich-to-poor transfer never
increases them). In exact arithmetic all but the Palma ratio (1/4 at
equality) return zero on constant vectors. In floats the mean of a constant
vector need not be that constant, so a metric of one can read a few
rounding errors above zero.

Gini's weighted sum and the log sums map ``math`` functions and
``operator`` arithmetic over the values, so their loops run in C; each
element goes through the same float operations as in a generator
expression. The other sums stay generator expressions, which are faster on
the two- or three-element vectors that allocations score.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import repeat
from typing import Sequence

from .core import (
    LONG,
    ValueVector,
    immutable,
    kept,
    kept_order,
    kept_sum,
    mean,
    overflow_safe,
)
from .errors import (
    DegeneratePopulationError,
    ZeroBottomShareError,
    ZeroElementError,
    ZeroMeanError,
    ZeroSumError,
)

_METRIC_RE = re.compile(r"atkinson\((?P<eps>[^)]+)\)")


@immutable
class DispersionMetric:
    """A metric choice; ``epsilon`` is the Atkinson inequality aversion."""

    kind: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown dispersion metric {self.kind!r}")
        if self.kind == "atkinson":
            if self.epsilon is None:
                raise ValueError("atkinson metric needs an epsilon parameter")
            if math.isnan(self.epsilon) or self.epsilon < 0.0:
                raise ValueError("atkinson epsilon must be >= 0")
        elif self.epsilon is not None:
            raise ValueError(f"{self.kind} metric takes no parameter")

    @classmethod
    def parse(cls, text: str) -> "DispersionMetric":
        """Parse a metric name such as ``gini`` or ``atkinson(0.5)``."""
        name = text.strip().lower()
        m = _METRIC_RE.fullmatch(name)
        if m:
            try:
                eps = float(m.group("eps"))
            except ValueError:
                raise ValueError(f"invalid atkinson parameter in {text!r}") from None
            return cls("atkinson", eps)
        return cls(name)

    def __str__(self) -> str:
        if self.kind == "atkinson":
            return f"atkinson({_epsilon_text(self.epsilon)})"
        return self.kind


def _epsilon_text(epsilon: float) -> str:
    # The shortest text that parses back to the same float, without a trailing ".0".
    return repr(epsilon).removesuffix(".0")


@kept
@overflow_safe(0)
def gini(v: ValueVector) -> float:
    """Gini coefficient: mean absolute pairwise difference over 2n*sum.

    Computed from the sorted vector in O(n log n); equals the O(n^2)
    pairwise-sum definition. A vector of ``LONG`` or more elements keeps it.
    """
    values = v.values
    n = len(values)
    total = math.fsum(values) if n < LONG else kept_sum(v)
    if total == 0.0:
        raise ZeroSumError("gini undefined for an all-zero vector")
    if math.isinf(n * total):  # covers the weighted sum too: it is at most n * total
        raise OverflowError("n * sum is past the float range")
    ordered = sorted(values) if n < LONG else kept_order(v)
    weighted = math.fsum(map(operator.mul, range(1, n + 1), ordered))
    # 2 * (w / d) has the bits of 2 * w / d, but 2 * w cannot overflow
    return max(0.0, 2.0 * (weighted / (n * total)) - (n + 1) / n)


def _power_mean(values: tuple[float, ...], p: float) -> float:
    # Normalize by max (p > 0) or min (p < 0) so x**p cannot overflow.
    if p > 0:
        ref = max(values)
    else:
        ref = min(values)
    try:
        acc = math.fsum((x / ref) ** p for x in values) / len(values)
        return ref * acc ** (1.0 / p)
    except OverflowError:  # acc ** (1 / p) for p just below 0; x / ref may be inf too
        log_ref = math.log(ref)
        acc = math.fsum(math.exp(p * (math.log(x) - log_ref)) for x in values) / len(values)
        return math.exp(log_ref + math.log(acc) / p)


@overflow_safe(0)
def atkinson(v: ValueVector, epsilon: float) -> float:
    """Atkinson index: one minus the ratio of a generalized mean to the mean.

    epsilon = 0 gives 0 everywhere, epsilon = 1 uses the geometric mean,
    epsilon = inf uses the minimum; other epsilon use the power mean of
    order 1 - epsilon. For epsilon >= 1 all elements must be positive.
    """
    if math.isnan(epsilon) or epsilon < 0.0:
        raise ValueError("atkinson epsilon must be >= 0")
    m = mean(v)
    if m == 0.0:
        raise ZeroMeanError("atkinson undefined for a zero-mean vector")
    if epsilon == 0.0:
        return 0.0
    if math.isinf(epsilon):
        return max(0.0, 1.0 - min(v.values) / m)
    if epsilon >= 1.0 and 0.0 in v.values:
        raise ZeroElementError(
            f"atkinson with epsilon={_epsilon_text(epsilon)} needs strictly positive values"
        )
    if epsilon == 1.0:
        log_gm = math.fsum(map(math.log, v.values)) / len(v.values)
        return max(0.0, 1.0 - math.exp(log_gm) / m)
    return max(0.0, 1.0 - _power_mean(v.values, 1.0 - epsilon) / m)


def atkinson_log_pair(s: float, t: float) -> float:
    """The pair kernel of :func:`atkinson` at epsilon 1, the geometric mean's."""
    m = (s + t) / 2
    if not m < math.inf or s == 0.0 or t == 0.0:
        return math.nan
    return max(0.0, 1.0 - math.exp((math.log(s) + math.log(t)) / 2) / m)


@overflow_safe(0)
def herfindahl_normalized(v: ValueVector) -> float:
    """Normalized Herfindahl index: (HH - 1/n) / (1 - 1/n), HH = sum of share^2."""
    n = len(v.values)
    if n < 2:
        raise DegeneratePopulationError("normalized Herfindahl needs n >= 2")
    total = math.fsum(v.values) if n < LONG else kept_sum(v)
    if total == 0.0:
        raise ZeroSumError("Herfindahl undefined for an all-zero vector")
    hh = math.fsum((x / total) ** 2 for x in v.values)
    return max(0.0, (hh - 1.0 / n) / (1.0 - 1.0 / n))


@overflow_safe(0)
def hoover(v: ValueVector) -> float:
    """Hoover index: half the relative mean absolute deviation.

    Equals the share of the total that would have to move to reach equality.
    """
    n = len(v.values)
    total = math.fsum(v.values) if n < LONG else kept_sum(v)
    if total == 0.0:
        raise ZeroSumError("Hoover undefined for an all-zero vector")
    m = total / n
    return 0.5 * math.fsum(abs(x - m) for x in v.values) / total


def _cumulative_share(ordered: Sequence[float], total: float, fraction: float) -> float:
    # Share of the total held by the poorest `fraction` of the population,
    # linearly interpolating the Lorenz polyline between rank points.
    pos = fraction * len(ordered)
    k = int(math.floor(pos))
    held = math.fsum(ordered[:k]) + (pos - k) * ordered[k]
    return held / total


def palma_shares(v: ValueVector) -> tuple[float, float]:
    """(bottom-40% share, top-10% share) of the total, sorted ascending."""
    n = len(v.values)
    total = math.fsum(v.values) if n < LONG else kept_sum(v)
    if total == 0.0:
        raise ZeroSumError("Palma shares undefined for an all-zero vector")
    ordered = sorted(v.values) if n < LONG else kept_order(v)
    bottom = _cumulative_share(ordered, total, 0.40)
    top = 1.0 - _cumulative_share(ordered, total, 0.90)
    return bottom, top


@overflow_safe(0)
def palma(v: ValueVector) -> float:
    """Palma ratio: share of the top 10% over share of the bottom 40%."""
    bottom, top = palma_shares(v)
    if bottom == 0.0:
        raise ZeroBottomShareError("bottom 40% holds nothing; Palma diverges")
    return top / bottom


@overflow_safe(1)
def std_dev(v: ValueVector) -> float:
    """Population standard deviation (square root of the biased variance)."""
    m = mean(v)
    return math.sqrt(math.fsum((x - m) ** 2 for x in v.values) / len(v.values))


@kept
def theil_t(v: ValueVector) -> float:
    """Theil T index: (1/n) * sum (x/mean) ln(x/mean); 0 ln 0, also of an underflow, is 0.

    A vector of ``LONG`` or more elements keeps it.
    """
    m = mean(v)
    if m == 0.0:
        raise ZeroMeanError("Theil T undefined for a zero-mean vector")
    acc = math.fsum(r * math.log(r) for r in (x / m for x in v.values) if r > 0.0)
    return max(0.0, acc / len(v.values))


def theil_l(v: ValueVector) -> float:
    """Theil L index (mean log deviation): (1/n) * sum ln(mean/x)."""
    if 0.0 in v.values:
        raise ZeroElementError("Theil L diverges on zero elements")
    m = mean(v)
    acc = math.fsum(map(math.log, map(operator.truediv, repeat(m), v.values)))
    if math.isinf(acc):  # m / x overflowed, but ln m - ln x is finite
        acc = math.fsum(map(operator.sub, repeat(math.log(m)), map(math.log, v.values)))
    return max(0.0, acc / len(v.values))


def theil_l_pair(s: float, t: float) -> float:
    """The pair kernel of :func:`theil_l`; inf where the sum, m / s or m / t overflows."""
    if s == 0.0 or t == 0.0:
        return math.nan
    m = (s + t) / 2
    return max(0.0, (math.log(m / s) + math.log(m / t)) / 2)


def dispersion(metric: DispersionMetric, v: ValueVector) -> float:
    """Evaluate the metric selected by ``metric.kind`` on ``v``."""
    if metric.kind == "atkinson":
        return atkinson(v, metric.epsilon)
    return _FUNCTIONS[metric.kind](v)


_FUNCTIONS = {
    "gini": gini,
    "herfindahl": herfindahl_normalized,
    "hoover": hoover,
    "palma": palma,
    "std_dev": std_dev,
    "theil_t": theil_t,
    "theil_l": theil_l,
}
METRIC_KINDS = ("atkinson", *_FUNCTIONS)

STD_DEV = DispersionMetric("std_dev")

# Only the metrics whose heatmaps perfbench's heatmap_grid measures have a
# pair kernel; a heatmap scores every other metric through dispersion().
PAIR_KERNELS = {
    DispersionMetric("theil_l"): theil_l_pair,
    DispersionMetric("atkinson", 1.0): atkinson_log_pair,
}
