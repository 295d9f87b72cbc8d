"""Social welfare functions: scalar societal scores of a value vector.

Two families: utility-based Bergson-Samuelson forms (isoelastic and its
Benthamite / Rawlsian / Bernoulli-Nash special cases) and income-based
capability forms (Sen, Foster). The third, resource-based family (a
dispersion metric negated so that larger is better) has no function here:
``fairalloc.principles.score`` computes it for diorthotic equality of
opportunity and proportion.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import Sequence

from .core import LONG, Pair, ValueVector, kept_sum, mean
from .dispersion import _epsilon_text, gini, theil_t
from .errors import NonFiniteScoreError, WeightMismatchError, ZeroElementError

RHO_INF = math.inf


def _checked_weights(u: ValueVector, weights: Sequence[float] | None) -> tuple[float, ...]:
    if weights is None:
        return (1.0,) * len(u.values)
    w = tuple(float(x) for x in weights)
    if len(w) != len(u.values):
        raise WeightMismatchError(
            f"{len(w)} weights for {len(u.values)} utilities"
        )
    if any(not math.isfinite(x) or x <= 0.0 for x in w):
        raise ValueError("welfare weights must be finite and > 0")
    return w


def isoelastic(u: ValueVector, weights: Sequence[float] | None, rho: float) -> float:
    """Isoelastic welfare sum(alpha_i * u_i^(1-rho)) / (1-rho).

    rho = 0 reduces to the weighted Benthamite sum, rho = 1 to the
    logarithmic form sum(alpha_i ln u_i) (ordinally the Nash product), and
    rho = math.inf to the Rawlsian minimum. rho >= 1 requires strictly
    positive utilities.
    """
    if math.isnan(rho) or rho < 0.0:
        raise ValueError("rho must be >= 0")
    w = _checked_weights(u, weights)
    if rho == RHO_INF:
        return min(u.values)
    if rho >= 1.0 and 0.0 in u.values:
        raise ZeroElementError(
            f"isoelastic welfare with rho={_epsilon_text(rho)} needs positive utilities"
        )
    if rho == 1.0:
        try:
            return math.fsum(map(operator.mul, w, map(math.log, u.values)))
        except ValueError:  # -inf + inf: weighted logs past the float range
            raise NonFiniteScoreError("weighted log utilities overflow the float range") from None
    p = 1.0 - rho
    return math.fsum(map(operator.mul, w, map(pow, u.values, repeat(p)))) / p


def isoelastic_pair(weights: Sequence[float] | None, rho: float) -> Pair | None:
    """The pair kernel of :func:`isoelastic` without weights at 0 <= rho < 1, else None.

    Only that case, which perfbench's heatmap_grid measures, has a kernel.
    """
    if weights is not None or not 0.0 <= rho < 1.0:
        return None
    p = 1.0 - rho
    return lambda s, t: (s**p + t**p) / p


def benthamite(u: ValueVector) -> float:
    """Utilitarian welfare: the plain sum of utilities."""
    return math.fsum(u.values) if len(u.values) < LONG else kept_sum(u)


def rawlsian(u: ValueVector) -> float:
    """Maximin welfare: the utility of the worst-off individual."""
    return min(u.values)


def sen(y: ValueVector) -> float:
    """Sen welfare: mean output discounted by inequality, mean * (1 - Gini).

    A vector of ``LONG`` or more elements reuses the Gini it keeps.
    """
    return mean(y) * (1.0 - gini(y))


def foster(y: ValueVector) -> float:
    """Foster welfare: mean output discounted by Theil T, mean * exp(-T).

    A vector of ``LONG`` or more elements reuses the Theil T it keeps.
    """
    return mean(y) * math.exp(-theil_t(y))
