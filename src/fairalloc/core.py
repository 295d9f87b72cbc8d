"""Population data model and the elementary statistics built on it.

A decision process maps each individual's input ``x_i`` (initial situation)
to an output ``y_i`` (allocated resource) and a utility ``u_i = f(y_i)``.
All three live in :class:`ValueVector`; one candidate allocation over one
population is an :class:`AllocationContext`.

A statistic whose two-agent heatmap perfbench measures also has a pair kernel,
``(s, t) -> float``, beside its vector form: on two floats that are finite
and >= 0 it does the vector form's float operations on ``ValueVector((s,
t))`` in the same order. For two values ``math.fsum`` and one float ``+``
both round the exact sum once, so a finite result has the vector form's
bits. Where the vector form would refuse the pair or rescale it, the kernel
returns inf or NaN instead (it never raises), and its caller scores that
pair through the vector form.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Callable, Iterable, Iterator

from .errors import NonFiniteScoreError, ZeroInputError

Pair = Callable[[float, float], float]  # a pair kernel


def _rebuild_through_init(value) -> tuple:
    """``__reduce__`` of an immutable value: copy and pickle call its constructor again.

    Its ``init`` fields are passed, a mappingproxy (which does not pickle) as a
    ``dict``, so every check runs again and every derived field is recomputed.
    """
    args = (getattr(value, f.name) for f in fields(value) if f.init)
    return type(value), tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)


def immutable(cls):
    """Declare an immutable value: a slotted frozen dataclass, with no ``__dict__`` or weakref.

    Copy, deepcopy and pickle rebuild it through its constructor, which checks and derives it again.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__reduce__ = _rebuild_through_init
    return cls


@immutable
class ValueVector:
    """Immutable vector of nonnegative, finite per-individual values.

    Nonnegativity is enforced at construction because every downstream
    statistic (dispersion metrics, welfare functions) is defined on
    nonnegative values only. Declared :func:`immutable`, as every value is;
    its own constructor checks the values. A vector of at least ``LONG``
    elements keeps its exact sum, ascending order, Gini and Theil T after
    their first use (see :func:`kept`); equality, hashing and copies read the
    values alone.
    """

    values: tuple[float, ...]
    _kept: dict = field(init=False, compare=False, repr=False)

    def __init__(self, values: Iterable[float]):
        vals = tuple(map(float, values))
        if not vals:
            raise ValueError("ValueVector needs at least one element")
        for v in vals:
            if not 0.0 <= v <= 1.7976931348623157e308:  # false for NaN, +-inf and negatives
                fault = "negative" if math.isfinite(v) else "not finite"
                raise ValueError(f"ValueVector element {v!r} is {fault}")
        _store_values(self, vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __repr__(self) -> str:
        return f"ValueVector({list(self.values)!r})"


_store_values = ValueVector.values.__set__  # the slot's own setter, past the frozen __setattr__
_store_kept = ValueVector._kept.__set__

LONG = 128
"""Length from which a vector keeps each :func:`kept` statistic after its first use.

Shorter vectors recompute it on each use. Their statistics skip the call
too: a hot caller reads :func:`kept_sum` or :func:`kept_order` only for
``len(v.values) >= LONG``. From about this length, a fresh vector scored by
two statistics that read its sum costs no more when they are kept.
"""


def kept(statistic):
    """Declare a statistic of one vector that a vector of ``LONG`` or more elements keeps.

    Its first use computes it into the vector's private slot; later uses read
    it there. A shorter vector computes it on each use. A use that raises (an
    exact sum past the float range, an all-zero vector) keeps nothing, so the
    next use raises again at the same point.
    """
    @functools.wraps(statistic)
    def keep(v: ValueVector):
        if len(v.values) < LONG:
            return statistic(v)
        store = getattr(v, "_kept", None)
        if store is None:
            store = {}
            _store_kept(v, store)
        value = store.get(statistic)
        if value is None:
            value = store[statistic] = statistic(v)
        return value
    return keep


@kept
def kept_sum(v: ValueVector) -> float:
    """``math.fsum(v.values)``."""
    return math.fsum(v.values)


@kept
def kept_order(v: ValueVector) -> tuple[float, ...]:
    """``sorted(v.values)`` as a tuple: no reader can reorder the kept order."""
    return tuple(sorted(v.values))


@immutable
class Agent:
    """One individual: opaque id and input x_i."""

    id: str
    input: float

    def __post_init__(self):
        if not math.isfinite(self.input) or self.input < 0.0:
            raise ValueError(f"agent {self.id!r}: input must be finite and >= 0")


@immutable
class AllocationContext:
    """The (x, y, u) triple describing one allocation over one population."""

    inputs: ValueVector
    outputs: ValueVector
    utilities: ValueVector

    def __post_init__(self):
        n = len(self.inputs.values)
        if len(self.outputs.values) != n or len(self.utilities.values) != n:
            raise ValueError(
                "inputs, outputs and utilities must have identical length"
            )


def _rescaled(statistic, v: ValueVector, degree: int, *args) -> float:
    # statistic(v) recomputed on v * 2^-k (exact; k is the exponent of the largest value)
    # and scaled back: statistic(c * v) == c**degree * statistic(v).
    k = math.frexp(max(v.values))[1]
    scaled = ValueVector(math.ldexp(x, -k) for x in v.values)
    return math.ldexp(statistic(scaled, *args), k * degree)


def overflow_safe(degree: int):
    """Declare that a statistic of the given degree survives an overflow on the way.

    Only if the direct body raises ``OverflowError`` is it recomputed on the
    values scaled down by a power of two.
    """
    def declare(statistic):
        @functools.wraps(statistic)
        def safe(v: ValueVector, *args) -> float:
            try:
                return statistic(v, *args)
            except OverflowError:
                return _rescaled(statistic, v, degree, *args)
        return safe
    return declare


def mean(v: ValueVector) -> float:
    """Arithmetic mean of the elements; finite even where their sum is not."""
    # Not declared overflow_safe: the wrapper's frame would cost every caller.
    values = v.values
    n = len(values)
    try:
        return (math.fsum(values) if n < LONG else kept_sum(v)) / n
    except OverflowError:
        return _rescaled(mean, v, 1)


def threshold_share(v: ValueVector, threshold: float) -> float:
    """Fraction of elements at or above ``threshold``.

    The comparison is inclusive: an element exactly at the threshold counts
    as sufficient.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    return sum(1 for x in v.values if x >= threshold) / len(v.values)


def ratio_vector(y: ValueVector, x: ValueVector) -> ValueVector:
    """Element-wise y_i / x_i, the per-individual output/input ratio.

    Raises :class:`ZeroInputError` if any x_i is zero: the proportion of an
    output to a zero contribution is undefined. A ratio past the float range
    raises :class:`NonFiniteScoreError`.
    """
    if len(y.values) != len(x.values):
        raise ValueError("ratio_vector needs vectors of identical length")
    if 0.0 in x.values:  # -0.0 too: it equals 0.0
        raise ZeroInputError("ratio undefined for zero-input individuals")
    try:
        return ValueVector(map(operator.truediv, y.values, x.values))
    except ValueError:  # nonnegative and nonempty, so only an infinite ratio fails
        raise NonFiniteScoreError("output/input ratio overflows the float range") from None


def decimal_numerators(values: Iterable[float]) -> tuple[list[int], int]:
    """Finite ``values`` as integer numerators over their least common denominator D.

    A value means the decimal its shortest repr spells: 0.7 is seven tenths,
    not the binary fraction nearest it. An integer below 2**53 is its own
    decimal, so integers alone never load ``decimal``.
    """
    ratios = []
    for x in values:
        if isinstance(x, int):
            ratios.append((x, 1))
        elif (x := float(x)).is_integer() and abs(x) < 2**53:
            ratios.append((int(x), 1))
        else:
            import decimal  # here, not at the top: loading it adds about 3 ms to every start-up
            ratios.append(decimal.Decimal(repr(x)).as_integer_ratio())
    scale = math.lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios], scale
