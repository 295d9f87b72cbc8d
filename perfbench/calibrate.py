"""Host-speed calibration: time a fixed pure-Python task next to each op.

The machine the benchmark runs on is shared. Other tenants change how fast
a single core executes Python by up to half, in spells of seconds to
minutes; single ops then vary by tens of percent although the library did
the same work. The benchmark therefore times this fixed task just before
and just after every op and reports op times in *reference seconds*: wall
seconds scaled by ``REFERENCE_S / task time``, i.e. the time the op would
take on a machine where the task takes exactly ``REFERENCE_S``. A slower
spell stretches the op and the task alike and cancels out; a slower
library stretches only the op.

The task never calls fairalloc, so no library change can move it. It
mixes the operations fairalloc's hot paths are made of: building small
float tuples, ``math.fsum``, sorting, slotted object creation and dict
access. Changing it, or ``REFERENCE_S``, changes every reported time and
needs a new baseline.
"""

from __future__ import annotations

import math
from time import perf_counter

REFERENCE_S = 0.004
REPEATS = 3


class _Pair:
    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float):
        self.hi = hi
        self.lo = lo


def _task() -> float:
    acc = 0.0
    table: dict[int, _Pair] = {}
    for i in range(2000):
        v = tuple(float((i * k) % 11) for k in range(1, 4))
        acc += math.fsum(v) / len(v)
        s = sorted(v, reverse=True)
        pair = _Pair(s[0], s[-1])
        table[i % 64] = pair
        acc += pair.hi - pair.lo + table.get(i % 32, pair).lo
    return acc


def task_seconds() -> float:
    """Fastest of a few runs of the task, so one interrupt does not count."""
    best = math.inf
    for _ in range(REPEATS):
        start = perf_counter()
        _task()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for an op timed
    between two task measurements."""
    return REFERENCE_S / math.sqrt(before * after)
