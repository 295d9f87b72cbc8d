"""Division problems, candidate generation, and allocation ranking.

Two problem shapes are supported: a discrete problem (indivisible pieces
with per-agent feature bonuses, all candidates enumerable) and a continuous
problem (one divisible total split between two agents along the efficient
frontier). Candidates are scored under every configured principle, ranked
per principle, and the rankings are combined with a weighted Borda count.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import field
from types import MappingProxyType

from .core import Agent, AllocationContext, ValueVector, decimal_numerators, immutable
from .errors import DomainError, NonFiniteScoreError, ScoringError
from .principles import (
    MAXIMIZE,
    MINIMIZE,
    PrincipleSpec,
    direction as principle_direction,
    frontier_breakpoints,
    input_based,
    score,
    score_square,
)

ENUMERATION_CAP = 1_000_000

_FRONTIER_TOLERANCE = 1e-9
# The least real that rounds to inf: halfway from the largest float to 2**1024.
_ROUNDS_TO_INF = 2**1024 - 2**970


def _checked_agents(agents: Sequence[Agent]) -> tuple[Agent, ...]:
    out = tuple(agents)
    if not out:
        raise ValueError("a problem needs at least one agent")
    ids = [a.id for a in out]
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids must be unique")
    return out


@immutable
class Piece:
    """An indivisible piece: resource amount plus per-agent feature bonus."""

    amount: float
    bonus: Mapping[str, float] = field(hash=False)  # a read-only view, which does not hash

    def __post_init__(self):
        object.__setattr__(self, "bonus", MappingProxyType(dict(self.bonus)))
        if not math.isfinite(self.amount) or self.amount < 0.0:
            raise ValueError("piece amount must be finite and >= 0")
        for agent_id, b in self.bonus.items():
            if not math.isfinite(b) or b < 0.0:
                raise ValueError(f"piece bonus for {agent_id!r} must be finite and >= 0")


@immutable
class DiscreteProblem:
    """Indivisible pieces to hand out; amounts sum to one whole resource.

    An agent's utility is the total amount received plus the bonuses the
    received pieces carry for that agent. Each piece's amount, and its
    amount plus bonus for each agent, are kept as exact integer numerators
    over one power-of-two denominator, the largest of the denominators
    ``float.as_integer_ratio`` gives for the amounts and bonuses, so that
    :func:`evaluate_discrete` sums them exactly.
    """

    agents: tuple[Agent, ...]
    pieces: tuple[Piece, ...]
    inputs: ValueVector = field(init=False, compare=False, repr=False)
    # Per piece, its amount's numerator and, in agent order, the numerator of
    # its amount plus its bonus for that agent, all over _denominator.
    _numerators: tuple[tuple[int, tuple[int, ...]], ...] = field(
        init=False, compare=False, repr=False
    )
    _denominator: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "agents", _checked_agents(self.agents))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("a discrete problem needs at least one piece")
        n_agents, n_pieces = len(self.agents), len(self.pieces)
        if (count := n_agents**n_pieces) > ENUMERATION_CAP:
            raise ValueError(
                f"{n_agents}^{n_pieces} = {count} allocations exceed the cap of {ENUMERATION_CAP}"
            )
        ids = {a.id for a in self.agents}
        for i, piece in enumerate(self.pieces):
            unknown = set(piece.bonus) - ids
            if unknown:
                raise ValueError(f"piece {i}: bonus for unknown agents {sorted(unknown)}")
        denominator = max(  # a power of two, so every denominator divides it
            float(x).as_integer_ratio()[1]
            for p in self.pieces
            for x in (p.amount, *p.bonus.values())
        )

        def numerator(x: float) -> int:
            n, d = float(x).as_integer_ratio()
            return n * (denominator // d)

        numerators = []
        for p in self.pieces:
            amount = numerator(p.amount)
            gains = tuple(amount + numerator(p.bonus.get(a.id, 0.0)) for a in self.agents)
            numerators.append((amount, gains))
        try:  # int / int rounds once, as math.fsum does
            total = sum(amount for amount, _ in numerators) / denominator
        except OverflowError:  # the exact sum is past the float range
            total = math.inf
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"piece amounts must sum to 1, got {total!r}")
        for i, agent in enumerate(self.agents):
            try:  # the agent's utility with every piece bounds every candidate's
                sum(gains[i] for _, gains in numerators) / denominator
            except OverflowError:
                raise ValueError(
                    f"utility of agent {agent.id!r} with every piece is not finite"
                ) from None
        object.__setattr__(self, "_numerators", tuple(numerators))
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "inputs", ValueVector(a.input for a in self.agents))


@immutable
class DiscreteAllocation:
    """A complete assignment: piece index -> agent index."""

    assignment: tuple[int, ...]


@immutable
class ContinuousProblem:
    """A divisible total split between two agents; utility is retention * share.

    The retention factor models per-agent losses between allocation and
    consumption (a factor of 1 means nothing is lost).
    """

    agents: tuple[Agent, ...]
    total: float
    retention: Mapping[str, float] = field(hash=False)  # a read-only view, which does not hash
    inputs: ValueVector = field(init=False, compare=False, repr=False)
    # Retention in agent order, for the per-evaluation scoring path.
    _factors: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "agents", _checked_agents(self.agents))
        if len(self.agents) != 2:  # the frontier is then one-dimensional
            raise ValueError(
                f"a continuous problem splits its total between two agents, got {len(self.agents)}"
            )
        object.__setattr__(self, "retention", MappingProxyType(dict(self.retention)))
        if not math.isfinite(self.total) or self.total <= 0.0:
            raise ValueError("total must be finite and > 0")
        for agent in self.agents:
            r = self.retention.get(agent.id)
            if r is None:
                raise ValueError(f"missing retention for agent {agent.id!r}")
            if not math.isfinite(r) or not 0.0 < r <= 1.0:
                raise ValueError(f"retention for {agent.id!r} must be in (0, 1]")
        unknown = set(self.retention) - {a.id for a in self.agents}
        if unknown:
            raise ValueError(f"retention for unknown agents {sorted(unknown)}")
        object.__setattr__(self, "inputs", ValueVector(a.input for a in self.agents))
        object.__setattr__(self, "_factors", tuple(self.retention[a.id] for a in self.agents))

    def retention_factors(self) -> tuple[float, ...]:
        return self._factors


def enumerate_discrete(problem: DiscreteProblem) -> list[DiscreteAllocation]:
    """All complete assignments in lexicographic order of assignment vectors."""
    return [
        DiscreteAllocation(assignment)
        for assignment in itertools.product(range(len(problem.agents)), repeat=len(problem.pieces))
    ]


def evaluate_discrete(
    problem: DiscreteProblem, allocation: DiscreteAllocation
) -> AllocationContext:
    """Outputs and utilities of one assignment; inputs pass through.

    Each agent's amounts, and amounts plus bonuses, are summed as the
    problem's integer numerators over its one power-of-two denominator and
    rounded once by the division. The sums are exact, so each value has the
    bits ``math.fsum`` gives, and no order of pieces or agents changes them.
    """
    assignment = allocation.assignment
    if len(assignment) != len(problem.pieces):
        raise ValueError("allocation must assign every piece")
    n = len(problem.agents)
    outputs = [0] * n
    utilities = [0] * n
    for (amount, gains), owner in zip(problem._numerators, assignment):
        if not 0 <= owner < n:
            raise ValueError(f"agent index {owner} out of range")
        outputs[owner] += amount
        utilities[owner] += gains[owner]
    d = problem._denominator
    return AllocationContext(
        inputs=problem.inputs,
        outputs=ValueVector([y / d for y in outputs]),
        utilities=ValueVector([u / d for u in utilities]),
    )


def frontier_context(problem: ContinuousProblem, shares: ValueVector) -> AllocationContext:
    """Context for shares on the efficient frontier (shares exhaust the total)."""
    try:
        total = math.fsum(shares.values)
    except OverflowError:  # the exact sum is past the float range
        total = math.inf
    if abs(total - problem.total) > _FRONTIER_TOLERANCE * max(1.0, problem.total):
        raise ValueError(f"shares sum to {total!r}, expected {problem.total!r}")
    return _share_context(problem, shares)


def _share_context(problem: ContinuousProblem, shares: ValueVector) -> AllocationContext:
    # Any point of the allocation square; frontier_context adds the sum check.
    retention = problem.retention_factors()
    return AllocationContext(
        inputs=problem.inputs,
        outputs=shares,
        utilities=ValueVector(map(operator.mul, retention, shares.values)),
    )


def optimize_frontier(
    problem: ContinuousProblem, spec: PrincipleSpec, resolution: int | None = None
) -> tuple[ValueVector, float]:
    """Best frontier split for one principle, from its breakpoints.

    The frontier of a two-agent problem is one-dimensional: shares are
    (t, total - t). Each of ``frontier_breakpoints``, ascending, is scored
    once, and the first that ``rank_scores`` ranks 1 is returned with its
    score, so ties go to the smaller t and a plateau reports its left end.
    ``resolution`` has no effect.
    """
    total = problem.total
    points = frontier_breakpoints(spec, total, problem.retention_factors(), problem.inputs.values)
    shares = [ValueVector((t, total - t)) for t in points]
    values = [score(spec, _share_context(problem, v)).value for v in shares]
    best = rank_scores(values, principle_direction(spec)).index(1)
    return shares[best], values[best]


@immutable
class HeatmapCell:
    """One sample of a principle score over the allocation square."""

    y_a: float
    y_b: float
    score: float | None
    on_frontier: bool


@immutable
class Heatmap(Sequence):
    """A principle's scores over the allocation square, as a sequence of cells.

    It holds the square as its ``axis``, the ``grid + 1`` shares ascending
    from 0 to total, and one score per cell in row-major order: the cell at ``row *
    len(axis) + col`` is the point ``(axis[row], axis[col])``, and its score
    is ``None`` where the principle is undefined. A :class:`HeatmapCell` is
    built only when a cell is read, by index, slice or iteration; a slice is
    a list. Each row's ``frontier_columns`` are derived once, when the map is built.
    """

    axis: tuple[float, ...]
    scores: tuple[float | None, ...]
    _runs: tuple[range, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(self.axis))
        object.__setattr__(self, "scores", tuple(self.scores))
        if len(self.axis) < 2:
            raise ValueError("the axis needs at least two points")  # its step is the band
        if len(self.scores) != len(self.axis) ** 2:
            raise ValueError(
                f"{len(self.scores)} scores for {len(self.axis)} axis points, "
                f"expected {len(self.axis) ** 2}"
            )
        if any(map(operator.gt, self.axis, self.axis[1:])):
            raise ValueError("the axis must ascend")  # each run is found by bisection
        axis, total = self.axis, self.axis[-1]
        band = total / (len(axis) - 1)

        def run(y_a: float) -> range:
            def gap(y_b: float) -> float:
                return y_a + y_b - total
            start = bisect.bisect_left(axis, -band, key=gap)
            return range(start, bisect.bisect_right(axis, band, start, key=gap))

        object.__setattr__(self, "_runs", tuple(map(run, axis)))

    def frontier_columns(self, row: int) -> range:
        """The columns of ``row`` whose cells lie within one band of the frontier y_a + y_b = total.

        A cell is on it where abs(y_a + y_b - total) <= band, the band being
        one step of the axis, total / (len(axis) - 1). Along a row that
        difference never falls, as the axis ascends, so the columns are one
        run, and its two ends are found by bisection when the map is built.
        """
        return self._runs[row]

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        k = range(len(self.scores))[i]  # IndexError past either end; a slice gives a range
        return list(map(self._cell, k)) if isinstance(i, slice) else self._cell(k)

    def __iter__(self):
        return map(self._cell, range(len(self.scores)))

    def _cell(self, k: int) -> HeatmapCell:
        row, col = divmod(k, len(self.axis))
        return HeatmapCell(
            self.axis[row], self.axis[col], self.scores[k], col in self._runs[row]
        )


def heatmap(problem: ContinuousProblem, spec: PrincipleSpec, grid: int) -> Heatmap:
    """Principle scores over the full [0, total]^2 square, row-major.

    The axis is i * total / grid for i = 0..grid. Off-frontier points are
    scored too, so contour plots can show welfare level sets crossing the
    frontier. ``principles.score_square`` scores the cells; a cell whose
    score raises a domain error carries ``None`` instead of aborting the sweep.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if (cells := (grid + 1) ** 2) > ENUMERATION_CAP:
        raise ValueError(f"grid {grid} has {cells} cells, over the cap of {ENUMERATION_CAP}")
    total = problem.total
    # where i * total is past the float range, divide first
    axis = [y if math.isfinite(y := i * total / grid) else i / grid * total for i in range(grid)]
    axis.append(total)
    scores = score_square(spec, axis, problem.retention_factors(), problem.inputs.values)
    return Heatmap(axis, scores)


def rank_scores(values: Sequence[float], direction: str) -> list[int]:
    """Competition ranks (1 = best) of scores under the given direction.

    Ties share the smallest applicable rank and the next rank is skipped.
    """
    if direction not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"unknown direction {direction!r}")
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteScoreError(f"cannot rank non-finite score {v!r}")
    first: dict[float, int] = {}  # 0.0 and -0.0 are one key
    for pos, v in enumerate(sorted(values, reverse=direction != MINIMIZE), 1):
        first.setdefault(v, pos)
    return [first[v] for v in values]


def aggregate_ranks(
    per_principle_ranks: Sequence[Sequence[int]],
    weights: Sequence[float],
    labels: Sequence[str],
) -> tuple[list[float], list[int]]:
    """Weighted Borda combination of per-principle rankings.

    Each candidate earns ``weight * (k - rank)`` points per principle, summed
    exactly: a weight is the decimal its repr spells (``decimal_numerators``),
    so 0.7 * 5 + 0.7 * 5 ties with 0.7 * 3 + 0.7 * 7, as floats do not. The
    combined order is by points descending with ties broken by candidate
    label. A rank outside 1..k is refused before any point is summed.
    Returns (borda points, each rounded once to a float, and the combined
    rank per candidate).
    """
    if any(w < 0 or not math.isfinite(w) for w in weights):
        raise ValueError("aggregation weights must be finite and >= 0")
    if not any(w > 0 for w in weights):
        raise ValueError("at least one aggregation weight must be positive")
    if len(per_principle_ranks) != len(weights):
        raise ValueError("one weight per principle required")
    k = len(labels)
    for ranks in per_principle_ranks:
        if len(ranks) != k:
            raise ValueError("one rank per candidate required")
        if ranks and not 1 <= min(ranks) <= max(ranks) <= k:
            raise ValueError(f"ranks must lie in 1..{k}")
    numerators, scale = decimal_numerators(weights)
    points = [0] * k  # in units of 1 / scale
    for ranks, weight in zip(per_principle_ranks, numerators):
        for c, r in enumerate(ranks):
            points[c] += weight * (k - r)
    order = sorted(range(k), key=lambda c: (-points[c], labels[c]))
    combined = [0] * k
    for pos, c in enumerate(order):
        combined[c] = pos + 1
    try:
        borda = [p / scale for p in points]
    except OverflowError:  # points that round past the float range read inf
        borda = [p / scale if p < scale * _ROUNDS_TO_INF else math.inf for p in points]
    return borda, combined


@immutable
class RankingTable:
    """Scores, per-principle ranks, and the combined ranking of candidates."""

    candidates: tuple[str, ...]
    contexts: tuple[AllocationContext, ...]
    principles: tuple[str, ...]
    directions: tuple[str, ...]
    scores: tuple[tuple[float, ...], ...]  # [principle][candidate]
    ranks: tuple[tuple[int, ...], ...]
    borda: tuple[float, ...]
    combined: tuple[int, ...]

    def combined_order(self) -> list[int]:
        """Candidate indices from best to worst combined rank."""
        return sorted(range(len(self.candidates)), key=lambda c: self.combined[c])


def _labelled(what: str, values: Sequence, labels: Sequence[str]) -> None:
    """Refuse labels that do not match ``values`` one to one, or that repeat."""
    if len(labels) != len(values):
        raise ValueError(f"{len(values)} {what}s need {len(values)} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} labels must be unique")


def build_ranking(
    candidates: Sequence[str],
    contexts: Sequence[AllocationContext],
    principle_labels: Sequence[str],
    specs: Sequence[PrincipleSpec],
    weights: Sequence[float],
) -> RankingTable:
    """Score every candidate under every principle and rank them.

    ``candidates`` labels ``contexts`` one to one, and ``principle_labels``
    labels ``specs``; neither may repeat a label (``_labelled``).
    An input-based principle (equality of opportunity) reads ``ctx.inputs``
    alone, so it is scored again only where a context's inputs are not the
    previous context's object; the contexts of one problem share theirs.
    """
    _labelled("candidate", contexts, candidates)
    _labelled("principle", specs, principle_labels)
    scores: list[tuple[float, ...]] = []
    directions: list[str] = []
    ranks: list[tuple[int, ...]] = []
    for label, spec in zip(principle_labels, specs):
        row = []
        by_inputs = input_based(spec)
        scored = None  # the inputs object an input-based spec last scored
        for candidate, ctx in zip(candidates, contexts):
            if by_inputs:
                if ctx.inputs is scored:
                    row.append(value)
                    continue
                scored = ctx.inputs
            try:
                value = score(spec, ctx).value
            except DomainError as err:
                raise ScoringError(label, candidate, err) from err
            row.append(value)
        directions.append(principle_direction(spec))
        scores.append(tuple(row))
        ranks.append(tuple(rank_scores(row, directions[-1])))
    borda, combined = aggregate_ranks(ranks, weights, candidates)
    return RankingTable(
        candidates=tuple(candidates),
        contexts=tuple(contexts),
        principles=tuple(principle_labels),
        directions=tuple(directions),
        scores=tuple(scores),
        ranks=tuple(ranks),
        borda=tuple(borda),
        combined=tuple(combined),
    )


def discrete_ranking(
    problem: DiscreteProblem,
    principle_labels: Sequence[str],
    specs: Sequence[PrincipleSpec],
    weights: Sequence[float],
    labels: Sequence[str] | None = None,
) -> RankingTable:
    """Rank every possible assignment of a discrete problem."""
    allocations = enumerate_discrete(problem)
    if labels is None:
        labels = [f"scenario {i + 1}" for i in range(len(allocations))]
    contexts = [evaluate_discrete(problem, a) for a in allocations]
    return build_ranking(labels, contexts, principle_labels, specs, weights)


def continuous_ranking(
    problem: ContinuousProblem,
    principle_labels: Sequence[str],
    specs: Sequence[PrincipleSpec],
    weights: Sequence[float],
    resolution: int | None = None,
) -> RankingTable:
    """Rank the per-principle frontier optima of a continuous problem.

    Each principle proposes its optimal split; the distinct splits form the
    candidate set, which is then scored under every principle. Each
    candidate is labelled ``t=`` and its split in the fewest significant
    digits, 9 to 17, that tell every candidate of the ranking apart. Labels
    that do not match the specs one to one, or that repeat, are refused
    before any split is optimized. ``resolution`` has no effect.
    """
    _labelled("principle", specs, principle_labels)
    optima: list[float] = []
    for label, spec in zip(principle_labels, specs):
        try:
            shares, _ = optimize_frontier(problem, spec)
        except DomainError as err:
            raise ScoringError(label, "frontier", err) from err
        optima.append(shares[0])
    splits = sorted(set(optima))
    for digits in range(9, 18):  # 17 digits tell any two floats apart
        labels = [f"t={t:.{digits}g}" for t in splits]
        if len(set(labels)) == len(labels):
            break
    contexts = [_share_context(problem, ValueVector((t, problem.total - t))) for t in splits]
    return build_ranking(labels, contexts, principle_labels, specs, weights)
