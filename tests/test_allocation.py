import dataclasses
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from conftest import assert_close
from fairalloc import (
    DIANEMETIC,
    DIORTHOTIC,
    MAXIMIZE,
    MINIMIZE,
    Agent,
    ContinuousProblem,
    DiscreteAllocation,
    DiscreteProblem,
    DispersionMetric,
    DomainError,
    Heatmap,
    HeatmapCell,
    NonFiniteScoreError,
    Piece,
    PrincipleSpec,
    ScoringError,
    ValueVector,
    aggregate_ranks,
    build_ranking,
    continuous_ranking,
    direction,
    discrete_ranking,
    enumerate_discrete,
    evaluate_discrete,
    frontier_context,
    heatmap,
    load_preset,
    optimize_frontier,
    rank_scores,
    score,
)
from fairalloc import principles
from fairalloc.allocation import _share_context
from fairalloc.cli import _heatmap_csv
from fairalloc.principles import _foster_peaks, _threshold_crossings
from test_principles import ACCEPTED_SHAPES, READS

STD = DispersionMetric("std_dev")
MAX_FLOAT = 1.7976931348623157e308
EPS = 2.0**-52
# How far a breakpoint optimum may trail a score found between breakpoints,
# as a shift of t in units of EPS * total (see _rounding_bound).
ROUNDING_ULPS = 4


def cake_problem():
    return load_preset("cake").problem


def fishermen_problem():
    return load_preset("fishermen").problem


def simple_discrete(n_agents, n_pieces):
    agents = tuple(Agent(id=f"a{i}", input=1.0) for i in range(n_agents))
    amount = 1.0 / n_pieces
    pieces = tuple(Piece(amount=amount, bonus={}) for _ in range(n_pieces))
    return DiscreteProblem(agents=agents, pieces=pieces)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_discrete(simple_discrete(2, 3))) == 8
        assert len(enumerate_discrete(simple_discrete(1, 4))) == 1
        assert len(enumerate_discrete(simple_discrete(3, 2))) == 9

    def test_lexicographic_order(self):
        allocations = enumerate_discrete(simple_discrete(2, 3))
        expected = list(itertools.product((0, 1), repeat=3))
        assert [a.assignment for a in allocations] == expected

    def test_cap(self):
        # refused when the problem is built, so enumeration never meets it
        simple_discrete(10, 6)  # 10^6 allocations: exactly ENUMERATION_CAP
        with pytest.raises(ValueError) as err:
            simple_discrete(2, 20)
        assert str(err.value) == "2^20 = 1048576 allocations exceed the cap of 1000000"

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
    def test_completeness(self, n_agents, n_pieces):
        problem = simple_discrete(n_agents, n_pieces)
        allocations = enumerate_discrete(problem)
        assert len(allocations) == n_agents**n_pieces
        assert len({a.assignment for a in allocations}) == len(allocations)
        for a in allocations:
            assert len(a.assignment) == n_pieces  # every piece owned exactly once


class TestEvaluateDiscrete:
    def test_worked_example(self):
        problem = cake_problem()
        ctx = evaluate_discrete(problem, DiscreteAllocation((0, 1, 0)))
        assert ctx.outputs.values == (0.8, 0.2)
        assert ctx.utilities.values == (1.0, 0.5)
        assert ctx.inputs.values == (0.9, 0.1)

    def test_empty_bundle_yields_zero(self):
        problem = cake_problem()
        ctx = evaluate_discrete(problem, DiscreteAllocation((0, 0, 0)))
        assert ctx.outputs.values == (1.0, 0.0)
        assert ctx.utilities[1] == 0.0

    def test_inputs_pass_through(self):
        problem = cake_problem()
        for assignment in itertools.product((0, 1), repeat=3):
            ctx = evaluate_discrete(problem, DiscreteAllocation(assignment))
            assert ctx.inputs.values == (0.9, 0.1)

    def test_assignment_must_fit_the_problem(self):
        problem = cake_problem()
        with pytest.raises(ValueError, match="^allocation must assign every piece$"):
            evaluate_discrete(problem, DiscreteAllocation((0, 1)))
        for owner in (2, -1):
            with pytest.raises(ValueError, match=f"^agent index {owner} out of range$"):
                evaluate_discrete(problem, DiscreteAllocation((0, owner, 0)))

    # Amounts and bonuses at the edges of the float range: signed zeros,
    # subnormals, and bonuses whose sums come near or past the largest float.
    EDGE_AMOUNTS = st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 0.2, 1 / 7]
    ) | st.floats(min_value=0.0, max_value=0.25)
    EDGE_BONUSES = st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 0.1, 1e307, 8.98846567431158e307, 1e308]
    ) | st.floats(min_value=0.0, max_value=1e308)

    @settings(max_examples=200)
    @given(st.data())
    def test_sums_have_the_bits_of_fsum(self, data):
        n_agents = data.draw(st.integers(1, 3))
        rest = data.draw(st.lists(self.EDGE_AMOUNTS, min_size=0, max_size=4))
        amounts = [*rest, 1.0 - math.fsum(rest)]  # each of rest is at most 1/4
        ids = [f"a{i}" for i in range(n_agents)]
        pieces = tuple(
            Piece(amount, data.draw(st.dictionaries(st.sampled_from(ids), self.EDGE_BONUSES)))
            for amount in amounts
        )
        agents = tuple(Agent(id=i, input=1.0) for i in ids)

        def gains(owned, agent):
            return [x for piece in owned for x in (piece.amount, piece.bonus.get(agent, 0.0))]

        try:
            problem = DiscreteProblem(agents=agents, pieces=pieces)
        except ValueError as err:  # refused exactly where fsum overflows for some agent
            overflows = []
            for agent in ids:
                try:
                    math.fsum(gains(pieces, agent))
                except OverflowError:
                    overflows.append(f"utility of agent {agent!r} with every piece is not finite")
            assert str(err) == overflows[0]
            return
        for allocation in enumerate_discrete(problem):
            ctx = evaluate_discrete(problem, allocation)
            for i, agent in enumerate(ids):
                owned = [p for p, owner in zip(pieces, allocation.assignment) if owner == i]
                assert ctx.outputs[i].hex() == math.fsum(p.amount for p in owned).hex()
                assert ctx.utilities[i].hex() == math.fsum(gains(owned, agent)).hex()

    @given(st.data())
    def test_conservation(self, data):
        n_agents = data.draw(st.integers(1, 3))
        n_pieces = data.draw(st.integers(1, 4))
        problem = simple_discrete(n_agents, n_pieces)
        for allocation in enumerate_discrete(problem):
            ctx = evaluate_discrete(problem, allocation)
            assert abs(math.fsum(ctx.outputs.values) - 1.0) <= 1e-9


class TestProblemValidation:
    def test_amounts_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteProblem(
                agents=(Agent(id="a", input=1.0),),
                pieces=(Piece(amount=0.5, bonus={}),),
            )

    def test_unknown_bonus_agent(self):
        with pytest.raises(ValueError):
            DiscreteProblem(
                agents=(Agent(id="a", input=1.0),),
                pieces=(Piece(amount=1.0, bonus={"b": 0.1}),),
            )

    def test_pieces_need_a_nonnegative_bonus_and_at_least_one_piece(self):
        for bonus in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^piece bonus for 'a' must be finite and >= 0$"):
                Piece(amount=1.0, bonus={"a": bonus})
        with pytest.raises(ValueError, match="^a discrete problem needs at least one piece$"):
            DiscreteProblem(agents=(Agent(id="a", input=1.0),), pieces=())

    def test_bonus_total_past_the_float_range(self):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        big = {"a": 1e308}
        with pytest.raises(ValueError, match="utility of agent 'a' with every piece"):
            DiscreteProblem(agents=agents, pieces=(Piece(0.5, big), Piece(0.5, big)))
        DiscreteProblem(agents=agents, pieces=(Piece(0.5, big), Piece(0.5, {"b": 1e308})))

    def test_utility_of_the_largest_float_is_accepted(self):
        # With amounts 1/2 + 1/2, the exact utilities are max + 2**969 + 1, which
        # rounds to max, and max + 2**970 + 1, past the halfway point to 2**1024.
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        big = {"a": sys.float_info.max}
        problem = DiscreteProblem(agents=agents, pieces=(Piece(0.5, big), Piece(0.5, {"a": 2.0**969})))
        ctx = evaluate_discrete(problem, DiscreteAllocation((0, 0)))
        assert ctx.utilities[0] == sys.float_info.max == math.fsum([0.5, 0.5, *big.values(), 2.0**969])
        with pytest.raises(OverflowError):
            math.fsum([0.5, 0.5, *big.values(), 2.0**970])
        with pytest.raises(ValueError) as err:
            DiscreteProblem(agents=agents, pieces=(Piece(0.5, big), Piece(0.5, {"a": 2.0**970})))
        assert str(err.value) == "utility of agent 'a' with every piece is not finite"

    def test_retention_range(self):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        with pytest.raises(ValueError):
            ContinuousProblem(agents=agents, total=7.0, retention={"a": 0.5, "b": 1.5})
        with pytest.raises(ValueError):
            ContinuousProblem(agents=agents, total=7.0, retention={"a": 0.5})
        with pytest.raises(ValueError, match=r"^retention for unknown agents \['c'\]$"):
            ContinuousProblem(agents=agents, total=7.0, retention={"a": 0.5, "b": 1.0, "c": 1.0})

    @pytest.mark.parametrize("total", [0.0, -1.0, math.inf, math.nan])
    def test_total_must_be_finite_and_positive(self, total):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        with pytest.raises(ValueError, match="^total must be finite and > 0$"):
            ContinuousProblem(agents=agents, total=total, retention={"a": 0.5, "b": 1.0})


    def test_inputs_built_once(self):
        for problem in (cake_problem(), fishermen_problem()):
            assert problem.inputs is problem.inputs
            assert problem.inputs == ValueVector(a.input for a in problem.agents)
            assert "inputs" not in repr(problem)

    def test_scoring_ignores_later_retention_changes(self):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=2.0))
        retention = {"a": 0.5, "b": 1.0}
        problem = ContinuousProblem(agents=agents, total=4.0, retention=retention)
        spec = PrincipleSpec("greater_good", mode=DIORTHOTIC)
        before = optimize_frontier(problem, spec, 11)
        retention["a"] = 5.0
        assert problem.retention == {"a": 0.5, "b": 1.0}
        assert problem.retention_factors() == (0.5, 1.0)
        with pytest.raises(TypeError):
            problem.retention["a"] = 0.25
        assert optimize_frontier(problem, spec, 11) == before
        ctx = frontier_context(problem, ValueVector([4.0, 0.0]))
        assert ctx.utilities == ValueVector([2.0, 0.0])
        cell = heatmap(problem, spec, 1)[2]
        assert (cell.y_a, cell.y_b, cell.score) == (4.0, 0.0, 2.0)

    def test_scoring_ignores_later_bonus_changes(self):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        bonus = {"a": 1.0}
        problem = DiscreteProblem(agents=agents, pieces=(Piece(amount=1.0, bonus=bonus),))
        allocation = DiscreteAllocation((0,))
        before = evaluate_discrete(problem, allocation)
        bonus["a"] = -5.0
        assert evaluate_discrete(problem, allocation) == before
        assert before.utilities == ValueVector([2.0, 0.0])
        assert problem.pieces[0] == Piece(amount=1.0, bonus={"a": 1.0})
        with pytest.raises(TypeError):
            problem.pieces[0].bonus["a"] = 3.0


class TestFrontierContext:
    def test_examples(self):
        problem = fishermen_problem()
        ctx = frontier_context(problem, ValueVector([3.5, 3.5]))
        assert_close(ctx.utilities[0], 3.325)
        assert_close(ctx.utilities[1], 2.975)
        ctx = frontier_context(problem, ValueVector([7, 0]))
        assert_close(ctx.utilities[0], 6.65)
        assert ctx.utilities[1] == 0.0

    def test_off_frontier_rejected(self):
        with pytest.raises(ValueError, match=r"^shares sum to 6\.0, expected 7\.0$"):
            frontier_context(fishermen_problem(), ValueVector([3, 3]))

    def test_shares_summing_past_the_float_range_are_off_frontier(self):
        with pytest.raises(ValueError, match=r"^shares sum to inf, expected 7\.0$"):
            frontier_context(fishermen_problem(), ValueVector([1e308, 0.9e308]))

    def test_tolerance_is_relative_to_a_large_total(self):
        agents = (Agent(id="a", input=3.0), Agent(id="b", input=7.0))
        problem = ContinuousProblem(
            agents=agents, total=548786933043.7, retention={"a": 0.9, "b": 0.7}
        )
        spec = PrincipleSpec(principle="proportion", metric=DispersionMetric("gini"))
        table = continuous_ranking(problem, ["proportion"], [spec], [1.0], 11)
        assert table.candidates == ("t=1.6463608e+11",)

    @given(st.floats(min_value=0.0, max_value=7.0))
    def test_conservation(self, t):
        ctx = frontier_context(fishermen_problem(), ValueVector([t, 7.0 - t]))
        assert abs(math.fsum(ctx.outputs.values) - 7.0) <= 1e-9


class TestOptimizeFrontier:
    def test_fishermen_optima(self):
        cfg = load_preset("fishermen")
        by_label = dict(zip(cfg.principle_labels, cfg.specs))
        shares, value = optimize_frontier(cfg.problem, by_label["difference"], 10001)
        assert shares[0] == 3.5  # 7 * 1 / 2, a breakpoint
        shares, _ = optimize_frontier(cfg.problem, by_label["proportion"], 10001)
        assert shares[0] == 2.8  # 7 * 8 / 20, a breakpoint
        shares, value = optimize_frontier(cfg.problem, by_label["greater_good"], 10001)
        assert shares[0] == 7.0
        assert_close(value, 6.65)

    def test_two_agents_only(self):
        # refused when the problem is built, so the optimizer never meets it
        for n in (1, 3):
            agents = tuple(Agent(id=f"a{i}", input=1.0) for i in range(n))
            with pytest.raises(ValueError) as err:
                ContinuousProblem(agents=agents, total=1.0, retention={a.id: 1.0 for a in agents})
            assert str(err.value) == (
                f"a continuous problem splits its total between two agents, got {n}"
            )

    def test_plateau_ties_break_toward_smaller_t(self):
        # sufficiency at T=2 is flat at 1.0 for t in [2, 5]; the optimizer
        # must report the left edge of the plateau, not an interior point
        cfg = load_preset("fishermen")
        spec = dict(zip(cfg.principle_labels, cfg.specs))["sufficiency"]
        shares, value = optimize_frontier(cfg.problem, spec, 10001)
        assert value == 1.0
        assert shares[0] == 2.0

    def test_matches_dense_scan(self):
        # Vectorized closed forms of each preset objective over a dense grid
        # stand in for brute force.
        cfg = load_preset("fishermen")
        t = np.linspace(0.0, 7.0, 1_000_001)
        u_a, u_b = 0.95 * t, 0.85 * (7.0 - t)
        closed_forms = {
            "difference": np.minimum(t, 7.0 - t),
            "equality": _foster_closed_form(t),
            "greater_good": u_a + u_b,
            "proportion": -0.5 * np.abs(t / 8.0 - (7.0 - t) / 12.0),
            "sufficiency": ((t >= 2.0).astype(float) + (7.0 - t >= 2.0)) / 2.0,
        }
        for label, spec in zip(cfg.principle_labels, cfg.specs):
            if label not in closed_forms:
                continue
            dense_t = float(t[int(np.argmax(closed_forms[label]))])
            shares, _ = optimize_frontier(cfg.problem, spec, 10001)
            assert abs(shares[0] - dense_t) <= 7.0 * 1e-3, label

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.sampled_from([0.0, 1.0, 8.0, 12.0]) | st.floats(1e-3, 1e3)] * 2),
        st.tuples(*[st.floats(0.05, 1.0)] * 2),
        st.floats(1e-2, 1e6),
        st.sampled_from(ACCEPTED_SHAPES),
        st.floats(0.0, 1.25),
    )
    def test_exact_for_every_spec_shape(self, inputs, retention, total, spec, threshold_share):
        agents = (Agent(id="a", input=inputs[0]), Agent(id="b", input=inputs[1]))
        problem = ContinuousProblem(agents=agents, total=total, retention=dict(zip("ab", retention)))
        if spec.threshold is not None:
            spec = dataclasses.replace(spec, threshold=threshold_share * total)
        sign = -1.0 if direction(spec) == MINIMIZE else 1.0

        def objective(t):
            return sign * score(spec, frontier_context(problem, ValueVector((t, total - t)))).value

        results = []
        for resolution in (2, 101, 10_001):
            try:
                results.append(optimize_frontier(problem, spec, resolution))
            except DomainError as err:
                results.append(type(err))
        assert results[0] == results[1] == results[2]
        try:
            objective(0.0)
        except DomainError as err:
            assert results[0] is type(err)
            return
        try:
            grid_best = max(objective(total if i == 2000 else total * i / 2000) for i in range(2001))
        except DomainError:
            return  # the optimizer may return or raise
        shares, value = results[0]
        assert sign * value >= grid_best - 1e-9 * max(1.0, abs(grid_best))
        assert value.hex() == score(spec, frontier_context(problem, shares)).value.hex()

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.sampled_from([0.0, 1.0, 8.0, 12.0]) | st.floats(1e-3, 1e3)] * 2),
        st.tuples(*[st.floats(0.05, 1.0)] * 2),
        st.sampled_from([1e-2, 7.0, 1e308, MAX_FLOAT]) | st.floats(1e-2, MAX_FLOAT),
        st.sampled_from(ACCEPTED_SHAPES),
        st.floats(0.0, 1.25),
    )
    @example((0.0, 0.0), (1.0, 1.0), MAX_FLOAT, PrincipleSpec("greater_good"), 0.5)
    def test_within_rounding_of_the_full_search(self, inputs, retention, total, spec, threshold_share):
        # Every spec scores only breakpoints: it raises what the full search
        # raises, or trails its value by at most _rounding_bound.
        agents = (Agent(id="a", input=inputs[0]), Agent(id="b", input=inputs[1]))
        problem = ContinuousProblem(agents=agents, total=total, retention=dict(zip("ab", retention)))
        if spec.threshold is not None:
            threshold = threshold_share * total
            spec = dataclasses.replace(spec, threshold=min(threshold, MAX_FLOAT))

        def outcome(optimize):
            try:
                shares, value = optimize(problem, spec)
            except DomainError as err:
                return type(err), str(err)
            return [t.hex() for t in shares.values], value.hex()

        fast, full = outcome(optimize_frontier), outcome(oracles.optimize_frontier_full_search)
        if isinstance(fast[0], type):
            assert fast == full
        elif not isinstance(full[0], type):  # (it may raise between breakpoints alone)
            shares = ValueVector(float.fromhex(t) for t in fast[0])
            sign = -1.0 if direction(spec) == MINIMIZE else 1.0
            value = float.fromhex(fast[1])
            gap = sign * (float.fromhex(full[1]) - value)
            assert gap <= _rounding_bound(problem, spec, shares, value)

    def test_overflow_between_breakpoints_no_longer_refuses(self):
        # The full search raised here only because fsum overflowed at an
        # interior point that is no breakpoint; every breakpoint scores total.
        agents = (Agent(id="a", input=0.0), Agent(id="b", input=0.0))
        problem = ContinuousProblem(agents=agents, total=MAX_FLOAT, retention={"a": 1.0, "b": 1.0})
        spec = PrincipleSpec("greater_good")
        shares, value = optimize_frontier(problem, spec)
        assert (shares.values, value) == ((0.0, MAX_FLOAT), MAX_FLOAT)
        with pytest.raises(NonFiniteScoreError):
            oracles.optimize_frontier_full_search(problem, spec)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(*[st.sampled_from([0.0, 1.0, 8.0, 12.0]) | st.floats(1e-3, 1e3)] * 2),
        st.tuples(*[st.floats(0.05, 1.0)] * 2),
        st.sampled_from([1e-2, 7.0, 1e305, MAX_FLOAT]) | st.floats(1e-2, MAX_FLOAT),
        st.sampled_from(ACCEPTED_SHAPES),
        st.floats(0.0, 1.25),
    )
    def test_no_scan_point_beats_the_optimum(self, inputs, retention, total, spec, threshold_share):
        agents = (Agent(id="a", input=inputs[0]), Agent(id="b", input=inputs[1]))
        problem = ContinuousProblem(agents=agents, total=total, retention=dict(zip("ab", retention)))
        if spec.threshold is not None:
            spec = dataclasses.replace(spec, threshold=min(threshold_share * total, MAX_FLOAT))
        sign = -1.0 if direction(spec) == MINIMIZE else 1.0
        try:
            shares, value = optimize_frontier(problem, spec)
        except DomainError:
            return
        for i in range(401):
            scan_shares = ValueVector((t := i / 400 * total, total - t))
            try:
                scanned = sign * score(spec, _share_context(problem, scan_shares)).value
            except DomainError:
                continue
            bound = max(
                _rounding_bound(problem, spec, shares, value),
                _rounding_bound(problem, spec, scan_shares, scanned),
            )
            assert scanned - sign * value <= bound, t

    def test_equal_ratio_crossing_kept_past_the_float_range(self):
        # total * b * p overflows at these totals; the crossing is divided first
        agents = (Agent(id="a", input=800.0), Agent(id="b", input=1200.0))
        for total in (1e305, 1.7e307, MAX_FLOAT):
            problem = ContinuousProblem(agents=agents, total=total, retention={"a": 1.0, "b": 1.0})
            spec = PrincipleSpec("proportion", metric=DispersionMetric("hoover"))
            shares, value = optimize_frontier(problem, spec)
            assert value <= 4 * EPS
            assert shares[0] / 800.0 == pytest.approx(shares[1] / 1200.0, rel=4 * EPS)

    def test_equal_value_whose_halved_quotient_underflows_is_exact(self):
        # total * b * p / den overflows, and each halved term of the fallback
        # underflows to 0; the crossing is then the exact quotient
        inputs = (1.0098284052755533, 0.0504150618905204)
        (t,) = principles._equal_value(MAX_FLOAT, 5e-324, 5e-324, *inputs)
        p, q = map(Fraction, inputs)
        assert t == float(Fraction(MAX_FLOAT) * p / (p + q))
        assert 0.0 <= t <= MAX_FLOAT
        agents = (Agent(id="a", input=inputs[0]), Agent(id="b", input=inputs[1]))
        retention = {"a": 5e-324, "b": 5e-324}
        problem = ContinuousProblem(agents=agents, total=MAX_FLOAT, retention=retention)
        shares, _ = optimize_frontier(problem, PrincipleSpec("proportion", basis="utility"))
        assert shares[0] == t

    def test_isoelastic_optimum_is_its_closed_form(self):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=3.0))
        problem = ContinuousProblem(agents=agents, total=7.0, retention={"a": 0.5, "b": 0.9})
        spec = PrincipleSpec("greater_good", mode=DIORTHOTIC, rho=0.5, weights=(1.0, 3.0))
        q = (3.0 * 0.9**0.5 / (1.0 * 0.5**0.5)) ** (1.0 / 0.5)
        shares, value = optimize_frontier(problem, spec)
        assert shares.values == (7.0 / (1.0 + q), 7.0 - 7.0 / (1.0 + q))
        assert value >= oracles.optimize_frontier_full_search(problem, spec)[1]

    def test_isoelastic_optimum_whose_closed_form_passes_the_float_range(self):
        # r = (0.95 / 0.5)^(1 / 1e-300) overflows, so no split is declared and
        # the ends decide: all to b, who retains more
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        problem = ContinuousProblem(agents=agents, total=7.0, retention={"a": 0.5, "b": 0.95})
        spec = PrincipleSpec("greater_good", mode=DIORTHOTIC, rho=1e-300)
        assert principles._isoelastic_max(spec, 7.0, 0.5, 0.95, 1.0, 1.0) == []
        shares, value = optimize_frontier(problem, spec)
        assert (shares.values, value) == ((0.0, 7.0), 6.6499999999999995)
        assert (shares, value) == oracles.optimize_frontier_full_search(problem, spec)

    def test_foster_on_utilities_peaks_at_its_critical_point(self):
        # the mean of the utilities moves along the frontier, so foster peaks
        # inside the piece right of the equal-output breakpoint 3.5, at the
        # float nearest the root of its derivative, 3.50040282532102845...
        problem = fishermen_problem()
        spec = PrincipleSpec("equality", mode=DIORTHOTIC, basis="utility")
        shares, value = optimize_frontier(problem, spec)
        assert shares.values == (3.5004028253210286, 7.0 - 3.5004028253210286)
        assert float(oracles.foster_argmax(7.0, (0.95, 0.85))) == shares[0]
        full_value = oracles.optimize_frontier_full_search(problem, spec)[1]
        assert full_value - value <= _rounding_bound(problem, spec, shares, value)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([1e-2, 7.0, 1e308, MAX_FLOAT]) | st.floats(1e-2, MAX_FLOAT),
        st.tuples(*[st.floats(0.05, 1.0)] * 2)
        | st.floats(0.05, 1.0).map(lambda c: (c, c))
        # ratios on both sides of 3 + 2 sqrt 2, where g starts to turn
        | st.tuples(
            st.floats(0.05, 0.12),
            st.floats(4.0, 8.0) | st.sampled_from([5.828427124746189, 5.82842712474619]),
            st.booleans(),
        ).map(lambda x: (x[0] * x[1], x[0])[:: 1 if x[2] else -1]),
    )
    @example(7.0, (0.95, 0.85))
    @example(1e-2, (1.0, 0.75))
    # turning points within a subnormal of 0 or total; foster peaks at an end
    @example(7.0, (5e-324, 1.0))
    @example(7.0, (1.0, 5e-324))
    # near-equal retention, where the point of equal value lies within about
    # sqrt(eps) of the peak and must not be scored
    @example(1e-2, (0.5349, 0.5322))
    @example(7.0, (0.6029, 0.6))
    @example(1.0, (0.6842, 0.6848))
    def test_foster_on_utilities_is_the_decimal_argmax(self, total, retention):
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        problem = ContinuousProblem(agents=agents, total=total, retention=dict(zip("ab", retention)))
        spec = PrincipleSpec("equality", mode=DIORTHOTIC, basis="utility")
        ref = float(oracles.foster_argmax(total, retention))
        assert ref in _foster_peaks(total, *retention) or retention[0] == retention[1]
        shares, _ = optimize_frontier(problem, spec)
        assert abs(shares[0] - ref) <= math.ulp(ref)

    def test_one_score_per_breakpoint(self, monkeypatch):
        calls = _count_scores(monkeypatch)
        problem = fishermen_problem()
        for spec in ACCEPTED_SHAPES:
            if spec.threshold is not None:
                spec = dataclasses.replace(spec, threshold=2.0)
            calls.clear()
            try:
                optimize_frontier(problem, spec)
            except DomainError:
                continue
            # every breakpoint, each scored once in ascending t
            expected = principles.frontier_breakpoints(spec, 7.0, (0.95, 0.85), (8.0, 12.0))
            ts = [t for _, t in calls]
            assert ts == expected and len(ts) <= 4, spec
        equal_utilities, peak = 7 * 0.85 / (0.95 + 0.85), 3.5004028253210286
        for spec, expected in [
            # equal outputs, or equal utilities 0.95 t = 0.85 (7 - t)
            (PrincipleSpec("difference"), [0.0, 3.5, 7.0]),
            (PrincipleSpec("equality", basis="utility", metric=STD), [0.0, equal_utilities, 7.0]),
            (PrincipleSpec("equality", mode=DIORTHOTIC, variant="sen"), [0.0, 3.5, 7.0]),
            (PrincipleSpec("greater_good", mode=DIORTHOTIC, rho=math.inf), [0.0, equal_utilities, 7.0]),
            # equal outputs over inputs 8 and 12
            (PrincipleSpec("proportion", metric=STD), [0.0, 2.8, 7.0]),
            # each agent's edge of sufficiency
            (PrincipleSpec("sufficiency", threshold=2.0), [0.0, 2.0, 5.0, 7.0]),
            # the two floats around foster's peak on unequal utilities
            (PrincipleSpec("equality", mode=DIORTHOTIC, basis="utility"),
             [0.0, math.nextafter(peak, 0.0), peak, 7.0]),
            # linear or constant on the frontier: the ends alone
            (PrincipleSpec("difference", variant="harsanyian", basis="utility"), [0.0, 7.0]),
            (PrincipleSpec("greater_good"), [0.0, 7.0]),
            (PrincipleSpec("proportion", mode=DIORTHOTIC, variant="noop"), [0.0, 7.0]),
            # one score on the whole frontier: t = 0 alone
            (PrincipleSpec("equality_of_opportunity", metric=STD), [0.0]),
        ]:
            calls.clear()
            optimize_frontier(problem, spec)
            assert [t for _, t in calls] == expected, spec

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(100, 2000),
        st.tuples(*[st.integers(30, 100)] * 2),
        st.tuples(*[st.integers(50, 1500)] * 2),
        st.integers(1, 2000),
    )
    @example(700, (95, 85), (800, 1200), 200)  # fishermen
    def test_breakpoints_ascend_from_zero_to_total(self, total, retention, inputs, threshold):
        # random problems in cents: total, retention, inputs and sufficiency threshold
        total, threshold = total / 100, threshold / 100
        retention, inputs = tuple(r / 100 for r in retention), tuple(x / 100 for x in inputs)
        for spec in ACCEPTED_SHAPES:
            if spec.threshold is not None:
                spec = dataclasses.replace(spec, threshold=threshold)
            ts = principles.frontier_breakpoints(spec, total, retention, inputs)
            if principles.input_based(spec):
                assert ts == [0.0], spec
                continue
            assert ts == sorted(set(ts)) and (ts[0], ts[-1]) == (0.0, total), spec
            assert all(0.0 <= t <= total for t in ts), spec

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 100)] * 2),
        st.integers(1, 2000),
        st.integers(1, 2000),
        st.sampled_from([(DIANEMETIC, None), (DIORTHOTIC, "output"), (DIANEMETIC, "utility")]),
    )
    @example((55, 1), 24, 13, (DIANEMETIC, "utility"))  # 0.13 / 0.55 is not the least float
    @example((37, 30), 1740, 610, (DIANEMETIC, "utility"))  # 0.37 * (6.1 / 0.37) < 6.1
    def test_sufficiency_reports_the_left_end_of_its_plateau(self, retention, total, threshold, shape):
        # decimal retention and thresholds, where threshold / r can round
        # to the insufficient side of the crossing
        mode, basis = shape
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        problem = ContinuousProblem(
            agents=agents, total=total / 100, retention={"a": retention[0] / 100, "b": retention[1] / 100}
        )
        spec = PrincipleSpec("sufficiency", mode=mode, basis=basis, threshold=threshold / 100)
        shares, value = optimize_frontier(problem, spec)
        t = shares[0]
        if t > 0.0:
            below = math.nextafter(t, 0.0)
            ctx = _share_context(problem, ValueVector((below, problem.total - below)))
            assert score(spec, ctx).value < value

    @settings(max_examples=500)
    @given(
        st.floats(1e-2, MAX_FLOAT),
        st.tuples(*[st.floats(0.05, 1.0)] * 2),
        st.floats(1e-300, 1.0),
    )
    def test_threshold_crossings_are_the_last_floats_of_sufficiency(self, total, retention, share):
        # Both agents are sufficient somewhere on [0, total], neither everywhere.
        a, b = retention
        threshold = share * min(a * total, b * total)
        t_a, t_b = _threshold_crossings(total, threshold, a, b)
        assert a * t_a >= threshold > a * math.nextafter(t_a, 0.0)
        assert b * (total - t_b) >= threshold > b * (total - math.nextafter(t_b, math.inf))

    def test_an_agent_sufficient_everywhere_or_nowhere_has_no_crossing(self):
        assert _threshold_crossings(7.0, 0.0, 1.0, 0.5) == []
        assert _threshold_crossings(7.0, -1.0, 1.0, 0.5) == []
        assert _threshold_crossings(7.0, 4.0, 1.0, 0.5) == [4.0]
        assert _threshold_crossings(7.0, 8.0, 1.0, 0.5) == []

    def test_threshold_crossing_on_a_coarse_grid_of_the_other_share(self):
        # b's crossing sits far below total, where stepping t down one float
        # at a time would take about 2**52 steps to move total - t by one
        agents = (Agent(id="a", input=1.0), Agent(id="b", input=1.0))
        total, threshold = 0.5 + 3 * 2**-53, 0.3125 + 3 * 2**-54
        problem = ContinuousProblem(agents=agents, total=total, retention={"a": 1.0, "b": 0.625})
        t_a, t_b = _threshold_crossings(total, threshold, 1.0, 0.625)
        assert 0.625 * (total - t_b) >= threshold > 0.625 * (total - math.nextafter(t_b, 1.0))
        for basis in ("output", "utility"):
            spec = PrincipleSpec("sufficiency", mode=DIORTHOTIC, basis=basis, threshold=threshold)
            shares, value = optimize_frontier(problem, spec)
            assert (shares.values, value) == ((0.0, total), 0.5)

    @pytest.mark.parametrize("mode", [DIANEMETIC, DIORTHOTIC])
    def test_an_input_based_principle_proposes_t_zero(self, mode):
        # every breakpoint ties, so the scan keeps its first, t = 0
        problem = fishermen_problem()
        spec = PrincipleSpec("equality_of_opportunity", mode=mode, metric=STD)
        shares, value = optimize_frontier(problem, spec)
        assert shares.values == (0.0, problem.total)
        full_shares, full_value = oracles.optimize_frontier_full_search(problem, spec)
        assert [t.hex() for t in shares.values] == [t.hex() for t in full_shares.values]
        assert value.hex() == full_value.hex()

    def test_no_principle_costs_more_than_the_full_search(self, monkeypatch):
        calls = _count_scores(monkeypatch)
        cfg = load_preset("fishermen")
        for label, spec in zip(cfg.principle_labels, cfg.specs):
            optimize_frontier(cfg.problem, spec)
            fast = len(calls)
            calls.clear()
            oracles.optimize_frontier_full_search(cfg.problem, spec)
            assert fast <= len(calls), label
            calls.clear()

    def test_input_domain_error_still_names_the_principle(self):
        agents = (Agent(id="a", input=0.0), Agent(id="b", input=1.0))
        problem = ContinuousProblem(agents=agents, total=1.0, retention={"a": 1.0, "b": 1.0})
        spec = PrincipleSpec(
            "equality_of_opportunity", mode=DIORTHOTIC, metric=DispersionMetric("theil_l")
        )
        with pytest.raises(ScoringError) as err:
            continuous_ranking(problem, ["eoo"], [spec], [1.0])
        assert (err.value.principle, err.value.candidate) == ("eoo", "frontier")
        assert err.value.cause.name == "ZeroElement"


def _count_scores(monkeypatch):
    """Record (principle, t) per score call of optimize_frontier and of the oracle alike."""
    calls = []

    def counted(spec, ctx):
        calls.append((spec.principle, ctx.outputs[0]))
        return score(spec, ctx)

    monkeypatch.setattr("fairalloc.allocation.score", counted)
    monkeypatch.setattr(principles, "score", counted)
    return calls


def _count_cell_scores(monkeypatch):
    """Record the values of each heatmap cell scored by a spec built from here on.

    A cell is scored by the spec's pair kernel, or by its form's value where
    the spec has no kernel; the vector form a kernel falls back to is not
    counted again.
    """
    calls = []
    pair, value = principles._Form.pair, principles._Form.value  # the fields' getters

    def counted_pair(form):
        resolve = pair.__get__(form)
        if resolve is None:
            return None

        def counted(spec):
            kernel = resolve(spec)
            if kernel is None:
                return None

            def run(s, t):
                calls.append((s, t))
                return kernel(s, t)
            return run
        return counted

    def counted_value(form):
        def run(spec, v):
            if spec._pair is None:
                calls.append(v.values)
            return value.__get__(form)(spec, v)
        return run

    monkeypatch.setattr(principles._Form, "pair", property(counted_pair))
    monkeypatch.setattr(principles._Form, "value", property(counted_value))
    return calls


def _rounding_bound(problem, spec, shares, value):
    """The most a shift of t by ROUNDING_ULPS units of EPS * total moves a score near shares.

    A sufficiency score is a step at exactly placed crossings and may not
    move at all. A scale-free dispersion (any metric but std_dev) moves by
    at most the shift over the smaller share, relative to the score. Any
    other score moves by at most the shift, over the smallest input where
    it reads share-to-input ratios, plus its own rounding.
    """
    shift = ROUNDING_ULPS * EPS * problem.total
    if spec.threshold is not None:
        return 0.0
    if "metric" in READS[spec.principle, spec.mode] and spec.resolved_metric().kind != "std_dev":
        smaller = min([s for s in shares.values if s > 0.0], default=problem.total)
        return shift / smaller * max(1.0, abs(value))
    inputs = [x for x in problem.inputs.values if x > 0.0]
    return shift * max([1.0, *(1.0 / x for x in inputs)]) + ROUNDING_ULPS * EPS * abs(value)


def _foster_closed_form(t):
    y = np.stack([t, 7.0 - t])
    m = y.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = y / m
        terms = np.where(y > 0, ratio * np.log(np.where(y > 0, ratio, 1.0)), 0.0)
    theil = terms.mean(axis=0)
    out = m * np.exp(-theil)
    return np.where(m > 0, out, -np.inf)


class TestHeatmap:
    def test_smallest_grid(self):
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("greater_good")]
        cells = heatmap(cfg.problem, spec, 1)
        assert len(cells) == 4
        corners = {(c.y_a, c.y_b) for c in cells}
        assert corners == {(0.0, 0.0), (0.0, 7.0), (7.0, 0.0), (7.0, 7.0)}

    def test_grid_cap(self):
        # refused before any cell is built; grid 999 is the largest accepted
        spec = PrincipleSpec(principle="greater_good")
        with pytest.raises(ValueError) as err:
            heatmap(fishermen_problem(), spec, 1000)
        assert str(err.value) == "grid 1000 has 1002001 cells, over the cap of 1000000"

    def test_row_major_order_and_frontier_flag(self):
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("sufficiency")]
        grid = 7
        cells = heatmap(cfg.problem, spec, grid)
        assert len(cells) == (grid + 1) ** 2
        for idx, cell in enumerate(cells):
            i, j = divmod(idx, grid + 1)
            assert cell.y_a == pytest.approx(7.0 * i / grid)
            assert cell.y_b == pytest.approx(7.0 * j / grid)
            assert cell.on_frontier == (abs(cell.y_a + cell.y_b - 7.0) <= 7.0 / grid)

    def test_sufficiency_levels(self):
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("sufficiency")]
        scores = {c.score for c in heatmap(cfg.problem, spec, 7)}
        assert scores == {0.0, 0.5, 1.0}

    def test_errors_become_missing_cells(self):
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("equality")]
        cells = heatmap(cfg.problem, spec, 2)
        assert cells[0].score is None  # Foster is undefined at the origin
        assert sum(c.score is None for c in cells) == 1

    def test_non_finite_scores_become_missing_cells(self):
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("greater_good")]
        spec = dataclasses.replace(spec, weights=(1e308, 1e308))
        cells = heatmap(cfg.problem, spec, 7)
        # the weighted sum is inf once the utilities add up to more than about 1.8
        assert cells[0].score == 0.0
        assert cells[-1].score is None
        assert all(c.score is None or math.isfinite(c.score) for c in cells)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(*[st.sampled_from([0.0, 5e-324, 1.0, 8.0, 1e308, MAX_FLOAT])
                    | st.floats(0.0, 1e308)] * 2),
        st.tuples(*[st.sampled_from([5e-324, 1e-300, 1.0]) | st.floats(1e-3, 1.0)] * 2),
        st.booleans(),
        st.sampled_from([1e-300, 7.0, 1e307, 2.9e307, 1e308, MAX_FLOAT])
        | st.floats(1e-3, 1e6),
        st.sampled_from(ACCEPTED_SHAPES),
        st.integers(1, 6),
        st.floats(0.0, 1.25),
        st.none() | st.tuples(*[st.sampled_from([1.0, 1e-300, 1e308])] * 2),
    )
    # equal agents whose ratios pass the float range from the fourth axis point on
    @example((5e-324, 0.0), (1.0, 0.5), True, 2e-15, PrincipleSpec(principle="proportion"),
             6, 0.0, None)
    # equal agents with no input: every ratio is undefined
    @example((0.0, 8.0), (0.5, 1.0), True, 7.0, PrincipleSpec(principle="proportion"),
             3, 0.0, None)
    # equal agents that unequal weights tell apart
    @example((8.0, 12.0), (0.95, 0.85), True, 7.0,
             PrincipleSpec(principle="greater_good", mode=DIORTHOTIC, rho=2.0), 5, 0.0, (1.0, 2.0))
    def test_every_cell_is_a_direct_score(
        self, inputs, retention, equal_agents, total, spec, grid, threshold_share, weights
    ):
        # equal agents (b copies a) make the square symmetric unless the weights differ
        if equal_agents:
            inputs, retention = (inputs[0],) * 2, (retention[0],) * 2
        agents = (Agent(id="a", input=inputs[0]), Agent(id="b", input=inputs[1]))
        problem = ContinuousProblem(agents=agents, total=total, retention=dict(zip("ab", retention)))
        if spec.threshold is not None:
            spec = dataclasses.replace(spec, threshold=min(threshold_share * total, MAX_FLOAT))
        if weights is not None and spec.rho is not None:
            spec = dataclasses.replace(spec, weights=weights)
        # where i * total is past the float range, i / grid * total
        axis = [total if i == grid else i * total / grid for i in range(grid + 1)]
        axis = [y if math.isfinite(y) else i / grid * total for i, y in enumerate(axis)]
        cells = heatmap(problem, spec, grid)
        assert [(c.y_a, c.y_b) for c in cells] == list(itertools.product(axis, repeat=2))
        # no axis value is -0.0, so no CSV field of an axis value reads "-0"
        assert all(math.copysign(1.0, y) == 1.0 for c in cells for y in (c.y_a, c.y_b))
        for cell in cells:
            assert cell.on_frontier == (abs(cell.y_a + cell.y_b - total) <= total / grid)
            try:
                expected = score(spec, _share_context(problem, ValueVector((cell.y_a, cell.y_b))))
            except DomainError:
                assert cell.score is None
            else:
                assert cell.score is not None
                assert cell.score.hex() == expected.value.hex()

    @pytest.mark.parametrize("grid", [1, 2, 7])
    def test_a_heatmap_is_a_sequence_of_its_cells(self, grid):
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("equality")]
        cells = heatmap(cfg.problem, spec, grid)
        assert isinstance(cells, Heatmap)
        listed = list(cells)
        n = len(cells)
        assert n == len(listed) == (grid + 1) ** 2
        assert all(type(cell) is HeatmapCell for cell in listed)
        for i in range(n):
            assert cells[i] == cells[i - n] == listed[i]
        bounds = [None, -n - 5, -n - 1, -n, -n + 1, -1, 0, 1, n - 1, n, n + 1, n + 5]
        for a, b, c in itertools.product(bounds, bounds, [None, 1, 2, 3, -1, -2, -n - 1]):
            part = cells[a:b:c]
            assert type(part) is list and part == listed[a:b:c]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                cells[i]
        total, band = cfg.problem.total, cfg.problem.total / grid
        size = grid + 1
        for k, cell in enumerate(listed):
            flag = abs(cell.y_a + cell.y_b - total) <= band
            row, col = divmod(k, size)
            assert cell.on_frontier == (col in cells.frontier_columns(row)) == flag
        for row in range(size):
            flagged = [col for col in range(size) if listed[row * size + col].on_frontier]
            assert list(cells.frontier_columns(row)) == flagged
        with pytest.raises(ValueError, match="the axis must ascend"):
            Heatmap(cells.axis[::-1], cells.scores)
        with pytest.raises(ValueError, match="the axis needs at least two points"):
            Heatmap(cells.axis[:1], cells.scores[:1])

    def test_the_csv_builds_no_cell(self, monkeypatch):
        built = []
        init = HeatmapCell.__init__

        def counted(cell, *args):
            built.append(args)
            init(cell, *args)

        monkeypatch.setattr(HeatmapCell, "__init__", counted)
        cfg = load_preset("fishermen")
        for spec in cfg.specs:
            assert _heatmap_csv(heatmap(cfg.problem, spec, 7)).count("\n") == 65
        assert built == []
        # reading cells builds them, and the counter sees it
        assert len(heatmap(cfg.problem, cfg.specs[0], 1)[1:]) == len(built) == 3

    @pytest.mark.parametrize("grid", [1, 2, 5])
    def test_each_cell_is_scored_once_per_pair_where_the_agents_are_alike(
        self, monkeypatch, grid
    ):
        calls = _count_cell_scores(monkeypatch)
        triangle, square = (grid + 1) * (grid + 2) // 2, (grid + 1) ** 2
        agents = (Agent(id="a", input=2.0), Agent(id="b", input=2.0))
        alike = ContinuousProblem(agents=agents, total=7.0, retention={"a": 0.5, "b": 0.5})
        fishermen = fishermen_problem()  # its agents differ in input and retention
        for shape in ACCEPTED_SHAPES:
            for weights in [None, (3.0, 3.0), (1.0, 3.0)] if shape.rho is not None else [None]:
                spec = dataclasses.replace(shape, weights=weights)
                for problem in (alike, fishermen):
                    over_inputs = spec.principle == "proportion" and spec.variant != "noop"
                    basis = spec._form.basis
                    differ = problem is fishermen and (basis == "utility" or over_inputs)
                    expected = (
                        1 if basis == "input"
                        else square if differ or weights == (1.0, 3.0)
                        else triangle
                    )
                    calls.clear()
                    cells = heatmap(problem, spec, grid)
                    assert len(calls) == expected, (spec, problem)
                    assert len(cells) == square

    def test_only_a_cell_whose_kernel_cannot_vouch_falls_back(self, monkeypatch):
        built = []

        def counted(values):
            built.append(values)
            return ValueVector(values)

        monkeypatch.setattr(principles, "ValueVector", counted)
        spec = PrincipleSpec("proportion", metric=DispersionMetric.parse("atkinson(1)"))
        cells = heatmap(fishermen_problem(), spec, 300)
        # atkinson(1) refuses a zero share, which only the y=0 row and column
        # hold; the fishermen's unequal inputs leave the square unmirrored
        assert len(built) == 2 * 301 - 1
        assert all(0.0 in pair for pair in built)
        assert [k for k, c in enumerate(cells) if c.score is None] == sorted(
            {*range(301), *range(0, 301**2, 301)}
        )

    def test_an_input_based_principle_is_scored_once(self, monkeypatch):
        calls = _count_cell_scores(monkeypatch)
        cfg = load_preset("fishermen")
        spec = cfg.specs[list(cfg.principle_labels).index("equality_of_opportunity")]
        cells = heatmap(cfg.problem, spec, 10)
        assert calls == [cfg.problem.inputs.values]
        assert len(cells) == 121
        assert {c.score for c in cells} == {-2.0}


class TestRanking:
    def test_competition_ranks(self):
        assert rank_scores([3.0, 1.0, 3.0, 2.0], MAXIMIZE) == [1, 4, 1, 3]
        assert rank_scores([3.0, 1.0, 3.0, 2.0], MINIMIZE) == [3, 1, 3, 2]
        assert rank_scores([5.0, 5.0, 5.0], MAXIMIZE) == [1, 1, 1]

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 0.3, 0.30000000000000004, 1.0, 1.7e308])
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([MAXIMIZE, MINIMIZE]),
    )
    def test_rank_is_one_plus_the_strictly_better_count(self, values, way):
        def better(a, b):
            return a > b if way == MAXIMIZE else a < b

        expected = [1 + sum(better(w, v) for w in values) for v in values]
        assert rank_scores(values, way) == expected

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteScoreError):
            rank_scores([1.0, float("nan")], MAXIMIZE)

    def test_an_unknown_direction_is_refused(self):
        with pytest.raises(ValueError, match="^unknown direction 'minimise'$"):
            rank_scores([1.0, 2.0], "minimise")

    def test_cake_rank_one_per_principle(self):
        cfg = load_preset("cake")
        table = discrete_ranking(
            cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights,
            labels=cfg.candidate_labels,
        )
        rank1 = {}
        for p, label in enumerate(table.principles):
            rank1[label] = {
                table.candidates[c]
                for c in range(len(table.candidates))
                if table.ranks[p][c] == 1
            }
        assert rank1["greater_good"] == {"scenario 5"}
        assert rank1["difference"] == {"scenario 5"}
        assert rank1["equality"] == {"scenario 3"}
        assert rank1["proportion"] == {"scenario 1"}
        assert rank1["sufficiency"] == {"scenario 3", "scenario 4", "scenario 5"}

    def test_labels_match_contexts_one_to_one(self):
        cfg = load_preset("cake")
        contexts = [evaluate_discrete(cfg.problem, a) for a in enumerate_discrete(cfg.problem)]
        rest = (cfg.principle_labels, cfg.specs, cfg.weights)
        with pytest.raises(ValueError) as err:
            build_ranking(["only"], contexts, *rest)
        assert str(err.value) == "8 candidates need 8 labels, got 1"
        with pytest.raises(ValueError, match="8 candidates need 8 labels, got 1"):
            discrete_ranking(cfg.problem, *rest, labels=["only"])
        labels = [f"s{i}" for i in range(7)] + ["s0"]
        with pytest.raises(ValueError) as err:
            build_ranking(labels, contexts, *rest)
        assert str(err.value) == "candidate labels must be unique"

    def test_principle_labels_must_be_unique(self):
        cfg = load_preset("cake")
        contexts = [evaluate_discrete(cfg.problem, a) for a in enumerate_discrete(cfg.problem)]
        labels = [f"s{i}" for i in range(8)]
        with pytest.raises(ValueError) as err:
            build_ranking(labels, contexts, ["a", "a"], cfg.specs[:2], [1.0, 1.0])
        assert str(err.value) == "principle labels must be unique"

    def test_continuous_principle_labels_must_be_unique(self, monkeypatch):
        optimized = []
        monkeypatch.setattr(
            "fairalloc.allocation.optimize_frontier",
            lambda problem, spec, resolution=None: optimized.append(spec),
        )
        cfg = load_preset("fishermen")
        labels = ("a",) * len(cfg.specs)
        with pytest.raises(ValueError) as err:
            continuous_ranking(cfg.problem, labels, cfg.specs, cfg.weights)
        assert str(err.value) == "principle labels must be unique"
        assert optimized == []  # refused before any split is optimized

    def test_labels_match_principles_one_to_one(self, monkeypatch):
        optimized = []
        monkeypatch.setattr(
            "fairalloc.allocation.optimize_frontier",
            lambda problem, spec, resolution=None: optimized.append(spec),
        )
        for cfg, ranking in (
            (load_preset("cake"), discrete_ranking), (load_preset("fishermen"), continuous_ranking)
        ):
            n = len(cfg.specs)
            for labels in (cfg.principle_labels + ("ghost",), cfg.principle_labels[:-1]):
                with pytest.raises(ValueError) as err:
                    ranking(cfg.problem, labels, cfg.specs, cfg.weights)
                assert str(err.value) == f"{n} principles need {n} labels, got {len(labels)}"
        assert optimized == []  # refused before any split is optimized

    def test_an_input_based_principle_is_scored_once_per_inputs_vector(self, monkeypatch):
        calls = _count_scores(monkeypatch)
        cfg = load_preset("cake")
        table = discrete_ranking(cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights)
        counts = Counter(principle for principle, _ in calls)
        assert counts.pop("equality_of_opportunity") == 1
        assert set(counts.values()) == {8}  # every other principle, once per candidate
        p = cfg.principle_labels.index("equality_of_opportunity")
        assert len(set(table.scores[p])) == 1
        # two inputs objects, even equal ones, are scored once each, in candidate order
        one = evaluate_discrete(cfg.problem, DiscreteAllocation((0, 1, 0)))
        other = dataclasses.replace(one, inputs=ValueVector([0.5, 0.5]))
        same = dataclasses.replace(one, inputs=ValueVector(one.inputs))
        spec = cfg.specs[p]
        calls.clear()
        table = build_ranking(["1", "2", "3", "4"], [one, one, other, same], ["eoo"], [spec], [1.0])
        assert len(calls) == 3
        assert table.scores[0] == (*[score(spec, one).value] * 2, 0.0, score(spec, one).value)

    def test_an_input_based_failure_names_the_first_candidate(self):
        agents = (Agent(id="a", input=0.0), Agent(id="b", input=1.0))
        problem = DiscreteProblem(agents=agents, pieces=(Piece(0.5, {}), Piece(0.5, {})))
        spec = PrincipleSpec("equality_of_opportunity", metric=DispersionMetric("theil_l"))
        with pytest.raises(ScoringError) as err:
            discrete_ranking(problem, ["eoo"], [spec], [1.0])
        assert (err.value.principle, err.value.candidate) == ("eoo", "scenario 1")
        assert err.value.cause.name == "ZeroElement"

    @given(
        st.lists(st.integers(min_value=0, max_value=100).map(float), min_size=2, max_size=12),
        st.sampled_from([MAXIMIZE, MINIMIZE]),
    )
    def test_rank_invariance_under_monotone_transforms(self, scores, direction):
        base = rank_scores(scores, direction)
        affine = [3.0 * s + 7.0 for s in scores]
        expo = [math.exp(s / 100.0) for s in scores]
        assert rank_scores(affine, direction) == base
        assert rank_scores(expo, direction) == base


class TestAggregation:
    def test_single_principle_identity(self):
        ranks = [[2, 1, 3]]
        borda, combined = aggregate_ranks(ranks, [1.0], ["a", "b", "c"])
        assert combined == [2, 1, 3]

    def test_opposite_rankings_tie_broken_by_label(self):
        ranks = [[1, 2, 3], [3, 2, 1]]
        borda, combined = aggregate_ranks(ranks, [1.0, 1.0], ["c", "b", "a"])
        assert borda == [2.0, 2.0, 2.0]
        assert combined == [3, 2, 1]  # labels a < b < c win ties

    def test_zero_weights_inert(self):
        ranks = [[1, 2, 3], [3, 2, 1]]
        _, combined = aggregate_ranks(ranks, [1.0, 0.0], ["a", "b", "c"])
        assert combined == [1, 2, 3]

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="^at least one aggregation weight must be positive$"):
            aggregate_ranks([[1, 2]], [0.0], ["a", "b"])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            aggregate_ranks([[1, 2]], [-1.0], ["a", "b"])

    def test_counts_must_match(self):
        with pytest.raises(ValueError, match="^one weight per principle required$"):
            aggregate_ranks([[1, 2]], [1.0, 1.0], ["a", "b"])
        with pytest.raises(ValueError, match="^one rank per candidate required$"):
            aggregate_ranks([[1, 2]], [1.0], ["a", "b", "c"])

    @pytest.mark.parametrize("ranks", [
        [[1, 2], [0, 1]],  # rank 0
        [[1, 2], [1, 3]],  # rank k + 1
        [[3, 5], [3, 1]],  # ranks of some larger table: points -1.4 each, at weight 0.7
    ])
    def test_ranks_outside_one_to_k_are_refused(self, ranks):
        with pytest.raises(ValueError, match=r"^ranks must lie in 1\.\.2$"):
            aggregate_ranks(ranks, [0.7, 0.7], ["b", "a"])

    def test_competition_ranks_with_ties_are_accepted(self):
        borda, combined = aggregate_ranks([[1, 1, 3], [2, 2, 2]], [1.0, 1.0], ["c", "b", "a"])
        assert (borda, combined) == ([3.0, 3.0, 1.0], [2, 1, 3])

    def test_points_equal_in_decimal_tie(self):
        # 0.7 * 5 + 0.7 * 5 and 0.7 * 3 + 0.7 * 7 are both 7, but their float sums are not
        rest = [8] * 6
        borda, combined = aggregate_ranks(
            [[3, 5, *rest], [3, 1, *rest]], [0.7, 0.7], ["b", "a", *"cdefgh"]
        )
        assert borda[:2] == [7.0, 7.0]
        assert combined[:2] == [2, 1]  # the tie goes to label a

    def test_points_past_the_float_range_read_inf_and_still_order(self):
        borda, combined = aggregate_ranks([[1, 2, 3], [1, 2, 3]], [1e308, 1e308], ["c", "b", "a"])
        assert borda == [math.inf, math.inf, 0.0]
        assert combined == [1, 2, 3]  # 4e308 points beat 2e308, whatever the labels

    def test_integer_weights_keep_float_points(self):
        borda, _ = aggregate_ranks([[1, 2, 3], [2, 1, 3]], [2, 1.0], ["a", "b", "c"])
        assert borda == [5.0, 4.0, 0.0]
        assert all(type(b) is float for b in borda)

    @settings(max_examples=300)
    @given(st.data())
    def test_combined_order_is_the_exact_decimal_order(self, data):
        k = data.draw(st.integers(1, 8))
        n_principles = data.draw(st.integers(1, 6))
        ranks = [data.draw(st.lists(st.integers(1, k), min_size=k, max_size=k))
                 for _ in range(n_principles)]
        decimal = st.integers(0, 50).map(lambda n: n / 10) | st.integers(0, 500).map(lambda n: n / 100)
        weights = data.draw(
            st.lists(decimal, min_size=n_principles, max_size=n_principles).filter(any)
        )
        labels = data.draw(st.lists(st.text(max_size=3), min_size=k, max_size=k, unique=True))
        exact = [sum(Fraction(repr(w)) * (k - row[c]) for w, row in zip(weights, ranks))
                 for c in range(k)]
        order = sorted(range(k), key=lambda c: (-exact[c], labels[c]))
        borda, combined = aggregate_ranks(ranks, weights, labels)
        assert [combined[c] for c in order] == list(range(1, k + 1))
        assert borda == [float(points) for points in exact]  # each rounded once

    def test_cake_at_weight_seven_tenths_ranks_scenario_3_first(self):
        cfg = load_preset("cake")
        weights = [0.7 if label in ("difference", "proportion") else 0.0
                   for label in cfg.principle_labels]
        table = discrete_ranking(
            cfg.problem, cfg.principle_labels, cfg.specs, weights, labels=cfg.candidate_labels
        )
        top = [table.candidates[c] for c in table.combined_order()[:4]]
        assert top == ["scenario 3", "scenario 4", "scenario 5", "scenario 6"]
        assert {table.borda[table.candidates.index(c)] for c in top} == {7.0}

    @settings(max_examples=200)
    @given(st.data())
    def test_monotone_in_single_principle_improvement(self, data):
        k = data.draw(st.integers(2, 8))
        n_principles = data.draw(st.integers(1, 4))
        ranks = [
            [data.draw(st.integers(1, k)) for _ in range(k)]
            for _ in range(n_principles)
        ]
        weights = [data.draw(st.floats(min_value=0.1, max_value=5.0)) for _ in range(n_principles)]
        labels = [f"c{i}" for i in range(k)]
        _, combined = aggregate_ranks(ranks, weights, labels)
        p = data.draw(st.integers(0, n_principles - 1))
        c = data.draw(st.integers(0, k - 1))
        improved = [list(r) for r in ranks]
        improved[p][c] = max(1, improved[p][c] - data.draw(st.integers(1, k)))
        _, combined_after = aggregate_ranks(improved, weights, labels)
        assert combined_after[c] <= combined[c]


class TestContinuousRanking:
    def test_candidates_are_per_principle_optima(self):
        cfg = load_preset("fishermen")
        table = continuous_ranking(
            cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights, 10001
        )
        assert "t=3.5" in table.candidates
        assert "t=2.8" in table.candidates
        assert "t=7" in table.candidates

    def test_scoring_errors_are_annotated(self):
        agents = (Agent(id="a", input=0.0), Agent(id="b", input=1.0))
        problem = ContinuousProblem(agents=agents, total=2.0, retention={"a": 1.0, "b": 1.0})
        spec = PrincipleSpec(
            principle="proportion", mode=DIORTHOTIC, metric=STD, variant="dispersion"
        )
        with pytest.raises(ScoringError) as err:
            continuous_ranking(problem, ["proportion"], [spec], [1.0], 11)
        assert "proportion" in str(err.value)
        assert "ZeroInput" in str(err.value)

    def test_overflow_aborts_the_principle_as_a_scoring_error(self):
        agents = (Agent(id="a", input=1e-308), Agent(id="b", input=1.0))
        problem = ContinuousProblem(agents=agents, total=2.0, retention={"a": 1.0, "b": 1.0})
        spec = PrincipleSpec(principle="proportion", mode=DIORTHOTIC, metric=STD)
        with pytest.raises(ScoringError) as err:
            continuous_ranking(problem, ["proportion"], [spec], [1.0], 11)
        assert (err.value.principle, err.value.candidate) == ("proportion", "frontier")
        assert isinstance(err.value.cause, NonFiniteScoreError)

    def test_optima_that_share_nine_digits_are_two_candidates(self):
        # foster on equal utilities proposes 14.17 * 0.6 / 1.2, one float
        # below the equal outputs 14.17 / 2
        agents = (Agent(id="A", input=1.58), Agent(id="B", input=12.7))
        problem = ContinuousProblem(agents=agents, total=14.17, retention={"A": 0.6, "B": 0.6})
        specs = [
            PrincipleSpec("difference", mode=DIORTHOTIC, basis="output"),
            PrincipleSpec("equality", mode=DIORTHOTIC, basis="utility"),
        ]
        table = continuous_ranking(problem, ["difference", "equality"], specs, [1.0, 1.0])
        assert table.candidates == ("t=7.084999999999999", "t=7.085")
        assert [ctx.outputs[0] for ctx in table.contexts] == [7.084999999999999, 7.085]
        best = table.ranks[0].index(1)
        assert table.candidates[best] == "t=7.085"
        assert table.scores[0][best] == 7.085

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(*[st.integers(50, 1500)] * 2),
        st.tuples(*[st.integers(30, 100)] * 2),
        st.integers(100, 2000),
        st.tuples(*[st.sampled_from(ACCEPTED_SHAPES)] * 2),
        st.integers(1, 2000),
    )
    @example((158, 1270), (60, 60), 1417, (
        PrincipleSpec("difference", mode=DIORTHOTIC, basis="output"),
        PrincipleSpec("equality", mode=DIORTHOTIC, basis="output"),
    ), 1)
    def test_every_distinct_optimum_is_one_candidate(self, inputs, retention, total, pair, threshold):
        # ROADMAP's random problems: amounts given to two decimals
        agents = (Agent(id="a", input=inputs[0] / 100), Agent(id="b", input=inputs[1] / 100))
        problem = ContinuousProblem(
            agents=agents, total=total / 100, retention={"a": retention[0] / 100, "b": retention[1] / 100}
        )
        specs = [
            dataclasses.replace(spec, threshold=threshold / 100) if spec.threshold is not None else spec
            for spec in pair
        ]
        assume(specs[0].principle != specs[1].principle)
        try:
            table = continuous_ranking(problem, ["p0", "p1"], specs, [1.0, 1.0])
        except ScoringError:
            return
        optima = [optimize_frontier(problem, spec) for spec in specs]
        splits = [ctx.outputs[0] for ctx in table.contexts]
        assert splits == sorted({shares[0] for shares, _ in optima})
        assert len(set(table.candidates)) == len(table.candidates)
        for row, (shares, value) in zip(table.scores, optima):
            # each principle's own optimum is ranked, with the score it was found at
            assert row[splits.index(shares[0])] == value


@st.composite
def _ordering_cases(draw):
    # A small discrete problem, principles and Borda weights, plus one order
    # of its pieces and one of its agents. Amounts are k_i / sum(k), so equal
    # and decimal amounts are common; inputs are round, so no ratio overflows.
    n_agents = draw(st.integers(1, 3))
    n_pieces = draw(st.integers(1, 6))
    inputs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                           min_size=n_agents, max_size=n_agents))
    ks = draw(st.lists(st.integers(1, 5), min_size=n_pieces, max_size=n_pieces))
    bonus = st.dictionaries(st.integers(0, n_agents - 1), st.sampled_from([0.1, 0.2, 0.25, 0.3]))
    pieces = [(k / sum(ks), draw(bonus)) for k in ks]
    specs = []
    for spec in draw(st.lists(st.sampled_from(ACCEPTED_SHAPES), min_size=1, max_size=4)):
        if spec.threshold is not None:
            spec = dataclasses.replace(spec, threshold=draw(st.sampled_from([0.1, 0.3, 0.5])))
        if spec.rho is not None:
            weights = st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                               min_size=n_agents, max_size=n_agents).map(tuple)
            spec = dataclasses.replace(spec, weights=draw(st.none() | weights))
        specs.append(spec)
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                            min_size=len(specs), max_size=len(specs)))
    piece_order = draw(st.permutations(range(n_pieces)))
    agent_order = draw(st.permutations(range(n_agents)))
    return inputs, pieces, specs, weights, piece_order, agent_order


def _borda_by_assignment(inputs, pieces, specs, weights):
    # Borda points per assignment (piece -> agent index), or the name of the
    # principle and error that stopped the ranking.
    agents = tuple(Agent(id=f"a{i}", input=x) for i, x in enumerate(inputs))
    problem = DiscreteProblem(agents=agents, pieces=tuple(
        Piece(amount, {agents[i].id: b for i, b in bonus.items()}) for amount, bonus in pieces
    ))
    labels = [f"p{i}" for i in range(len(specs))]
    try:
        table = discrete_ranking(problem, labels, specs, weights)
    except ScoringError as err:
        return err.principle, err.cause.name
    return {a.assignment: points for a, points in zip(enumerate_discrete(problem), table.borda)}


class TestOrderInvariance:
    """Whole rankings do not depend on the order of the pieces or the agents."""

    @settings(max_examples=60, deadline=None)
    @given(_ordering_cases())
    @example((  # summed in piece order, these pieces reversed moved 163 of 243 candidates' points
        [1.0, 1.0, 2.0],
        [(0.1, {0: 0.3}), (0.2, {}), (0.3, {2: 0.1}), (0.15, {}), (0.25, {1: 0.2})],
        [PrincipleSpec("equality", metric=DispersionMetric("gini")),
         PrincipleSpec("difference"),
         PrincipleSpec("proportion", metric=DispersionMetric("theil_t")),
         PrincipleSpec("greater_good", basis="utility"),
         PrincipleSpec("sufficiency", threshold=0.3)],
        [1.0] * 5,
        [4, 3, 2, 1, 0],
        [0, 1, 2],
    ))
    def test_borda_points(self, case):
        inputs, pieces, specs, weights, piece_order, agent_order = case
        # New agent m is old agent agent_order[m]; welfare weights follow their agent.
        new_index = {old: new for new, old in enumerate(agent_order)}
        reordered = _borda_by_assignment(
            [inputs[i] for i in agent_order],
            [(amount, {new_index[i]: b for i, b in bonus.items()})
             for amount, bonus in (pieces[j] for j in piece_order)],
            [spec if spec.weights is None else dataclasses.replace(
                spec, weights=tuple(spec.weights[i] for i in agent_order)) for spec in specs],
            weights,
        )
        original = _borda_by_assignment(inputs, pieces, specs, weights)
        if isinstance(original, tuple):
            assert reordered == original
            return
        assert reordered == {
            tuple(new_index[a[j]] for j in piece_order): points for a, points in original.items()
        }
