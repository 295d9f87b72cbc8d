import copy
import dataclasses
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_close, vectors
from fairalloc import (
    DIORTHOTIC,
    MAXIMIZE,
    MINIMIZE,
    PRINCIPLES,
    RHO_INF,
    AllocationContext,
    DispersionMetric,
    DomainError,
    NonFiniteScoreError,
    PrincipleSpec,
    ValueVector,
    ZeroInputError,
    direction,
    dispersion,
    foster,
    isoelastic,
    mean,
    score,
    std_dev,
)
from fairalloc.dispersion import dispersion_pair
from fairalloc.principles import _SCORING, frontier_breakpoints, weighs_two_alike
from fairalloc.welfare import isoelastic_pair

STD = DispersionMetric("std_dev")


def _ctx(x, y, u):
    return AllocationContext(ValueVector(x), ValueVector(y), ValueVector(u))


def _spec(principle, **kwargs):
    return PrincipleSpec(principle=principle, **kwargs)


SCENARIO5_CTX = _ctx([0.9, 0.1], [0.6, 0.4], [0.7, 0.95])
SCENARIO4_CTX = _ctx([0.9, 0.1], [0.8, 0.2], [1.0, 0.5])

# Every (principle, mode, variant) the spec accepts, scored on SCENARIO4_CTX
# with default basis, metric std_dev and threshold 0.5.
SHAPES = [
    ("difference", "dianemetic", "rawlsian", MAXIMIZE, 0.2),
    ("difference", "dianemetic", "harsanyian", MAXIMIZE, 0.5),
    ("difference", "diorthotic", "rawlsian", MAXIMIZE, 0.2),
    ("difference", "diorthotic", "harsanyian", MAXIMIZE, 0.5),
    ("equality", "dianemetic", None, MINIMIZE, 0.30000000000000004),
    ("equality", "diorthotic", "foster", MAXIMIZE, 0.41234622211652944),
    ("equality", "diorthotic", "sen", MAXIMIZE, 0.35),
    ("equality_of_opportunity", "dianemetic", None, MINIMIZE, 0.4),
    ("equality_of_opportunity", "diorthotic", None, MAXIMIZE, -0.4),
    ("greater_good", "dianemetic", None, MAXIMIZE, 1.5),
    ("greater_good", "diorthotic", None, MAXIMIZE, 1.5),
    ("proportion", "dianemetic", None, MINIMIZE, 0.5555555555555556),
    ("proportion", "diorthotic", "dispersion", MAXIMIZE, -0.5555555555555556),
    ("proportion", "diorthotic", "noop", MAXIMIZE, 0.0),
    ("sufficiency", "dianemetic", None, MAXIMIZE, 0.5),
    ("sufficiency", "diorthotic", None, MAXIMIZE, 0.5),
]

# The parameters each (principle, mode) reads, besides basis and threshold:
# a spec setting any other variant, a metric or rho is refused.
READS = {
    ("difference", "dianemetic"): {"rawlsian", "harsanyian"},
    ("difference", "diorthotic"): {"rawlsian", "harsanyian"},
    ("equality", "dianemetic"): {"metric"},
    ("equality", "diorthotic"): {"foster", "sen"},
    ("equality_of_opportunity", "dianemetic"): {"metric"},
    ("equality_of_opportunity", "diorthotic"): {"metric"},
    ("greater_good", "dianemetic"): set(),
    ("greater_good", "diorthotic"): {"rho"},
    ("proportion", "dianemetic"): {"metric"},
    ("proportion", "diorthotic"): {"dispersion", "noop", "metric"},
    ("sufficiency", "dianemetic"): set(),
    ("sufficiency", "diorthotic"): set(),
}
VARIANTS = ("rawlsian", "harsanyian", "foster", "sen", "dispersion", "noop")
PARAMETERS = {
    **{variant: {"variant": variant} for variant in VARIANTS},
    "metric": {"metric": STD},
    "rho": {"rho": 2.0},
}

# Parameters a mode never reads although the principle's other mode does.
REFUSED = [
    ("equality", "dianemetic", {"variant": "foster"},
     "principle 'equality' has no variant 'foster' in dianemetic mode"),
    ("equality", "dianemetic", {"variant": "sen"},
     "principle 'equality' has no variant 'sen' in dianemetic mode"),
    ("proportion", "dianemetic", {"variant": "dispersion"},
     "principle 'proportion' has no variant 'dispersion' in dianemetic mode"),
    ("proportion", "dianemetic", {"variant": "noop"},
     "principle 'proportion' has no variant 'noop' in dianemetic mode"),
    ("equality", "diorthotic", {"metric": STD},
     "principle 'equality' takes no dispersion metric in diorthotic mode"),
]


class TestSpecValidation:
    def test_threshold_only_for_sufficiency(self):
        with pytest.raises(ValueError):
            _spec("equality", threshold=1.0, metric=STD)
        with pytest.raises(ValueError):
            _spec("sufficiency")

    def test_metric_only_for_dispersion_principles(self):
        with pytest.raises(ValueError):
            _spec("difference", metric=STD)

    def test_variants_checked(self):
        with pytest.raises(ValueError):
            _spec("difference", variant="foster")
        with pytest.raises(ValueError):
            _spec("sufficiency", threshold=1.0, variant="noop")

    def test_basis_rejected_for_equality_of_opportunity(self):
        with pytest.raises(ValueError):
            _spec("equality_of_opportunity", basis="output")

    def test_rho_weights_only_for_diorthotic_greater_good(self):
        _spec("greater_good", mode=DIORTHOTIC, rho=2.0)
        with pytest.raises(ValueError):
            _spec("greater_good", rho=2.0)
        with pytest.raises(ValueError):
            _spec("difference", mode=DIORTHOTIC, weights=(1.0, 1.0))

    def test_default_bases(self):
        # SCENARIO4_CTX's inputs, outputs and utilities all score differently
        for principle, basis, other, kwargs in [
            ("difference", "output", "utility", {}),
            ("greater_good", "utility", "output", {}),
            ("sufficiency", "output", "utility", {"threshold": 0.5}),
        ]:
            default = score(_spec(principle, **kwargs), SCENARIO4_CTX).value
            assert default == score(_spec(principle, basis=basis, **kwargs), SCENARIO4_CTX).value
            assert default != score(_spec(principle, basis=other, **kwargs), SCENARIO4_CTX).value
        inputs_std = score(_spec("equality_of_opportunity", metric=STD), SCENARIO4_CTX).value
        assert inputs_std == std_dev(SCENARIO4_CTX.inputs) != std_dev(SCENARIO4_CTX.outputs)

    @pytest.mark.parametrize("principle,mode", sorted(READS))
    @pytest.mark.parametrize("parameter", sorted(PARAMETERS))
    def test_accepted_exactly_when_read(self, principle, mode, parameter):
        kwargs = {"threshold": 0.5} if principle == "sufficiency" else {}
        kwargs.update(PARAMETERS[parameter])
        if parameter in READS[principle, mode]:
            _spec(principle, mode=mode, **kwargs)
        else:
            with pytest.raises(ValueError):
                _spec(principle, mode=mode, **kwargs)

    @pytest.mark.parametrize("principle,mode,kwargs,message", REFUSED)
    def test_parameter_of_the_other_mode_names_the_mode(self, principle, mode, kwargs, message):
        with pytest.raises(ValueError) as err:
            _spec(principle, mode=mode, **kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"principle": "sufficiency", "threshold": 1.0, "variant": "noop"},
             "principle 'sufficiency' has no variant 'noop'"),
            ({"principle": "difference", "variant": "foster"},
             "principle 'difference' has no variant 'foster'"),
            ({"principle": "difference", "metric": STD},
             "principle 'difference' takes no dispersion metric"),
            # also refused now for its variant, but the older rule is reported
            ({"principle": "equality", "variant": "sen", "threshold": 1.0},
             "threshold is required for sufficiency and only there"),
            ({"principle": "equality", "variant": "noop"},
             "principle 'equality' has no variant 'noop'"),
            ({"principle": "nope"}, "unknown principle 'nope'"),
            ({"principle": "equality", "mode": "nope"}, "unknown mode 'nope'"),
            ({"principle": "difference", "basis": "input"}, "unknown basis 'input'"),
            ({"principle": "sufficiency", "threshold": math.inf}, "threshold must be finite"),
            ({"principle": "greater_good", "mode": DIORTHOTIC, "rho": -1.0}, "rho must be >= 0"),
            ({"principle": "greater_good", "mode": DIORTHOTIC, "rho": math.nan},
             "rho must be >= 0"),
            # a variant or metric that neither mode reads is checked last
            ({"principle": "difference", "variant": "foster", "threshold": 1.0},
             "threshold is required for sufficiency and only there"),
            ({"principle": "difference", "metric": STD, "rho": 1.0},
             "rho/weights apply to the diorthotic greater-good principle only"),
        ],
    )
    def test_older_refusals_keep_their_message(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            PrincipleSpec(**kwargs)
        assert str(err.value) == message


class TestScoringTable:
    @pytest.mark.parametrize("principle,mode,variant,expected_direction,expected", SHAPES)
    def test_every_spec_shape(self, principle, mode, variant, expected_direction, expected):
        kwargs = {"threshold": 0.5} if principle == "sufficiency" else {}
        spec = _spec(principle, mode=mode, variant=variant, **kwargs)
        result = score(spec, SCENARIO4_CTX)
        assert result.value == expected
        assert direction(spec) == expected_direction
        default = _spec(principle, mode=mode, **kwargs)
        if next(iter(_SCORING[principle, mode].forms)) == variant:  # the first is the default
            assert score(default, SCENARIO4_CTX).value == expected
        # copies and pickles rebuild to an equal spec that resolves to the same form
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and hash(twin) == hash(spec)
            assert direction(twin) == direction(spec)
            assert twin.resolved_basis() == spec.resolved_basis()
            assert (frontier_breakpoints(twin, 7.0, (0.95, 0.85), (8.0, 12.0))
                    == frontier_breakpoints(spec, 7.0, (0.95, 0.85), (8.0, 12.0)))
            assert score(twin, SCENARIO4_CTX).value == expected
        # replace builds through the constructor, so the new spec resolves again
        if (principle, variant) == ("difference", "rawlsian"):
            harsanyian = dataclasses.replace(spec, variant="harsanyian")
            assert score(harsanyian, SCENARIO4_CTX).value == 0.5

    @pytest.mark.parametrize(
        "rho,weights,expected",
        [
            (2.0, None, -3.0),
            (2.0, (1.0, 3.0), -7.0),
            (None, (2.0, 0.5), 2.25),
            (1.0, (2.0, 0.5), -0.34657359027997264),
        ],
    )
    def test_isoelastic_shapes(self, rho, weights, expected):
        spec = _spec("greater_good", mode=DIORTHOTIC, rho=rho, weights=weights)
        result = score(spec, SCENARIO4_CTX)
        assert result.value == expected
        assert direction(spec) == MAXIMIZE

    def test_isoelastic_overflow_is_non_finite(self):
        # (1e-3) ** (1 - 200) raises OverflowError inside isoelastic
        spec = _spec("greater_good", mode=DIORTHOTIC, rho=200.0)
        with pytest.raises(NonFiniteScoreError) as err:
            score(spec, _ctx([1, 1], [1, 1], [1e-3, 1]))
        assert str(err.value) == "arithmetic overflow"


class TestDianemetic:
    def test_difference_on_utilities(self):
        spec = _spec("difference", variant="rawlsian", basis="utility")
        result = score(spec, SCENARIO5_CTX)
        assert_close(result.value, 0.7)
        assert direction(spec) == MAXIMIZE

    def test_greater_good(self):
        spec = _spec("greater_good")
        result = score(spec, SCENARIO4_CTX)
        assert_close(result.value, 1.5)
        assert direction(spec) == MAXIMIZE

    def test_equality_on_equal_utilities(self):
        spec = _spec("equality", basis="utility", metric=STD)
        ctx = _ctx([1, 1], [0.3, 0.7], [0.5, 0.5])
        result = score(spec, ctx)
        assert result.value == 0.0
        assert direction(spec) == MINIMIZE

    def test_harsanyian_variant_takes_the_mean(self):
        spec = _spec("difference", variant="harsanyian", basis="utility")
        assert_close(score(spec, SCENARIO4_CTX).value, 0.75)

    def test_proportion_needs_positive_inputs(self):
        ctx = _ctx([1, 0], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ZeroInputError):
            score(_spec("proportion", metric=STD), ctx)

    def test_sufficiency_share(self):
        spec = _spec("sufficiency", basis="utility", threshold=0.5)
        assert score(spec, SCENARIO4_CTX).value == 1.0


class TestDiorthotic:
    def test_difference_on_outputs(self):
        spec = _spec("difference", mode=DIORTHOTIC, basis="output")
        ctx = _ctx([8, 12], [3.5, 3.5], [3.325, 2.975])
        result = score(spec, ctx)
        assert_close(result.value, 3.5)
        assert direction(spec) == MAXIMIZE

    def test_greater_good_at_frontier_endpoint(self):
        spec = _spec("greater_good", mode=DIORTHOTIC)
        ctx = _ctx([8, 12], [7.0, 0.0], [6.65, 0.0])
        result = score(spec, ctx)
        assert_close(result.value, 6.65)

    def test_proportion_dispersion_of_ratios(self):
        spec = _spec("proportion", mode=DIORTHOTIC, basis="output", metric=STD)
        ctx = _ctx([8, 12], [2.8, 4.2], [2.66, 3.57])
        result = score(spec, ctx)
        assert result.value == pytest.approx(0.0, abs=1e-9)
        assert direction(spec) == MAXIMIZE

    def test_proportion_noop_scores_zero(self):
        spec = _spec("proportion", mode=DIORTHOTIC, variant="noop")
        assert score(spec, SCENARIO4_CTX).value == 0.0

    def test_equality_foster_default_and_sen(self):
        ctx = _ctx([8, 12], [3.5, 3.5], [3.325, 2.975])
        assert_close(
            score(_spec("equality", mode=DIORTHOTIC), ctx).value,
            foster(ctx.outputs),
        )
        assert_close(
            score(_spec("equality", mode=DIORTHOTIC, variant="sen"), ctx).value,
            3.5,
        )

    def test_equality_of_opportunity_negates_dispersion(self):
        spec = _spec("equality_of_opportunity", mode=DIORTHOTIC, metric=STD)
        assert_close(score(spec, _ctx([8, 12], [1, 1], [1, 1])).value, -2.0)

    def test_greater_good_isoelastic_parameters(self):
        spec = _spec("greater_good", mode=DIORTHOTIC, rho=RHO_INF)
        ctx = _ctx([1, 1], [1, 1], [0.4, 0.9])
        assert_close(score(spec, ctx).value, 0.4)


METRICS = [DispersionMetric.parse(name) for name in (
    "gini", "atkinson(0.5)", "atkinson(1)", "atkinson(2)", "atkinson(inf)",
    "herfindahl", "hoover", "palma", "std_dev", "theil_t", "theil_l",
)]


def _accepted_shapes():
    # Every accepted spec shape: read variants, metrics, bases and isoelastic
    # parameters, crossed per (principle, mode).
    shapes = []
    for (principle, mode), reads in sorted(READS.items()):
        threshold = 1e-300 if principle == "sufficiency" else None
        for variant, metric, basis, rho in itertools.product(
            [None, *sorted(reads & set(VARIANTS))],
            [None, *METRICS] if "metric" in reads else [None],
            [None] if principle == "equality_of_opportunity" else [None, "output", "utility"],
            [None, 0.0, 0.5, 1.0, 2.0, 200.0, RHO_INF] if "rho" in reads else [None],
        ):
            shapes.append(_spec(principle, mode=mode, variant=variant, basis=basis,
                                metric=metric, threshold=threshold, rho=rho))
    return shapes


ACCEPTED_SHAPES = _accepted_shapes()
EXTREME_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1e308,
                     1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308),
)


class TestProperties:
    @given(
        st.sampled_from(ACCEPTED_SHAPES),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(*[st.lists(EXTREME_VALUES, min_size=n, max_size=n)] * 3)
        ),
        st.none() | st.sampled_from([1.0, 1e-300, 1e308]),
    )
    def test_score_is_finite_or_a_domain_error(self, spec, columns, weight):
        if weight is not None and spec.rho is not None:
            spec = dataclasses.replace(spec, weights=(weight,) * len(columns[0]))
        try:
            value = score(spec, _ctx(*columns)).value
        except DomainError:
            return
        assert type(value) is float and math.isfinite(value)

    @given(
        st.sampled_from(ACCEPTED_SHAPES),
        st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.tuples(*[st.lists(EXTREME_VALUES, min_size=n, max_size=n)] * 2)
        ),
        st.sampled_from([5e-324, 1e-300, 1.0]) | st.floats(1e-3, 1.0),
        st.none() | st.sampled_from([1.0, 1e-300, 1e308]),
        st.data(),
    )
    def test_swapping_two_agents_it_cannot_tell_apart_keeps_the_score(
        self, spec, columns, retention, weight, data
    ):
        # Agents i and j have equal input, equal retention and equal weights;
        # swapping them leaves the score's bits, or its error, as they were.
        x, y = (list(c) for c in columns)
        i, j = data.draw(st.sampled_from(list(itertools.combinations(range(len(x)), 2))))
        x[j] = x[i]
        if weight is not None and spec.rho is not None:
            spec = dataclasses.replace(spec, weights=(weight,) * len(x))
        swapped = list(y)
        swapped[i], swapped[j] = y[j], y[i]

        def outcome(outputs):
            ctx = _ctx(x, outputs, [retention * v for v in outputs])
            try:
                return score(spec, ctx).value.hex()
            except DomainError as err:
                return type(err), str(err)

        assert outcome(swapped) == outcome(y)

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=2),
            min_size=2,
            max_size=8,
        )
    )
    def test_argmax_consistency_across_modes(self, utility_rows):
        ctxs = [_ctx([1.0, 2.0], [0.5, 0.5], u) for u in utility_rows]
        gg_dia = _spec("greater_good")
        gg_dio = _spec("greater_good", mode=DIORTHOTIC)
        by_dia = max(range(len(ctxs)), key=lambda i: score(gg_dia, ctxs[i]).value)
        by_dio = max(range(len(ctxs)), key=lambda i: score(gg_dio, ctxs[i]).value)
        assert by_dia == by_dio
        diff_dia = _spec("difference", basis="utility")
        diff_dio = _spec("difference", mode=DIORTHOTIC, basis="utility")
        by_dia = max(range(len(ctxs)), key=lambda i: score(diff_dia, ctxs[i]).value)
        by_dio = max(range(len(ctxs)), key=lambda i: score(diff_dio, ctxs[i]).value)
        assert by_dia == by_dio

    @given(vectors(min_size=2, max_size=12, positive=True))
    def test_equal_vector_optimal_for_dispersion_principles(self, y):
        equal = ValueVector([mean(y)] * len(y))
        spec = _spec("equality", metric=STD)
        ctx_any = _ctx([1.0] * len(y), list(y.values), [1.0] * len(y))
        ctx_equal = _ctx([1.0] * len(y), list(equal.values), [1.0] * len(y))
        assert (
            score(spec, ctx_equal).value
            <= score(spec, ctx_any).value + 1e-12
        )

    @given(vectors(min_size=2, max_size=12), st.data())
    def test_sufficiency_monotone_in_outputs(self, y, data):
        i = data.draw(st.integers(0, len(y) - 1))
        bump = data.draw(st.floats(min_value=0.0, max_value=10.0))
        threshold = data.draw(st.floats(min_value=0.0, max_value=1e6))
        spec = _spec("sufficiency", threshold=threshold)
        ones = [1.0] * len(y)
        raised = list(y.values)
        raised[i] += bump
        before = score(spec, _ctx(ones, list(y.values), ones)).value
        after = score(spec, _ctx(ones, raised, ones)).value
        assert after >= before

    @given(vectors(min_size=2, max_size=10, positive=True))
    def test_basis_swap_coherence_with_identity_utility(self, y):
        # u = y makes output-basis and utility-basis scores identical
        values = list(y.values)
        ctx = _ctx([1.0] * len(y), values, values)
        for principle in PRINCIPLES:
            if principle == "equality_of_opportunity":
                continue
            kwargs = {}
            if principle == "sufficiency":
                kwargs["threshold"] = 0.5
            if principle in ("equality", "proportion"):
                kwargs["metric"] = STD
            on_y = _spec(principle, basis="output", **kwargs)
            on_u = _spec(principle, basis="utility", **kwargs)
            assert score(on_y, ctx).value == score(on_u, ctx).value

    def test_direction_table(self):
        assert direction(_spec("equality", metric=STD)) == MINIMIZE
        assert direction(_spec("proportion")) == MINIMIZE
        assert direction(_spec("equality_of_opportunity")) == MINIMIZE
        assert direction(_spec("difference")) == MAXIMIZE
        assert direction(_spec("sufficiency", threshold=1.0)) == MAXIMIZE
        for principle in PRINCIPLES:
            kwargs = {"threshold": 1.0} if principle == "sufficiency" else {}
            assert direction(_spec(principle, mode=DIORTHOTIC, **kwargs)) == MAXIMIZE


# The statistics that have a pair kernel, those whose heatmaps perfbench's
# heatmap_grid measures, each with its vector form on a two-element vector.
_KERNEL_METRICS = [DispersionMetric("theil_l"), DispersionMetric("atkinson", 1.0)]
_ISOELASTIC_RHOS = sorted({s.rho for s in ACCEPTED_SHAPES if s.rho is not None})
# with rhos from the range that perfbench draws, 0.1 to 0.9
_KERNEL_RHOS = [rho for rho in _ISOELASTIC_RHOS if rho < 1.0] + [0.1, 0.78, 0.9]
PAIR_KERNELS = {
    **{str(m): (dispersion_pair(m), lambda v, m=m: dispersion(m, v)) for m in _KERNEL_METRICS},
    **{f"isoelastic rho={rho}": (isoelastic_pair(None, rho), lambda v, rho=rho: isoelastic(v, None, rho))
       for rho in _KERNEL_RHOS},
}
WEIGHTS = st.none() | st.sampled_from([(3.0, 3.0), (1.0, 3.0), (1.0, 2.0, 3.0)]) | st.tuples(
    *[st.sampled_from([5e-324, 1e-300, 1.0, 1e308]) | st.floats(1e-300, 1e308)] * 2
)


def _vouched(kernel, s, t):
    """The kernel's value where it vouches for it, else None: the caller would fall back."""
    if kernel is None:
        return None
    value = kernel(s, t)
    return value.hex() if math.isfinite(value) else None


class TestPairKernels:
    @pytest.mark.parametrize("name", PAIR_KERNELS)
    @settings(max_examples=500)
    @given(EXTREME_VALUES, EXTREME_VALUES, st.booleans())
    def test_a_kernel_has_the_vector_forms_bits_or_falls_back(self, name, s, t, equal):
        # where the vector form raises or gives inf or NaN, the kernel falls back too
        if equal:
            t = s
        kernel, vector_form = PAIR_KERNELS[name]
        value = _vouched(kernel, s, t)
        try:
            expected = vector_form(ValueVector((s, t)))
        except (DomainError, OverflowError):
            expected = None
        if value is not None:
            assert expected is not None and math.isfinite(expected) and expected.hex() == value

    @pytest.mark.parametrize("name", PAIR_KERNELS)
    def test_a_kernel_vouches_for_ordinary_pairs(self, name):
        # a kernel that fell back everywhere would pass the property above
        kernel, vector_form = PAIR_KERNELS[name]
        for pair in [(1.0, 3.0), (2.5, 2.5), (7.0, 0.5)]:
            assert _vouched(kernel, *pair) == vector_form(ValueVector(pair)).hex(), pair

    def test_every_other_statistic_has_no_kernel(self):
        # so that a heatmap scores it through its vector form
        others = [m for m in [*METRICS, DispersionMetric("atkinson", 0.0)]
                  if m not in _KERNEL_METRICS]
        assert [m for m in others if dispersion_pair(m) is not None] == []
        shapes = itertools.product([None, (1.0, 3.0), (3.0, 3.0)], _ISOELASTIC_RHOS)
        assert [(weights, rho) for weights, rho in shapes
                if (isoelastic_pair(weights, rho) is not None)
                != (weights is None and rho in _KERNEL_RHOS)] == []
        for spec in ACCEPTED_SHAPES:
            if spec._pair is not None:
                assert spec.resolved_metric() in _KERNEL_METRICS or spec.rho in _KERNEL_RHOS, spec

    @given(st.sampled_from(ACCEPTED_SHAPES), WEIGHTS, EXTREME_VALUES, EXTREME_VALUES)
    def test_a_spec_that_weighs_two_alike_has_a_symmetric_kernel(self, spec, weights, s, t):
        # the heatmap mirrors a square scored on equal axes through this
        if spec.rho is not None:
            spec = dataclasses.replace(spec, weights=weights)
        if weighs_two_alike(spec):
            assert _vouched(spec._pair, s, t) == _vouched(spec._pair, t, s)
