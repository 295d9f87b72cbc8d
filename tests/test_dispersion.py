import importlib
import math
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from conftest import assert_close, is_constant, scale, vectors
from fairalloc import (
    DegeneratePopulationError,
    DispersionMetric,
    DomainError,
    ValueVector,
    ZeroBottomShareError,
    ZeroElementError,
    ZeroMeanError,
    ZeroSumError,
    atkinson,
    benthamite,
    dispersion,
    foster,
    gini,
    herfindahl_normalized,
    hoover,
    isoelastic,
    mean,
    palma,
    palma_shares,
    sen,
    std_dev,
    theil_l,
    theil_t,
)
from fairalloc.core import LONG, kept_order, kept_sum
from fairalloc.dispersion import METRIC_KINDS, _power_mean

INF = math.inf
MAX_FLOAT = sys.float_info.max

# Metrics under the Pigou-Dalton transfer property; palma is excluded since
# transfers strictly inside the 40-90 band leave it unchanged at best.
PD_METRICS = [
    gini,
    lambda v: atkinson(v, 0.5),
    lambda v: atkinson(v, 2.0),
    hoover,
    theil_t,
    theil_l,
    herfindahl_normalized,
    std_dev,
]

ALL_METRICS = {
    "gini": gini,
    "atkinson(0.5)": lambda v: atkinson(v, 0.5),
    "atkinson(1)": lambda v: atkinson(v, 1.0),
    "atkinson(inf)": lambda v: atkinson(v, INF),
    "herfindahl": herfindahl_normalized,
    "hoover": hoover,
    "palma": palma,
    "std_dev": std_dev,
    "theil_t": theil_t,
    "theil_l": theil_l,
}


@pytest.mark.parametrize(
    # exp(mean(log)) in atkinson(1) and (x - m) ** 2 in std_dev go through libm, which may
    # round differently at each scale (TestStdDev checks std_dev's scaling to 1e-12)
    "name", [name for name in ALL_METRICS if name not in ("atkinson(1)", "std_dev")] + ["mean"]
)
@given(
    vectors(min_size=2, max_size=30, positive=True),
    st.integers(min_value=-12, max_value=0) | st.integers(min_value=-2100, max_value=0),
)
def test_power_of_two_scaling_keeps_every_bit(name, v, headroom):
    # headroom 0 puts the largest element just below the float limit, where
    # the sum and other intermediates overflow
    j = 1024 - math.frexp(max(v.values))[1] + headroom
    scaled = [math.ldexp(x, j) for x in v.values]
    assume(min(scaled) >= sys.float_info.min)  # no subnormal rounding
    metric, degree = (mean, 1) if name == "mean" else (ALL_METRICS[name], 0)
    assert metric(ValueVector(scaled)) == math.ldexp(metric(v), j * degree)


# Every metric kind, Atkinson around its branch points, and the welfare
# functions built on a metric.
WIDE_RANGE_FUNCTIONS = {
    **{
        str(metric): lambda v, metric=metric: dispersion(metric, v)
        for metric in [
            *(DispersionMetric(kind) for kind in METRIC_KINDS if kind != "atkinson"),
            *(DispersionMetric("atkinson", eps)
              for eps in (0.0, 0.5, 0.9999999, 1.0, 1.0000001, 2.0, 50.0, INF)),
        ]
    },
    "sen": sen,
    "foster": foster,
}


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.sampled_from([0.0, 5e-324, MAX_FLOAT])
    | st.floats(5e-324, sys.float_info.min, exclude_max=True)  # subnormal
    | st.floats(1e-300, 1e308),
    min_size=1,
    max_size=12,
))
# atkinson(1.0000001) overflows on these values unless its power mean falls back to logs
@example([1e-160] + [1e160] * 9)
def test_wide_range_returns_a_float_or_a_domain_error(values):
    # No OverflowError escapes the rescale, so core.overflow_safe needs no second guard.
    v = ValueVector(values)
    for name, fn in WIDE_RANGE_FUNCTIONS.items():
        try:
            result = fn(v)
        except DomainError:
            continue
        assert isinstance(result, float), name


def _outcome(fn, v):
    try:
        return fn(v).hex()
    except (DomainError, OverflowError) as err:  # benthamite's sum may overflow
        return type(err).__name__, str(err)


KEPT_VALUE_READERS = {**WIDE_RANGE_FUNCTIONS, "mean": mean, "benthamite": benthamite}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2 * LONG).flatmap(lambda n: st.lists(
    st.sampled_from([0.0, 5e-324, 1.0, MAX_FLOAT])
    | st.floats(5e-324, sys.float_info.min, exclude_max=True)  # subnormal
    | st.floats(1e-300, 1e308)
    | st.floats(1e308, MAX_FLOAT),  # two of these sum past the float range
    min_size=n,
    max_size=n,
)))
@example([1e-3] * LONG)
@example([MAX_FLOAT] * (LONG - 1) + [0.0])
@example([0.0] * (LONG + 1))
def test_kept_sum_and_order_change_no_bit(values):
    # A vector of LONG or more elements keeps its sum, order, Gini and Theil T
    # after their first use; every function then gives what it gives on a
    # fresh vector.
    for name, fn in KEPT_VALUE_READERS.items():
        warmed = ValueVector(values)
        for other_name, other in KEPT_VALUE_READERS.items():
            if other_name != name:
                _outcome(other, warmed)
        assert _outcome(fn, warmed) == _outcome(fn, ValueVector(values)), name
    # what is kept is the exact sum, the ascending order, and the Gini and
    # Theil T of a fresh vector; a statistic that raised keeps nothing
    assert _outcome(kept_sum, warmed) == _outcome(lambda v: math.fsum(values), warmed)
    assert kept_order(warmed) == tuple(sorted(values))
    store = getattr(warmed, "_kept", None) or {}
    for statistic in (gini, theil_t):
        fresh = _outcome(statistic, ValueVector(values))
        kept = store.get(statistic.__wrapped__)
        if len(values) < LONG or isinstance(fresh, tuple):
            assert kept is None, statistic.__name__
        else:
            assert kept.hex() == fresh, statistic.__name__


_DISPERSION = importlib.import_module("fairalloc.dispersion")


def test_sen_and_foster_reuse_the_kept_gini_and_theil_t(monkeypatch):
    # gini reads the kept order, and theil_t the mean, once per computation
    calls = Counter()

    def counted(fn):
        def count(v):
            calls[fn.__name__] += 1
            return fn(v)
        return count

    monkeypatch.setattr(_DISPERSION, "kept_order", counted(kept_order))
    monkeypatch.setattr(_DISPERSION, "mean", counted(mean))
    v = ValueVector(float(i % 7 + 1) for i in range(LONG))
    g = gini(v)
    assert sen(v) == mean(v) * (1.0 - g)
    t = theil_t(v)
    assert foster(v) == mean(v) * math.exp(-t)
    assert calls == {"kept_order": 1, "mean": 1}


def test_all_zero_long_vector_raises_on_every_gini_call():
    v = ValueVector([0.0] * (LONG + 1))
    for _ in range(3):
        with pytest.raises(ZeroSumError, match="^gini undefined for an all-zero vector$"):
            gini(v)
    assert gini.__wrapped__ not in v._kept


# The generator form of each sum the library maps in C is the reference; every
# other function is its own reference on a fresh vector.
REFERENCE_FUNCTIONS = {
    **WIDE_RANGE_FUNCTIONS,
    "gini": oracles.gini_by_generator,
    **{
        name: lambda v, eps=DispersionMetric.parse(name).epsilon: oracles.atkinson_by_generator(v, eps)
        for name in WIDE_RANGE_FUNCTIONS
        if name.startswith("atkinson(")
    },
    "theil_l": oracles.theil_l_by_generator,
    "sen": oracles.sen_by_generator,
}


POSITIVE_WIDE_RANGE = (
    st.sampled_from([5e-324, MAX_FLOAT])
    | st.floats(5e-324, sys.float_info.min, exclude_max=True)  # subnormal
    | st.floats(1e-300, 1e308)
    | st.floats(1e308, MAX_FLOAT)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 * LONG).flatmap(lambda n: st.tuples(
    # vectors with zeros; without, where the log sums are defined; and within
    # a range where Theil L's mean / x does not overflow
    st.lists(POSITIVE_WIDE_RANGE | st.just(0.0), min_size=n, max_size=n)
    | st.lists(POSITIVE_WIDE_RANGE, min_size=n, max_size=n)
    | st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
    st.lists(st.sampled_from([1.0, MAX_FLOAT]) | st.floats(1e-300, 1e300), min_size=n, max_size=n),
)))
@example(([1e-160] + [1e160] * 9, [1.0] * 10))
@example(([5e-324, 1.0], [1.0, 1.0]))  # Theil L's mean / x overflows
@example(([1e-300, 1e300], [MAX_FLOAT, MAX_FLOAT]))  # the weighted logs overflow
def test_mapped_sums_give_the_bits_of_the_generator_sums(values_and_weights):
    values, weights = values_and_weights
    warmed = ValueVector(values)  # read in turn by every function, as a panel reads it
    for name, fn in WIDE_RANGE_FUNCTIONS.items():
        reference = REFERENCE_FUNCTIONS[name]
        assert _outcome(fn, warmed) == _outcome(reference, ValueVector(values)), name
    for rho in (0.0, 0.5, 1.0, 2.0, INF):
        for w in (None, weights):
            assert _outcome(lambda u: isoelastic(u, w, rho), warmed) == _outcome(
                lambda u: oracles.isoelastic_by_generator(u, w, rho), warmed
            ), (rho, w is None)


class TestGini:
    def test_examples(self):
        assert gini(ValueVector([5, 5, 5])) == 0.0
        assert_close(gini(ValueVector([1, 3])), 0.25)
        assert_close(gini(ValueVector([0, 1])), 0.5)

    def test_past_the_float_range(self):
        # n * sum overflows; the power-of-two rescale keeps every bit
        assert gini(ValueVector([1e308, 5e307])) == gini(ValueVector([1.0, 0.5]))
        assert gini(ValueVector([5e307, 9e307])) == gini(ValueVector([5.0, 9.0]))
        # the sum itself overflows
        assert gini(ValueVector([1.7e308, 1.7e308])) == 0.0
        assert_close(gini(ValueVector([1.7e308, 1.7e308, 0.0])), 1.0 / 3.0)

    def test_zero_sum_rejected(self):
        with pytest.raises(ZeroSumError):
            gini(ValueVector([0, 0]))

    @given(vectors(min_size=2, max_size=30, positive=True))
    def test_matches_pairwise_formula(self, v):
        assert_close(gini(v), oracles.gini_pairwise(v.values), rel=1e-12)


class TestAtkinson:
    def test_examples(self):
        for eps in (0.0, 0.5, 1.0, 3.0, INF):
            assert atkinson(ValueVector([4, 4, 4]), eps) == pytest.approx(0.0, abs=1e-12)
        assert_close(atkinson(ValueVector([1, 3]), INF), 0.5)
        assert_close(atkinson(ValueVector([1, 3]), 1.0), 1 - math.sqrt(3) / 2)

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            atkinson(ValueVector([0, 0]), 0.5)

    def test_zero_element_rejected_at_high_epsilon(self):
        for eps in (1.0, 2.0):
            with pytest.raises(ZeroElementError):
                atkinson(ValueVector([0, 1]), eps)
        # allowed below one: power of a zero is zero
        assert 0.0 <= atkinson(ValueVector([0, 1]), 0.5) <= 1.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            atkinson(ValueVector([1, 2]), -0.1)

    def test_negative_zero_element_rejected_as_zero(self):
        for eps in (1.0, 2.0):
            with pytest.raises(ZeroElementError) as zero:
                atkinson(ValueVector([0.0, 1]), eps)
            with pytest.raises(ZeroElementError) as negative_zero:
                atkinson(ValueVector([-0.0, 1]), eps)
            assert str(negative_zero.value) == str(zero.value)

    def test_zero_element_message_names_the_exact_epsilon(self):
        with pytest.raises(ZeroElementError) as err:
            atkinson(ValueVector([0, 1]), 1.0000001)
        assert str(err.value) == "atkinson with epsilon=1.0000001 needs strictly positive values"

    def test_power_mean_past_the_float_range(self):
        # order 1 - epsilon = -1e-7: the power mean over the minimum is past the float range,
        # so it is redone in log space; the references are 50-digit evaluations
        assert atkinson(ValueVector([1e-160] + [1e160] * 9), 1.0000001) == 1.0
        assert atkinson(ValueVector([5e-324, 1.7e308, 1.7e308]), 1.0000001) == 1.0
        assert_close(_power_mean((1e-160,) + (1e160,) * 9, -1e-7), 9.975598194388956e127,
                     rel=1e-8)
        assert_close(_power_mean((5e-324, 1.7e308, 1.7e308), 1.0 - 1.0000001),
                     5.105324342500236e97, rel=1e-8)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=MAX_FLOAT), min_size=1, max_size=20)
        .map(ValueVector)
        | st.builds(lambda x, n: ValueVector([x] * n),
                    st.floats(min_value=0.0, max_value=MAX_FLOAT), st.integers(1, 20)),
        st.sampled_from([0.5, 1.0, 2.0, INF]) | st.floats(min_value=0.0),
    )
    def test_never_negative(self, v, eps):
        # exp(mean(log x)) for epsilon 1, and the mean for epsilon inf, can round past the mean
        # or the minimum; constant vectors are where that shows
        try:
            value = atkinson(v, eps)
        except DomainError:
            return
        assert value >= 0.0

    @given(vectors(min_size=2, max_size=20, positive=True))
    def test_matches_textbook_formula(self, v):
        for eps in (0.0, 0.5, 1.0, 2.0, INF):
            assert_close(atkinson(v, eps), oracles.atkinson_direct(v.values, eps), abs_tol=1e-9)

    @given(vectors(min_size=2, max_size=10, positive=True))
    def test_monotone_in_epsilon(self, v):
        assume(not is_constant(v))
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0, INF]
        values = [atkinson(v, eps) for eps in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


class TestHerfindahl:
    def test_examples(self):
        assert herfindahl_normalized(ValueVector([5, 5, 5, 5])) == 0.0
        assert_close(herfindahl_normalized(ValueVector([1, 0])), 1.0)
        assert_close(herfindahl_normalized(ValueVector([3, 1])), 0.25)

    def test_errors(self):
        with pytest.raises(DegeneratePopulationError):
            herfindahl_normalized(ValueVector([1]))
        with pytest.raises(ZeroSumError):
            herfindahl_normalized(ValueVector([0, 0]))


class TestHoover:
    def test_examples(self):
        assert hoover(ValueVector([2, 2])) == 0.0
        assert_close(hoover(ValueVector([1, 3])), 0.25)
        assert_close(hoover(ValueVector([0, 0, 4])), 16 / 24)

    def test_zero_sum_rejected(self):
        with pytest.raises(ZeroSumError):
            hoover(ValueVector([0]))

    @given(vectors(min_size=2, max_size=30, positive=True))
    def test_matches_direct_sum(self, v):
        assert_close(hoover(v), oracles.hoover_direct(v.values))


class TestPalma:
    def test_examples(self):
        assert_close(palma(ValueVector([1.0] * 10)), 0.25)
        assert_close(palma(ValueVector([5.0] * 10)), 0.25)
        assert_close(palma(ValueVector([1, 1, 1, 1, 2, 2, 2, 2, 2, 6])), 1.5)

    def test_shares_exposed(self):
        bottom, top = palma_shares(ValueVector([1, 1, 1, 1, 2, 2, 2, 2, 2, 6]))
        assert_close(bottom, 4 / 20)
        assert_close(top, 6 / 20)

    def test_errors(self):
        with pytest.raises(ZeroSumError):
            palma(ValueVector([0, 0]))
        with pytest.raises(ZeroBottomShareError):
            palma(ValueVector([0, 0, 0, 0, 0, 0, 0, 0, 1, 1]))

    @given(vectors(min_size=2, max_size=40, positive=True))
    def test_matches_lorenz_oracle(self, v):
        assert_close(palma(v), oracles.palma_lorenz(v.values))


class TestStdDev:
    def test_examples(self):
        assert std_dev(ValueVector([7, 7, 7])) == 0.0
        assert_close(std_dev(ValueVector([1, 3])), 1.0)
        assert_close(std_dev(ValueVector([0, 0, 0, 4])), math.sqrt(3))

    @given(vectors(min_size=1, max_size=30))
    def test_matches_numpy(self, v):
        assert_close(std_dev(v), oracles.std_dev_numpy(v.values), abs_tol=1e-7)

    def test_past_the_float_range(self):
        # (x - m) ** 2 or the mean's sum overflows; the std itself is finite
        assert std_dev(ValueVector([1.0, 1e200])) == 5e199
        assert std_dev(ValueVector([1.7e308, 1.7e308])) == 0.0
        assert std_dev(ValueVector([0.0, MAX_FLOAT])) == MAX_FLOAT / 2

    @given(
        vectors(min_size=1, max_size=30, positive=True),
        st.integers(min_value=-12, max_value=0),
    )
    def test_scales_with_the_values_up_to_the_float_limit(self, v, headroom):
        # headroom 0 puts the largest element just below the float limit
        j = 1024 - math.frexp(max(v.values))[1] + headroom
        scaled = [math.ldexp(x, j) for x in v.values]
        assume(min(scaled) >= sys.float_info.min)  # no subnormal rounding
        assert_close(std_dev(ValueVector(scaled)), math.ldexp(std_dev(v), j), rel=1e-12)

class TestTheil:
    def test_theil_t_examples(self):
        assert theil_t(ValueVector([4, 4])) == 0.0
        assert_close(theil_t(ValueVector([1, 3])), oracles.theil_t_direct([1, 3]))
        assert_close(theil_t(ValueVector([0, 2])), math.log(2))

    def test_theil_l_examples(self):
        assert theil_l(ValueVector([9, 9, 9])) == 0.0
        assert_close(theil_l(ValueVector([1, 3])), (math.log(2) + math.log(2 / 3)) / 2)
        with pytest.raises(ZeroElementError):
            theil_l(ValueVector([0, 1]))

    def test_theil_l_negative_zero_element_rejected_as_zero(self):
        with pytest.raises(ZeroElementError) as zero:
            theil_l(ValueVector([0.0, 1]))
        with pytest.raises(ZeroElementError) as negative_zero:
            theil_l(ValueVector([-0.0, 1]))
        assert str(negative_zero.value) == str(zero.value)

    def test_theil_l_finite_where_mean_over_x_overflows(self):
        # 0.5 / 5e-324 is past the float range; ln 0.5 - ln 5e-324 is not
        assert_close(
            theil_l(ValueVector([5e-324, 1.0])),
            (2 * math.log(0.5) - math.log(5e-324)) / 2,
        )

    def test_theil_t_share_underflow_counts_as_zero(self):
        # 5e-324 / 5e299 underflows to 0 and counts as 0 ln 0
        assert theil_t(ValueVector([5e-324, 1e300])) == math.log(2)

    def test_theil_t_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            theil_t(ValueVector([0, 0]))

    @given(vectors(min_size=2, max_size=30, positive=True))
    def test_match_direct_sums(self, v):
        assert_close(theil_t(v), oracles.theil_t_direct(v.values), abs_tol=1e-10)
        assert_close(theil_l(v), oracles.theil_l_direct(v.values), abs_tol=1e-10)


class TestDispatch:
    def test_examples(self):
        assert dispersion(DispersionMetric("gini"), ValueVector([5, 5])) == 0.0
        assert_close(dispersion(DispersionMetric("hoover"), ValueVector([1, 3])), 0.25)
        assert_close(dispersion(DispersionMetric("std_dev"), ValueVector([1, 3])), 1.0)

    def test_parse(self):
        assert DispersionMetric.parse("gini") == DispersionMetric("gini")
        assert DispersionMetric.parse("atkinson(0.5)") == DispersionMetric("atkinson", 0.5)
        assert DispersionMetric.parse("atkinson(inf)").epsilon == INF
        with pytest.raises(ValueError):
            DispersionMetric.parse("nope")
        with pytest.raises(ValueError):
            DispersionMetric.parse("atkinson(x)")
        with pytest.raises(ValueError, match="^atkinson epsilon must be >= 0$"):
            DispersionMetric.parse("atkinson(-1)")
        with pytest.raises(ValueError):
            DispersionMetric("atkinson")
        with pytest.raises(ValueError):
            DispersionMetric("gini", 0.5)

    def test_str_round_trips(self):
        for name in ("gini", "atkinson(0.5)", "atkinson(1)", "atkinson(inf)", "theil_l",
                     "atkinson(1.0000001)", "atkinson(0.1234567)"):
            assert str(DispersionMetric.parse(name)) == name

    @given(
        st.sampled_from(METRIC_KINDS).filter(lambda kind: kind != "atkinson").map(DispersionMetric)
        | st.floats(min_value=0.0).map(lambda eps: DispersionMetric("atkinson", eps))
    )
    def test_parse_inverts_str(self, metric):
        assert DispersionMetric.parse(str(metric)) == metric


class TestSharedProperties:
    @given(vectors(min_size=2, max_size=30, positive=True), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_behaviour(self, v, c):
        scaled = scale(v, c)
        for name, fn in ALL_METRICS.items():
            if name == "std_dev":
                # degree-1 homogeneous; absolute tolerance follows the scale
                assert_close(fn(scaled), c * fn(v), rel=1e-9, abs_tol=1e-12 * (1 + c * max(v.values)))
            else:
                assert_close(fn(scaled), fn(v), rel=1e-9, abs_tol=1e-9)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=2, max_value=20))
    def test_zero_at_equality(self, c, n):
        v = ValueVector([c] * n)
        for fn in ALL_METRICS.values():
            if fn is palma:
                continue  # equality gives the 0.25 reference ratio, not zero
            assert fn(v) == pytest.approx(0.0, abs=1e-12)

    @given(vectors(min_size=2, max_size=30, positive=True), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, v, rnd):
        values = list(v.values)
        rnd.shuffle(values)
        shuffled = ValueVector(values)
        for fn in ALL_METRICS.values():
            assert_close(fn(shuffled), fn(v), rel=1e-9, abs_tol=1e-12)

    @settings(max_examples=200)
    @given(vectors(min_size=2, max_size=30, positive=True), st.data())
    def test_pigou_dalton_transfers(self, v, data):
        values = list(v.values)
        i = data.draw(st.integers(0, len(values) - 1), label="rich")
        j = data.draw(st.integers(0, len(values) - 1), label="poor")
        if values[i] < values[j]:
            i, j = j, i
        gap = values[i] - values[j]
        assume(gap > 1e-9)
        delta = data.draw(st.floats(min_value=0.0, max_value=0.5)) * gap
        after = list(values)
        after[i] -= delta
        after[j] += delta
        before_v, after_v = ValueVector(values), ValueVector(after)
        for fn in PD_METRICS:
            before, post = fn(before_v), fn(after_v)
            assert post <= before + 1e-9 * max(1.0, abs(before))
