import math

import pytest
from hypothesis import assume, given, strategies as st

import oracles
from conftest import assert_close, scale, vectors
from fairalloc import (
    DIORTHOTIC,
    RHO_INF,
    AllocationContext,
    DispersionMetric,
    NonFiniteScoreError,
    PrincipleSpec,
    ValueVector,
    WeightMismatchError,
    ZeroElementError,
    benthamite,
    foster,
    isoelastic,
    mean,
    rawlsian,
    score,
    sen,
)

STD = DispersionMetric("std_dev")


def _ctx(x, y, u):
    return AllocationContext(ValueVector(x), ValueVector(y), ValueVector(u))


def _welfare(principle, ctx, **kwargs):
    """Diorthotic (welfare-function) score of one principle."""
    return score(PrincipleSpec(principle, mode=DIORTHOTIC, **kwargs), ctx).value


class TestIsoelastic:
    def test_examples(self):
        assert_close(isoelastic(ValueVector([1.0, 0.5]), [1, 1], 0.0), 1.5)
        c = 2.0
        assert_close(isoelastic(ValueVector([c, c]), [1, 1], 2.0), -2 / c)
        assert_close(isoelastic(ValueVector([0.7, 0.8]), [1, 1], RHO_INF), 0.7)

    @given(vectors(min_size=2, max_size=8, positive=True), st.sampled_from([0.3, 2.0, 5.0]))
    def test_matches_closed_form(self, u, rho):
        weights = [1.0] * len(u)
        assert_close(
            isoelastic(u, weights, rho),
            oracles.isoelastic_closed_form(u.values, weights, rho),
            rel=1e-9,
            abs_tol=1e-9,
        )

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.7976931348623157e308), min_size=1, max_size=8),
        st.data(),
    )
    def test_rho_zero_is_the_exact_weighted_sum(self, values, data):
        # rho = 0 takes the general branch: u ** 1.0 is u and dividing by 1.0 is exact
        positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
        n = len(values)
        weights = data.draw(st.none() | st.lists(positive, min_size=n, max_size=n))
        u = ValueVector(values)
        try:
            expected = math.fsum(w * x for w, x in zip(weights or [1.0] * n, values))
        except OverflowError:
            with pytest.raises(OverflowError):
                isoelastic(u, weights, 0.0)
        else:
            assert isoelastic(u, weights, 0.0).hex() == expected.hex()

    def test_log_form_at_rho_one(self):
        u = ValueVector([2.0, 3.0])
        assert_close(isoelastic(u, [1, 2], 1.0), math.log(2) + 2 * math.log(3))

    def test_zero_utility_rejected_for_high_rho(self):
        for rho in (1.0, 2.0):
            with pytest.raises(ZeroElementError):
                isoelastic(ValueVector([0.0, 1.0]), [1, 1], rho)

    def test_negative_zero_utility_rejected_as_zero(self):
        with pytest.raises(ZeroElementError) as zero:
            isoelastic(ValueVector([0.0, 1.0]), [1, 1], 1.0)
        with pytest.raises(ZeroElementError) as negative_zero:
            isoelastic(ValueVector([-0.0, 1.0]), [1, 1], 1.0)
        assert str(negative_zero.value) == str(zero.value)

    def test_zero_element_message_names_the_exact_rho(self):
        for rho, text in ((1.0000001, "1.0000001"), (2.0, "2")):
            with pytest.raises(ZeroElementError) as err:
                isoelastic(ValueVector([0.0, 1.0]), None, rho)
            assert str(err.value) == f"isoelastic welfare with rho={text} needs positive utilities"

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatchError):
            isoelastic(ValueVector([1, 2]), [1], 0.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            isoelastic(ValueVector([1, 2]), None, -1.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_weights_must_be_finite_and_positive(self, weight):
        with pytest.raises(ValueError, match="^welfare weights must be finite and > 0$"):
            isoelastic(ValueVector([1, 2]), [1.0, weight], 0.5)

    def test_log_form_with_weighted_logs_past_the_float_range(self):
        # 1e308 * ln(1e-300) is -inf and 1e308 * ln(1e300) is +inf
        with pytest.raises(NonFiniteScoreError):
            isoelastic(ValueVector([1e-300, 1e300]), [1e308, 1e308], 1.0)


class TestBenthamite:
    def test_examples(self):
        assert_close(benthamite(ValueVector([1.0, 0.5])), 1.5)
        assert benthamite(ValueVector([0, 0, 0])) == 0.0
        assert_close(benthamite(ValueVector([0.95 * 7, 0])), 6.65)

    @given(vectors(max_size=20), vectors(max_size=20))
    def test_additive_over_concatenation(self, a, b):
        joined = ValueVector(list(a.values) + list(b.values))
        assert_close(benthamite(joined), benthamite(a) + benthamite(b), abs_tol=1e-9)


class TestRawlsian:
    def test_examples(self):
        assert_close(rawlsian(ValueVector([3.5 * 0.95, 3.5 * 0.85])), 2.975)
        assert rawlsian(ValueVector([5])) == 5.0
        assert rawlsian(ValueVector([1.0, 0.5])) == 0.5
        assert rawlsian(ValueVector([0.8, 0.7])) == 0.7
        assert rawlsian(ValueVector([5, 5])) == 5
        assert rawlsian(ValueVector([0, 3, 1])) == 0


class TestSenFoster:
    def test_sen_examples(self):
        assert_close(sen(ValueVector([3.5, 3.5])), 3.5)
        assert_close(sen(ValueVector([7, 0])), 1.75)
        assert_close(sen(ValueVector([4, 4, 4])), 4.0)
        assert sen(ValueVector([1.7e308, 1.7e308])) == 1.7e308  # the sum overflows

    def test_foster_examples(self):
        assert_close(foster(ValueVector([3.5, 3.5])), 3.5)
        expected = 2 * math.exp(-oracles.theil_t_direct([1, 3]))
        assert_close(foster(ValueVector([1, 3])), expected)
        assert_close(foster(ValueVector([0, 2])), 0.5)
        assert foster(ValueVector([1.7e308, 1.7e308])) == 1.7e308  # the sum overflows

    @given(vectors(min_size=2, max_size=20, positive=True))
    def test_equal_vector_maximizes_at_fixed_mean(self, y):
        equal = ValueVector([mean(y)] * len(y))
        assert sen(equal) >= sen(y) - 1e-9
        assert foster(equal) >= foster(y) - 1e-9
        assert_close(sen(equal), mean(y))
        assert_close(foster(equal), mean(y))

    @given(vectors(min_size=2, max_size=20, positive=True), st.floats(min_value=1e-3, max_value=1e3))
    def test_degree_one_homogeneity(self, y, c):
        tol = 1e-12 * (1 + c * max(y.values))
        assert_close(sen(scale(y, c)), c * sen(y), rel=1e-9, abs_tol=tol)
        assert_close(foster(scale(y, c)), c * foster(y), rel=1e-9, abs_tol=tol)


class TestOrderingConsistency:
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
            min_size=2,
            max_size=8,
        )
    )
    def test_near_zero_rho_tracks_benthamite(self, candidates):
        us = [ValueVector(c) for c in candidates]
        sums = [benthamite(u) for u in us]
        assume(max(sums) - sorted(sums)[-2] > 1e-6)
        by_iso = max(range(len(us)), key=lambda i: isoelastic(us[i], None, 1e-9))
        assert by_iso == max(range(len(us)), key=lambda i: sums[i])

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
            min_size=2,
            max_size=8,
        )
    )
    def test_high_rho_tracks_rawlsian(self, candidates):
        rho = 50.0
        us = [ValueVector(c) for c in candidates]
        mins = [rawlsian(u) for u in us]
        top_min, second_min = sorted(mins)[-1], sorted(mins)[-2]
        # Sufficient for the maximin winner to win at this rho: its welfare
        # sum(u^(1-rho)) is at most n * top_min^(1-rho), and any rival's is at
        # least second_min^(1-rho). The factor 2 leaves room for rounding.
        assume((top_min / second_min) ** (rho - 1) > 2 * len(candidates[0]))
        by_iso = max(range(len(us)), key=lambda i: isoelastic(us[i], None, rho))
        assert by_iso == max(range(len(us)), key=lambda i: mins[i])

    def test_high_rho_can_rank_opposite_to_maximin(self):
        # A larger minimum does not win at finite rho when the rival has two
        # near-minimum elements: 1.008^49 is about 1.48 < 2.
        lone_low = ValueVector([1.0, 1.0, 0.48828125])
        two_low = ValueVector([1.0, 0.4921875, 0.4921875])
        assert rawlsian(two_low) > rawlsian(lone_low)
        assert isoelastic(lone_low, None, 50.0) > isoelastic(two_low, None, 50.0)

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=3, max_size=3),
            min_size=2,
            max_size=8,
        )
    )
    def test_log_sum_argmax_equals_product_argmax(self, candidates):
        us = [ValueVector(c) for c in candidates]
        products = [math.prod(u.values) for u in us]
        assume(max(products) - sorted(products)[-2] > 1e-9)
        by_log = max(range(len(us)), key=lambda i: isoelastic(us[i], None, 1.0))
        assert by_log == max(range(len(us)), key=lambda i: products[i])


class TestWelfareDispatch:
    """Diorthotic ``score`` picks the welfare function and its vector."""

    def test_examples(self):
        ctx = _ctx([0.9, 0.1], [0.8, 0.2], [1.0, 0.5])
        assert_close(_welfare("greater_good", ctx), 1.5)
        ctx2 = _ctx([8, 12], [3.5, 3.5], [3.325, 2.975])
        assert_close(_welfare("equality", ctx2, variant="sen"), 3.5)
        ctx3 = _ctx([2, 2], [1, 1], [1, 1])
        equal_inputs = _welfare("equality_of_opportunity", ctx3, metric=STD)
        assert equal_inputs == 0.0
        assert math.copysign(1.0, equal_inputs) == 1.0  # +0.0, never -0.0

    def test_dispersion_welfare_is_negated(self):
        ctx = _ctx([1, 3], [1, 1], [1, 1])
        assert_close(_welfare("equality_of_opportunity", ctx, metric=STD), -1.0)

    def test_vector_selection(self):
        ctx = _ctx([1.0, 2.0], [4.0, 6.0], [0.5, 0.25])
        assert_close(_welfare("difference", ctx, basis="utility"), 0.25)
        assert_close(_welfare("difference", ctx), 4.0)  # outputs by default
        assert_close(_welfare("equality", ctx), foster(ctx.outputs))
        assert_close(_welfare("greater_good", ctx, rho=0.0), benthamite(ctx.utilities))
        assert_close(
            _welfare("greater_good", ctx, rho=1.0),
            math.log(math.prod(ctx.utilities.values)),
        )
        assert_close(_welfare("equality_of_opportunity", ctx, metric=STD), -0.5)
