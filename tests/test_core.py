import ast
import copy
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import assert_close, scale, vectors
from fairalloc import (
    Agent,
    AllocationContext,
    NonFiniteScoreError,
    ValueVector,
    ZeroInputError,
    gini,
    mean,
    palma_shares,
    rawlsian,
    ratio_vector,
    threshold_share,
)
from fairalloc.core import LONG, decimal_numerators, kept_order


# Values at and just past each edge of the domain [0, max float]
EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
]


class TestValueVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError) as err:
            ValueVector([])
        assert str(err.value) == "ValueVector needs at least one element"

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            (math.nan, "ValueVector element nan is not finite"),
            (math.inf, "ValueVector element inf is not finite"),
            (-math.inf, "ValueVector element -inf is not finite"),
            (-1.0, "ValueVector element -1.0 is negative"),
            (-5e-324, "ValueVector element -5e-324 is negative"),
        ],
        ids=["nan", "inf", "-inf", "-1.0", "-5e-324"],
    )
    def test_rejects_non_domain_elements(self, bad, message):
        with pytest.raises(ValueError) as err:
            ValueVector([1.0, bad])
        assert str(err.value) == message

    def test_first_bad_element_is_reported(self):
        with pytest.raises(ValueError, match="^ValueVector element -1.0 is negative$"):
            ValueVector([-1.0, math.nan])
        with pytest.raises(ValueError, match="^ValueVector element nan is not finite$"):
            ValueVector([math.nan, -1.0])

    def test_negative_zero_is_accepted_and_keeps_its_sign(self):
        v = ValueVector([-0.0, 1.0])
        assert v.values == (0.0, 1.0)
        assert math.copysign(1.0, v[0]) == -1.0

    def test_coerces_as_float_does(self):
        big = 2**53 + 1  # not representable: float() rounds it
        v = ValueVector(x for x in (1, 0, big))
        assert v.values == (1.0, 0.0, float(big))
        assert all(type(x) is float for x in v.values)

    @given(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.floats()), max_size=6))
    def test_matches_per_element_reference(self, values):
        expected = oracles.value_vector_error(values)
        if expected is None:
            assert [repr(x) for x in ValueVector(values).values] == [repr(x) for x in values]
        else:
            with pytest.raises(ValueError) as err:
                ValueVector(values)
            assert str(err.value) == expected

    def test_is_immutable_value(self):
        v = ValueVector([1, 2])
        assert v == ValueVector([1.0, 2.0])
        assert hash(v) == hash(ValueVector([1.0, 2.0]))
        with pytest.raises(AttributeError):
            v.values = (3.0,)
        with pytest.raises(AttributeError):
            del v.values
        assert v.values == (1.0, 2.0)

        # A long vector's kept sum and order are private and sit outside its value.
        values = [float(i % 7) for i in range(LONG)]
        v, fresh = ValueVector(values), ValueVector(values)
        gini(v)
        order = kept_order(v)
        palma_shares(v)
        assert kept_order(v) is order and order == tuple(sorted(values))
        assert v == fresh and hash(v) == hash(fresh)
        with pytest.raises(AttributeError):
            v._kept = {}
        with pytest.raises(AttributeError):
            del v._kept
        assert kept_order(v) is order

    def test_repr_evaluates_to_an_equal_vector(self):
        v = ValueVector([1, 2.5])
        assert repr(v) == "ValueVector([1.0, 2.5])"
        assert eval(repr(v)) == v

    def test_copies_and_pickles_to_an_equal_vector(self):
        short = ValueVector([-0.0, 5e-324, 1.7976931348623157e308])
        long = ValueVector(float(i % 7) for i in range(LONG))
        order = kept_order(long)
        for v in (short, long):
            for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(copied) is ValueVector and copied == v
                assert [x.hex() for x in copied.values] == [x.hex() for x in v.values]
        assert kept_order(copy.deepcopy(long)) == order
        ctx = AllocationContext(inputs=short, outputs=short, utilities=short)
        assert copy.deepcopy(ctx) == ctx
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestAgent:
    def test_defaults_and_validation(self):
        Agent(id="A", input=0.9)
        with pytest.raises(ValueError):
            Agent(id="A", input=-1.0)


class TestAllocationContext:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AllocationContext(
                inputs=ValueVector([1, 2]),
                outputs=ValueVector([1]),
                utilities=ValueVector([1]),
            )


class TestMean:
    def test_examples(self):
        assert mean(ValueVector([1, 3])) == 2.0
        assert mean(ValueVector([5, 5, 5])) == 5.0
        assert mean(ValueVector([0.8, 0.2])) == 0.5


class TestThresholdShare:
    def test_examples(self):
        assert threshold_share(ValueVector([0.67, 0.5]), 0.5) == 1.0
        assert threshold_share(ValueVector([1, 2, 3]), 10) == 0.0
        assert threshold_share(ValueVector([1, 2, 3, 4]), 2.5) == 0.5

    def test_comparison_is_inclusive(self):
        assert threshold_share(ValueVector([0.5]), 0.5) == 1.0

    def test_rejects_non_finite_threshold(self):
        with pytest.raises(ValueError):
            threshold_share(ValueVector([1]), float("nan"))


class TestRatioVector:
    def test_examples(self):
        assert ratio_vector(ValueVector([0.9, 0.1]), ValueVector([0.9, 0.1])) == ValueVector([1, 1])
        r = ratio_vector(ValueVector([2.8, 4.2]), ValueVector([8, 12]))
        assert_close(r[0], 0.35)
        assert_close(r[1], 0.35)
        assert ratio_vector(ValueVector([1, 0]), ValueVector([2, 2])) == ValueVector([0.5, 0])

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInputError):
            ratio_vector(ValueVector([1, 1]), ValueVector([1, 0]))

    def test_negative_zero_input_rejected_as_zero(self):
        with pytest.raises(ZeroInputError) as zero:
            ratio_vector(ValueVector([1, 1]), ValueVector([1, 0.0]))
        with pytest.raises(ZeroInputError) as negative_zero:
            ratio_vector(ValueVector([1, 1]), ValueVector([1, -0.0]))
        assert str(negative_zero.value) == str(zero.value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ratio_vector(ValueVector([1]), ValueVector([1, 2]))

    def test_overflowing_ratio_is_non_finite(self):
        with pytest.raises(NonFiniteScoreError):
            ratio_vector(ValueVector([1.0, 7.0]), ValueVector([1.0, 1e-308]))


class TestDecimalNumerators:
    def test_values_read_as_the_decimals_their_reprs_spell(self):
        assert decimal_numerators([0.7, 1.4, 2]) == ([7, 14, 20], 10)
        assert decimal_numerators([0.25, 0.1]) == ([5, 2], 20)
        assert decimal_numerators([]) == ([], 1)

    def test_an_integer_is_its_own_decimal(self):
        assert decimal_numerators([3.0, 2**53 - 1.0, 10**30]) == ([3, 2**53 - 1, 10**30], 1)
        # past 2**53 a float's repr can spell another integer than the float holds
        assert decimal_numerators([1e23]) == ([10**23], 1)
        assert int(1e23) != 10**23

    @given(st.integers(-10**6, 10**6), st.integers(0, 4))
    def test_a_decimal_round_trips(self, n, places):
        x = n / 10**places
        (numerator,), scale = decimal_numerators([x])
        assert Fraction(numerator, scale) == Fraction(repr(x))


class TestCoreProperties:
    @given(vectors(), st.randoms(use_true_random=False), st.floats(min_value=0, max_value=1e6))
    def test_permutation_invariance(self, v, rnd, t):
        values = list(v.values)
        rnd.shuffle(values)
        shuffled = ValueVector(values)
        assert_close(mean(shuffled), mean(v))
        assert rawlsian(shuffled) == rawlsian(v)
        assert threshold_share(shuffled, t) == threshold_share(v, t)

    @given(vectors(), st.floats(min_value=1e-3, max_value=1e3))
    def test_degree_one_homogeneity(self, v, c):
        assert_close(mean(scale(v, c)), c * mean(v), rel=1e-9, abs_tol=1e-9)
        assert_close(rawlsian(scale(v, c)), c * rawlsian(v), rel=1e-9, abs_tol=1e-9)

    @given(vectors(min_size=2), st.floats(min_value=0, max_value=1e6), st.data())
    def test_threshold_share_monotone(self, v, t, data):
        i = data.draw(st.integers(min_value=0, max_value=len(v) - 1))
        bump = data.draw(st.floats(min_value=0, max_value=1e6))
        raised = list(v.values)
        raised[i] += bump
        assert threshold_share(ValueVector(raised), t) >= threshold_share(v, t)

    @given(vectors(min_size=2, max_size=10, positive=True), st.floats(min_value=1e-3, max_value=1e3))
    def test_ratio_vector_scales_with_outputs(self, x, c):
        y = ValueVector(2.0 * xi + 1.0 for xi in x.values)
        base = ratio_vector(y, x)
        scaled = ratio_vector(scale(y, c), x)
        for a, b in zip(scaled.values, base.values):
            assert_close(a, c * b, rel=1e-9, abs_tol=1e-9)


def test_the_readme_library_block_gives_its_commented_values():
    """README's Library block runs, and each line with a value in its comment evaluates to it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    namespace = {}
    exec(block, namespace)
    commented = {}
    for line in block.splitlines():
        if match := re.fullmatch(r"(\S.*?)\s+# (\(.*?\)|[0-9.]+).*", line):
            expression, value = match.groups()
            commented[expression] = eval(expression, namespace)
            assert commented[expression] == ast.literal_eval(value), line
    assert commented == {
        "gini(v)": 0.25,
        'atkinson(v, float("inf"))': 0.5,
        "shares.values": (2.8, 4.2),
    }
