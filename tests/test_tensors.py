from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kernelpipe.tensors import (
    DEFAULT_QFORMAT,
    FixedPointOverflowError,
    QFormat,
    Shape,
    Tensor,
    accumulator_limit,
    check_accumulation_bound,
    dequantize_array,
    div_round_even_array,
    narrow_array,
    quantize_array,
    rshift_round_even_array,
)

Q = QFormat(16, 8)


class TestShape:
    def test_element_count(self):
        assert Shape(20, 12, 12).element_count == 2880
        assert Shape(500).element_count == 500

    @pytest.mark.parametrize("dims", [(), (1, 2, 3, 4, 5), (0,), (-1, 2)])
    def test_invalid(self, dims):
        with pytest.raises(ValueError):
            Shape(*dims)


class TestQFormat:
    def test_ranges(self):
        assert Q.raw_min == -32768
        assert Q.raw_max == 32767
        assert Q.scale == 256
        assert Q.element_bytes == 2
        assert DEFAULT_QFORMAT == Q

    @pytest.mark.parametrize("total,frac", [(7, 3), (33, 8), (16, 16), (16, -1)])
    def test_invalid(self, total, frac):
        with pytest.raises(ValueError):
            QFormat(total, frac)


class TestQuantize:
    def test_exact_value(self):
        assert quantize_array(1.5, Q) == 384

    def test_zero(self):
        for q in (Q, QFormat(8, 4), QFormat(32, 16)):
            assert quantize_array(0.0, q) == 0

    def test_saturation(self):
        # saturation bound (2**15 - 1) / 2**8
        raw = quantize_array(200.0, Q)
        assert raw == 32767
        assert dequantize_array(raw, Q) == 127.99609375

    def test_negative_saturation(self):
        assert quantize_array(-1000.0, Q) == -32768

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            quantize_array(float("nan"), Q)

    def test_round_half_even(self):
        raws = quantize_array(np.array([1.5, 0.5, 2.5]) / 256, Q)
        assert raws.tolist() == [2, 0, 2]  # 1.5 -> 2, 0.5 -> 0, 2.5 -> 2


class TestDequantize:
    def test_examples(self):
        assert dequantize_array(np.array([384, 0, -256]), Q).tolist() == [1.5, 0.0, -1.0]


@given(st.integers(min_value=-32768, max_value=32767))
def test_roundtrip_identity_on_raws(raw):
    assert quantize_array(dequantize_array(raw, Q), Q) == raw


@given(st.floats(min_value=-127.9, max_value=127.9, allow_nan=False))
def test_quantization_error_bound(x):
    err = abs(dequantize_array(quantize_array(x, Q), Q) - x)
    assert err <= 2.0 ** -(Q.frac_bits + 1)


@given(st.floats(min_value=-200, max_value=200, allow_nan=False),
       st.floats(min_value=-200, max_value=200, allow_nan=False))
def test_quantize_monotone(a, b):
    lo, hi = sorted((a, b))
    assert quantize_array(lo, Q) <= quantize_array(hi, Q)


class TestAccumulation:
    def test_25_tap_sum_narrows_exactly(self):
        # brute-force accumulation: 25 products of 1.0 x 1.0 then one narrowing
        acc = 0
        one = int(quantize_array(1.0, Q))
        for _ in range(25):
            acc += one * one
        raw = narrow_array(np.array([acc]), Q)
        assert dequantize_array(raw, Q).tolist() == [25.0]

    def test_overflow_is_hard_error(self):
        limit = accumulator_limit(Q)
        check_accumulation_bound(1, limit - 1, 1, 0, Q)  # just inside: no error
        with pytest.raises(FixedPointOverflowError):
            check_accumulation_bound(1, limit, 1, 0, Q)


class TestRounding:
    @pytest.mark.parametrize("value,shift,expected", [
        (640, 8, 2),      # 2.5 -> 2 (ties to even)
        (896, 8, 4),      # 3.5 -> 4
        (-640, 8, -2),    # symmetry
        (-896, 8, -4),
        (383, 8, 1),      # 1.496 -> 1
        (385, 8, 2),      # 1.504 -> 2
        (7, 0, 7),        # no shift
    ])
    def test_rshift_round_even(self, value, shift, expected):
        assert rshift_round_even_array(np.array([value]), shift).tolist() == [expected]

    @pytest.mark.parametrize("value,denom,expected", [
        (10, 4, 2),    # 2.5 ties to even
        (14, 4, 4),    # 3.5 ties to even -> 4
        (-10, 4, -2),
        (9, 3, 3),
        (11, 4, 3),    # 2.75 -> 3
    ])
    def test_div_round_even(self, value, denom, expected):
        assert div_round_even_array(np.array([value]), denom).tolist() == [expected]

    def test_div_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            div_round_even_array(np.array([1]), 0)

    def test_narrow_saturates(self):
        acc = np.array([(Q.raw_max + 1) << Q.frac_bits, (Q.raw_min - 1) << Q.frac_bits])
        assert narrow_array(acc, Q).tolist() == [Q.raw_max, Q.raw_min]


# Independent oracle: Python's round() on an exact Fraction rounds half to even.
_ACC = st.integers(-(2**40), 2**40)


@given(st.lists(_ACC, min_size=1, max_size=8), st.integers(0, 20))
def test_rshift_matches_exact_rounding(values, shift):
    out = rshift_round_even_array(np.array(values, dtype=np.int64), shift)
    assert out.tolist() == [round(Fraction(v, 2**shift)) for v in values]


@given(st.lists(_ACC, min_size=1, max_size=8), st.integers(1, 5000))
def test_div_matches_exact_rounding(values, denom):
    out = div_round_even_array(np.array(values, dtype=np.int64), denom)
    assert out.tolist() == [round(Fraction(v, denom)) for v in values]


@given(st.integers(-(2**30), 2**30), st.integers(1, 20))
def test_ties_round_to_even_for_both_primitives(quot, shift):
    # v / 2**shift lies exactly halfway between quot and quot + 1
    d = 2**shift
    v = (2 * quot + 1) * (d // 2)
    expected = round(Fraction(v, d))
    assert expected % 2 == 0
    assert rshift_round_even_array(np.array([v]), shift).tolist() == [expected]
    assert div_round_even_array(np.array([v]), d).tolist() == [expected]


class TestTensor:
    def test_fixed_roundtrip(self):
        raws = quantize_array(np.array([1.5, -1.0, 0.0, 2.25]), Q)
        t = Tensor(Shape(2, 2), raws, Q)
        assert t.values.dtype == np.int64
        assert t.values.tolist() == [[384, -256], [0, 576]]
        assert dequantize_array(t.values, Q).tolist() == [[1.5, -1.0], [0.0, 2.25]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(Shape(3), np.zeros(4, dtype=np.int64), Q)

    def test_raw_range_enforced(self):
        with pytest.raises(ValueError):
            Tensor(Shape(2), np.array([0, 50000]), Q)

    def test_immutable(self):
        t = Tensor(Shape(2, 2), np.zeros(4, dtype=np.int64), Q)
        with pytest.raises(ValueError):
            t.values[0, 0] = 1

    def test_dequantize_array_is_exact(self):
        raws = np.array([384, -256, 32767])
        assert dequantize_array(raws, Q).tolist() == [1.5, -1.0, 127.99609375]
