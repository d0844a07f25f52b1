from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kernelpipe.tensors import (
    DEFAULT_QFORMAT,
    FLOAT64_EXACT_LIMIT,
    FixedPointOverflowError,
    QFormat,
    Tensor,
    accumulation_is_static_safe,
    accumulator_limit,
    check_accumulation_bound,
    dequantize_array,
    div_round_even_array,
    float_limb_bits,
    join_limbs,
    limb_count,
    narrow_array,
    quantize_array,
    split_limbs,
)

Q = QFormat(16, 8)


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


def quantize_five_passes(x, q: QFormat):
    """quantize_array as a NaN scan, a multiply, rint, clip and astype, each
    making a new array: the form the one-temporary version must equal."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    return np.clip(np.rint(x * q.scale), q.raw_min, q.raw_max).astype(np.int64)


_FORMATS = st.integers(8, 32).flatmap(
    lambda t: st.builds(QFormat, st.just(t), st.integers(0, t - 1)))
# finite values stay clear of overflowing x * 2**31, which would warn
_QUANTIZABLE = st.one_of(st.floats(-(2.0 ** 900), 2.0 ** 900),
                         st.sampled_from([np.inf, -np.inf, np.nan, 0.5, -0.5, 2.5]))


@settings(max_examples=300)
@given(st.one_of(_QUANTIZABLE, hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                                        min_side=0, max_side=6),
                                          elements=_QUANTIZABLE)),
       _FORMATS)
def test_quantize_matches_five_pass_form(x, q):
    try:
        expected = quantize_five_passes(x, q)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{error}$"):
            quantize_array(x, q)
        return
    raws = quantize_array(x, q)
    assert (raws.dtype, raws.shape, raws.tobytes()) == \
        (expected.dtype, expected.shape, expected.tobytes())


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

    def test_static_bound_counts_raw_min(self):
        # 25 * 2**31 * w + (b << 5) is exactly the 2**62 limit: activations of
        # magnitude raw_max stay inside it, one at raw_min (2**31) reaches it
        q, w, b = QFormat(32, 5), 85899345, 1543503872
        assert not accumulation_is_static_safe(25, w, b, q)
        check_accumulation_bound(25, q.raw_max, w, b, q)
        with pytest.raises(FixedPointOverflowError):
            check_accumulation_bound(25, -q.raw_min, w, b, q)


class TestRounding:
    @pytest.mark.parametrize("value,denom,expected", [
        (10, 4, 2),    # 2.5 ties to even
        (14, 4, 4),    # 3.5 ties to even -> 4
        (-10, 4, -2),
        (9, 3, 3),
        (11, 4, 3),    # 2.75 -> 3
        (640, 2**8, 2),     # 2.5 -> 2 (ties to even)
        (896, 2**8, 4),     # 3.5 -> 4
        (-640, 2**8, -2),   # symmetry
        (-896, 2**8, -4),
        (383, 2**8, 1),     # 1.496 -> 1
        (385, 2**8, 2),     # 1.504 -> 2
        (7, 2**0, 7),       # unit divisor
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
# Values span the accumulator range; denominators include every power of two
# the narrowing step divides by, and beyond.
_ACC = st.integers(-(2**62), 2**62)
_DENOM = st.one_of(st.integers(1, 5000), st.integers(0, 40).map(lambda k: 2**k))


@given(st.lists(_ACC, min_size=1, max_size=8), _DENOM)
def test_div_matches_exact_rounding(values, denom):
    out = div_round_even_array(np.array(values, dtype=np.int64), denom)
    assert out.tolist() == [round(Fraction(v, denom)) for v in values]


@given(st.integers(-(2**30), 2**30), st.integers(1, 20))
def test_ties_round_to_even(quot, shift):
    # v / 2**shift lies exactly halfway between quot and quot + 1
    d = 2**shift
    v = (2 * quot + 1) * (d // 2)
    expected = round(Fraction(v, d))
    assert expected % 2 == 0
    assert div_round_even_array(np.array([v]), d).tolist() == [expected]


class TestTensor:
    def test_fixed_roundtrip(self):
        raws = quantize_array(np.array([1.5, -1.0, 0.0, 2.25]), Q)
        t = Tensor(raws.reshape(2, 2), Q)
        assert t.values.dtype == np.int64
        assert t.shape == (2, 2)
        assert t.values.tolist() == [[384, -256], [0, 576]]
        assert dequantize_array(t.values, Q).tolist() == [[1.5, -1.0], [0.0, 2.25]]

    def test_raw_range_enforced(self):
        with pytest.raises(ValueError):
            Tensor(np.array([0, 50000]), Q)

    def test_immutable(self):
        t = Tensor(np.zeros((2, 2), dtype=np.int64), Q)
        with pytest.raises(ValueError):
            t.values[0, 0] = 1

    def test_dequantize_array_is_exact(self):
        raws = np.array([384, -256, 32767])
        assert dequantize_array(raws, Q).tolist() == [1.5, -1.0, 127.99609375]


def boundary_raws(q: QFormat, s: int) -> list[int]:
    """Raws of ``q`` at its range ends, around zero and around every limb
    boundary of ``s``-bit limbs, +-2**(s*j) +- 1."""
    edges = [q.raw_min, q.raw_min + 1, q.raw_max - 1, q.raw_max, -1, 0, 1]
    for j in range(1, limb_count(s, q.total_bits)):
        edges += [sign * (1 << s * j) + d for sign in (-1, 1) for d in (-1, 0, 1)]
    return sorted({v for v in edges if q.raw_min <= v <= q.raw_max})


def limb_oracle(v: int, s: int, limbs: int) -> list[int]:
    """The limbs of ``v`` over Python ints: unsigned s-bit digits, then the
    signed rest."""
    return [(v >> s * j) & ((1 << s) - 1) for j in range(limbs - 1)] + [v >> s * (limbs - 1)]


class TestLimbs:
    """Splitting activations into limbs whose dots are exact in float64, and
    joining those dots in int64 (tensors.split_limbs / join_limbs), against
    Python ints."""

    @settings(max_examples=200)
    @given(st.data())
    def test_split_join_round_trip(self, data):
        q = QFormat(data.draw(st.integers(8, 32), label="total"), 0)
        s = data.draw(st.integers(1, q.total_bits), label="s")
        x = data.draw(st.lists(st.one_of(st.sampled_from(boundary_raws(q, s)),
                                         st.integers(q.raw_min, q.raw_max)),
                               min_size=1, max_size=16), label="x")
        parts = split_limbs(np.array(x), s, q.total_bits)
        limbs = limb_count(s, q.total_bits)
        assert parts.dtype == np.int64 and parts.shape == (limbs, len(x))
        assert parts.T.tolist() == [limb_oracle(v, s, limbs) for v in x]
        # the top limb fits s bits signed, and one limb fewer would not
        assert all(-(1 << s) <= v < 1 << s for v in parts[-1].tolist())
        if limbs > 1:
            assert q.raw_min >> s * (limbs - 2) < -(1 << s)
        assert join_limbs(parts, s).tolist() == x

    @settings(max_examples=150)
    @given(st.data())
    def test_each_limb_dot_exact_up_to_the_accumulator_limit(self, data):
        """At the rule's limb width, every limb's float64 dot equals its
        Python-int dot and the joined dots equal the whole dot, for
        activations up to the largest the overflow check admits: rows
        aligned with the weights' signs put the dot at that bound."""
        total = data.draw(st.integers(8, 32), label="total")
        q = QFormat(total, data.draw(st.integers(0, total - 1), label="frac"))
        taps = data.draw(st.sampled_from([1, 2, 25, 500, 800]), label="taps")
        static = max(1, min(q.raw_max, (accumulator_limit(q) - 1) // (taps * -q.raw_min)))
        wmax = data.draw(st.one_of(st.sampled_from([q.raw_max, static]),
                                   st.integers(1, q.raw_max)), label="wmax")
        s = float_limb_bits(taps, wmax, q)
        limbs = limb_count(s, total)
        a = min(-q.raw_min, (accumulator_limit(q) - 1) // (taps * wmax))  # largest admitted
        lo, hi = max(q.raw_min, -a), min(q.raw_max, a)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="full"):
            w = rng.choice([-wmax, wmax], taps)
        else:
            w = rng.integers(-wmax, wmax + 1, taps)
            w[0] = wmax
        edges = [v for v in boundary_raws(q, s) if lo <= v <= hi]
        x = np.stack([np.where(w >= 0, hi, lo), np.where(w >= 0, lo, hi),
                      rng.choice(edges, taps), rng.integers(lo, hi + 1, taps)])

        dots = split_limbs(x, s, total).astype(np.float64) @ w.astype(np.float64)
        row_limbs = [[limb_oracle(int(v), s, limbs) for v in row] for row in x]
        expected = [[sum(int(wi) * vl[j] for vl, wi in zip(row, w)) for row in row_limbs]
                    for j in range(limbs)]
        assert np.all(np.abs(dots) < FLOAT64_EXACT_LIMIT)
        assert dots.astype(np.int64).tolist() == expected
        assert join_limbs(dots.astype(np.int64), s).tolist() == [
            sum(int(v) * int(wi) for v, wi in zip(row, w)) for row in x]

    @pytest.mark.parametrize("taps", [25, 500, 800])  # LeNet-5's weighted stages
    def test_lenet5_needs_at_most_three_limbs(self, taps):
        for total in range(8, 33):
            q = QFormat(total, 0)
            assert limb_count(float_limb_bits(taps, q.raw_max, q), total) <= 3

    def test_one_limb_where_the_whole_raw_is_exact(self):
        # the raw_min bound: 800 * 2**15 * (2**15 - 1) < 2**53
        assert float_limb_bits(800, Q.raw_max, Q) == 16
        # the accumulator limit: Q19's is 2**53, whatever the weights
        assert float_limb_bits(1 << 20, (1 << 18) - 1, QFormat(19, 0)) == 19

    def test_no_limb_width_raises(self):
        q = QFormat(32, 0)
        assert float_limb_bits(1 << 21, q.raw_max, q) == 1  # 2**52 - 2**21 < 2**52
        with pytest.raises(ValueError, match="no float64 limb width"):
            float_limb_bits(1 << 22, (1 << 30), q)  # 2**52
