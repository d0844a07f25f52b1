import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelpipe import fixtures, pipeline, reference
from kernelpipe.netdef import AVG_POOL, MAX_POOL, infer_shapes, lenet5_spec
from kernelpipe.ocl import ParallelMode
from kernelpipe.perf import kernel_footprint
from kernelpipe.tensors import FixedPointOverflowError, QFormat, quantize_array
from kernelpipe.weights import WEIGHT_SHAPES, WeightStore, zero_weights

Q = QFormat(16, 8)

EXPECTED_MACS = {"conv_pool1": 288_000, "conv2": 1_600_000, "pool2": 0,
                 "ip1_relu": 400_000, "ip2": 5_000}


def store_with(**arrays) -> WeightStore:
    base = {name: np.zeros(shape) for name, shape in WEIGHT_SHAPES.items()}
    base.update(arrays)
    return WeightStore(**base)


class TestStageExamples:
    def test_zero_weights_zero_everywhere(self, image42):
        result = pipeline.forward(image42, zero_weights().quantize(Q))
        for stage in result.stages:
            assert not stage.output.values.any()
        assert result.winner == 0  # all-equal logits: lowest index wins

    def test_conv_pool1_delta_filter_is_max_downsample(self, image42):
        # filter 0 is a centered delta, exact at Q16.8: conv output copies the
        # input's central 24x24 raws, so pooling is a plain 2x2 max-downsample
        w = np.zeros((20, 1, 5, 5))
        w[0, 0, 2, 2] = 1.0
        store = store_with(conv1_w=w).quantize(Q)
        result = pipeline.forward(image42, store)

        raw = quantize_array(image42, Q)
        expected = np.zeros((12, 12), dtype=np.int64)
        for oy in range(12):
            for ox in range(12):
                window = [raw[0, 2 * oy + dy + 2, 2 * ox + dx + 2]
                          for dy in (0, 1) for dx in (0, 1)]
                expected[oy, ox] = max(window)
        out = result.stage("conv_pool1").output.values
        assert np.array_equal(out[0], expected)
        assert not out[1:].any()

        _, stages = reference.forward_quantized(image42, store)
        assert np.array_equal(stages["conv_pool1"], out)

    def test_conv2_mean_filter_gives_ones(self):
        # bias-only conv1 makes the conv2 input all ones; with every conv2
        # weight 2**-9 (exact at Q32.16) each output sums 500 taps to 500/512
        q = QFormat(32, 16)
        store = store_with(conv1_b=np.ones(20),
                           conv2_w=np.full((50, 20, 5, 5), 2.0 ** -9)).quantize(q)
        image = np.zeros((1, 28, 28))
        result = pipeline.forward(image, store)
        assert np.all(result.stage("conv_pool1").output.values == q.scale)
        out = result.stage("conv2").output.values
        assert np.all(out == 500 * q.scale // 512)
        _, stages = reference.forward_quantized(image, store)
        assert np.array_equal(stages["conv2"], out)

    def test_pool2_constant_input(self):
        # constant maps pool to the same constant under both operators
        for pool_op in (MAX_POOL, AVG_POOL):
            store = store_with(conv2_b=np.full(50, 3.25)).quantize(Q)
            result = pipeline.forward(np.zeros((1, 28, 28)), store, pool_op=pool_op)
            assert np.all(result.stage("pool2").output.values == 3.25 * Q.scale)

    def test_pool_window_definition(self):
        # one window holding {1,2,3,4}: max pools to 4, average to 2.5
        from kernelpipe.reference import _pool_fixed, pool_2d
        window = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert pool_2d(window, 2, 2, "max")[0, 0, 0] == 4.0
        assert pool_2d(window, 2, 2, AVG_POOL)[0, 0, 0] == 2.5
        raw = (window * 256).astype(np.int64)
        assert _pool_fixed(raw, 2, 2, "max", Q)[0, 0, 0] == 4 * 256
        assert _pool_fixed(raw, 2, 2, AVG_POOL, Q)[0, 0, 0] == 640  # 2.5

    def test_ip1_relu_bias_clamps(self, image42):
        result = pipeline.forward(image42, store_with(ip1_b=np.full(500, -1.0)).quantize(Q))
        assert not result.stage("ip1_relu").output.values.any()
        result = pipeline.forward(image42, store_with(ip1_b=np.full(500, 2.0)).quantize(Q))
        assert np.all(result.stage("ip1_relu").output.values == 2 * Q.scale)

    def test_ip2_bias_digits(self, image42):
        bias = np.arange(10) / 8.0  # exact at Q16.8
        result = pipeline.forward(image42, store_with(ip2_b=bias).quantize(Q))
        assert np.array_equal(result.raw_logits, np.arange(10) * Q.scale // 8)
        assert np.array_equal(result.logits, bias)
        assert result.winner == 9


class TestBitExactness:
    def test_stages_match_quantized_reference(self, store42, fixed42, images42):
        for image in images42:
            result = pipeline.forward(image, fixed42)
            raw_logits, stages = reference.forward_quantized(image, store42, Q)
            assert np.array_equal(result.raw_logits, raw_logits)
            for stage in result.stages:
                assert np.array_equal(stage.output.values, stages[stage.name]), stage.name

    def test_average_pooling_matches_too(self, store42, fixed42, images42):
        image = images42[0]
        result = pipeline.forward(image, fixed42, pool_op=AVG_POOL)
        raw_logits, _ = reference.forward_quantized(image, store42, Q, pool_op=AVG_POOL)
        assert np.array_equal(result.raw_logits, raw_logits)

    def test_fixed_store_and_float_store_agree(self, store42, fixed42, images42):
        image = images42[1]
        via_fixed, _ = reference.forward_quantized(image, fixed42)
        via_float, _ = reference.forward_quantized(image, store42, Q)
        assert np.array_equal(via_fixed, via_float)


class TestModeInvariance:
    def test_spot_check(self, fixed42, image42):
        base = pipeline.forward(image42, fixed42).raw_logits
        for mode in (ParallelMode("unroll", 4), ParallelMode("simd", 8),
                     ParallelMode("none", cu_count=4),
                     ParallelMode("simd", 16, cu_count=4)):
            got = pipeline.forward(image42, fixed42, mode=mode).raw_logits
            assert np.array_equal(got, base), str(mode)


class TestCountsAndShapes:
    def test_mac_counts(self, fixed42, image42):
        result = pipeline.forward(image42, fixed42)
        for stage in result.stages:
            assert stage.macs == EXPECTED_MACS[stage.name], stage.name

    def test_stage_shapes_match_inference(self, fixed42, image42):
        spec = lenet5_spec()
        per_layer = infer_shapes(spec)
        stage_out = {name: per_layer[end - 1] for name, _, end in spec.stage_grouping}
        result = pipeline.forward(image42, fixed42)
        for stage in result.stages:
            assert stage.output.shape == stage_out[stage.name]

    def test_measured_bytes_match_analytic_footprint(self, fixed42, image42):
        spec = lenet5_spec()
        result = pipeline.forward(image42, fixed42)
        for stage in result.stages:
            fp = kernel_footprint(spec, stage.name, Q)
            assert stage.bytes_read == fp.bytes_read, stage.name
            assert stage.bytes_written == fp.bytes_written, stage.name
            assert stage.macs == fp.macs, stage.name


class TestReferenceProperties:
    def test_zero_weights_zero_logits(self, image42):
        logits, _ = reference.forward_float(image42, zero_weights())
        assert not logits.any()

    def test_conv_prefix_linearity(self, image42):
        # with zero biases, doubling the image doubles every conv/pool output
        # (max pooling commutes with positive scaling)
        store = fixtures.synthetic_weights(3)
        store = store_with(conv1_w=store.conv1_w, conv2_w=store.conv2_w)
        _, stages1 = reference.forward_float(image42, store)
        _, stages2 = reference.forward_float(2.0 * image42, store)
        for name in ("conv_pool1", "conv2", "pool2"):
            np.testing.assert_allclose(stages2[name], 2.0 * stages1[name], rtol=1e-12)

    def test_engine_overflow_guard(self):
        ones = WeightStore(**{n: np.ones(s) for n, s in WEIGHT_SHAPES.items()})
        with pytest.raises(FixedPointOverflowError):
            pipeline.forward(np.ones((1, 28, 28)), ones.quantize(QFormat(32, 24)))
        with pytest.raises(FixedPointOverflowError):
            reference.forward_quantized(np.ones((1, 28, 28)), ones, QFormat(32, 24))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 32).flatmap(
               lambda bits: st.tuples(st.just(bits), st.integers(0, bits - 1))),
           st.sampled_from([MAX_POOL, AVG_POOL]),
           st.sampled_from([1, 16, 256, 4096]))
    def test_engine_matches_reference_or_both_overflow(self, store42, images42,
                                                       bits_frac, pool_op, scale):
        # wide formats with large weight scales trip the overflow guard;
        # the engine and the reference must agree on when
        q = QFormat(*bits_frac)
        store = WeightStore(**{n: a * scale for n, a in store42.arrays().items()})
        try:
            expected, _ = reference.forward_quantized(images42[0], store, q, pool_op=pool_op)
        except FixedPointOverflowError:
            with pytest.raises(FixedPointOverflowError):
                pipeline.forward(images42[0], store.quantize(q), pool_op=pool_op)
            return
        result = pipeline.forward(images42[0], store.quantize(q), pool_op=pool_op)
        assert np.array_equal(result.raw_logits, expected)

    def test_image_shape_validated(self, fixed42):
        with pytest.raises(ValueError, match="28"):
            pipeline.forward(np.zeros((1, 27, 28)), fixed42)

    def test_float_store_rejected(self, store42, image42):
        with pytest.raises(ValueError, match="quantize the weight store"):
            pipeline.forward(image42, store42)

    def test_float_reference_rejects_fixed_store(self, fixed42, image42):
        with pytest.raises(ValueError, match="float64 weight store"):
            reference.forward_float(image42, fixed42)

    def test_winner_sequence_matches_reference(self, store42, fixed42, images42):
        for image in images42:
            engine = pipeline.forward(image, fixed42)
            raw, _ = reference.forward_quantized(image, store42, Q)
            assert engine.winner == reference.winner_digit(raw)
