import ast
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernelpipe import fixtures, netdef, pipeline, reference
from kernelpipe.netdef import AVG_POOL, MAX_POOL, infer_shapes, lenet5_spec
from kernelpipe.ocl import Buffer, CommandQueue, ParallelMode
from kernelpipe.perf import kernel_footprint
from kernelpipe.sweep import sweep_precision
from kernelpipe.tensors import (
    FLOAT64_EXACT_LIMIT,
    FixedPointOverflowError,
    QFormat,
    accumulator_limit,
    float_limb_bits,
    limb_count,
    quantize_array,
)
from kernelpipe.weights import WEIGHT_SHAPES, WeightStore, zero_weights

Q = QFormat(16, 8)

EXPECTED_MACS = {"conv_pool1": 288_000, "conv2": 1_600_000, "pool2": 0,
                 "ip1_relu": 400_000, "ip2": 5_000}


def engine_imports(source: str) -> list[str]:
    """Modules of the engine (kernelpipe.pipeline, kernelpipe.ocl and their
    submodules) that a kernelpipe module's source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "kernelpipe" + (f".{base}" if base else "")
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [m for m in modules for engine in ("kernelpipe.pipeline", "kernelpipe.ocl")
                  if m == engine or m.startswith(f"{engine}.")]
    return found


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
        max_pool, avg_pool = netdef.pool(2, MAX_POOL), netdef.pool(2, AVG_POOL)
        assert pool_2d(window, max_pool)[0, 0, 0] == 4.0
        assert pool_2d(window, avg_pool)[0, 0, 0] == 2.5
        raw = (window * 256).astype(np.int64)
        assert _pool_fixed(raw, max_pool, Q)[0, 0, 0] == 4 * 256
        assert _pool_fixed(raw, avg_pool, Q)[0, 0, 0] == 640  # 2.5

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
    def test_stages_match_quantized_reference(self, fixed42, images42):
        for image in images42:
            result = pipeline.forward(image, fixed42)
            raw_logits, stages = reference.forward_quantized(image, fixed42)
            assert np.array_equal(result.raw_logits, raw_logits)
            for stage in result.stages:
                assert np.array_equal(stage.output.values, stages[stage.name]), stage.name

    def test_average_pooling_matches_too(self, fixed42, images42):
        image = images42[0]
        result = pipeline.forward(image, fixed42, pool_op=AVG_POOL)
        raw_logits, _ = reference.forward_quantized(image, fixed42, pool_op=AVG_POOL)
        assert np.array_equal(result.raw_logits, raw_logits)

    def test_quantized_reference_rejects_float_store(self, store42, image42):
        # like the engine, the quantized reference takes a fixed-point store only
        with pytest.raises(ValueError, match="quantize the weight store"):
            reference.forward_quantized(image42, store42)
        with pytest.raises(TypeError):  # the format comes from the store
            reference.forward_quantized(image42, store42, Q)


class TestReferenceIndependence:
    """The bit-exact check compares two arithmetics only while the reference
    shares no code with the engine."""

    def test_reference_imports_nothing_from_engine(self):
        source = Path(reference.__file__).read_text(encoding="utf-8")
        assert engine_imports(source) == []

    @pytest.mark.parametrize("line", [
        "import kernelpipe.pipeline",
        "from kernelpipe import ocl",
        "from kernelpipe.ocl.kernel import execute_kernel",
        "from .pipeline import _lowered_conv",
        "from . import pipeline",
        "from .ocl import Buffer",
    ])
    def test_every_import_form_is_caught(self, line):
        assert engine_imports(line)


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

    @pytest.mark.parametrize("q", [QFormat(8, 4), Q, QFormat(32, 24)], ids=str)
    @pytest.mark.parametrize("pool_op", [MAX_POOL, AVG_POOL])
    @pytest.mark.parametrize("mode", [ParallelMode(), ParallelMode("simd", 8, cu_count=3)],
                             ids=str)
    def test_invariants_across_modes(self, store42, image42, q, pool_op, mode):
        # counters equal the analytic footprint and values equal the
        # reference in every format, pool op and parallel mode
        spec = lenet5_spec(pool_op)
        fixed = store42.quantize(q)
        result = pipeline.forward(image42, fixed, mode=mode, pool_op=pool_op)
        for stage in result.stages:
            fp = kernel_footprint(spec, stage.name, q)
            assert (stage.bytes_read, stage.bytes_written, stage.macs) == (
                fp.bytes_read, fp.bytes_written, fp.macs), stage.name
        expected, _ = reference.forward_quantized(image42, fixed, pool_op=pool_op)
        assert np.array_equal(result.raw_logits, expected)

    def test_conv_input_read_once_per_work_group(self, fixed42, image42, monkeypatch):
        # conv_pool1 runs 2 groups over the image and conv2 5 groups over
        # conv_pool1's output; local item 0 of each group reads its input
        reads = Counter()
        read = Buffer.read

        def counting_read(self, key):
            reads[self.name] += 1
            return read(self, key)

        monkeypatch.setattr(Buffer, "read", counting_read)
        pipeline.forward(image42, fixed42)
        assert reads["input"] == 2
        assert reads["out_conv_pool1"] == 5


def stage_raws(result) -> dict[str, np.ndarray]:
    return {stage.name: stage.output.values for stage in result.stages}


class TestForwardBatch:
    """A batch runs on one queue; each of its results equals the image's own
    forward pass and the quantized reference, and its counters equal the
    batch footprint."""

    FORMATS = [QFormat(8, 4), QFormat(12, 6), Q, QFormat(24, 12), QFormat(32, 16),
               QFormat(32, 24)]
    MODES = [ParallelMode(), ParallelMode("simd", 8, cu_count=3),
             ParallelMode("unroll", 4, cu_count=2)]

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=4),
           st.sampled_from(FORMATS), st.sampled_from([MAX_POOL, AVG_POOL]),
           st.sampled_from(MODES))
    def test_batch_equals_per_image_runs(self, store42, images42, indices, q, pool_op, mode):
        fixed = store42.quantize(q)
        images = [images42[i] for i in indices]
        results = pipeline.forward_batch(images, fixed, mode=mode, pool_op=pool_op)
        assert len(results) == len(images)
        for image, result in zip(images, results):
            single = pipeline.forward(image, fixed, mode=mode, pool_op=pool_op)
            raw_logits, stages = reference.forward_quantized(image, fixed, pool_op=pool_op)
            assert np.array_equal(result.raw_logits, single.raw_logits)
            assert np.array_equal(result.raw_logits, raw_logits)
            assert result.winner == single.winner
            assert np.array_equal(result.logits, single.logits)
            single_raws = stage_raws(single)
            for name, values in stage_raws(result).items():
                assert np.array_equal(values, single_raws[name]), name
                assert np.array_equal(values, stages[name]), name

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pool_op", [MAX_POOL, AVG_POOL])
    def test_counters_equal_batch_footprint(self, fixed42, images42, n, pool_op):
        spec = lenet5_spec(pool_op)
        results = pipeline.forward_batch(images42[:n], fixed42, pool_op=pool_op)
        for result in results:
            for stage in result.stages:
                fp = kernel_footprint(spec, stage.name, Q, batch=n)
                assert (stage.bytes_read, stage.bytes_written, stage.macs) == (
                    fp.bytes_read, fp.bytes_written, fp.macs), (n, stage.name)

    @staticmethod
    def guard_store(**blocks):
        """At Q32.24, conv2 (500 all-one taps after all-one conv1 filters
        with bias 10) trips on an image of ones (inputs of 35) or of 0.95
        (33.75) but not on zeros (10)."""
        return store_with(conv1_w=np.ones((20, 1, 5, 5)), conv1_b=np.full(20, 10.0),
                          conv2_w=np.ones((50, 20, 5, 5)), **blocks).quantize(QFormat(32, 24))

    @staticmethod
    def message(image, store) -> str:
        with pytest.raises(FixedPointOverflowError) as exc:
            pipeline.forward(image, store)
        return str(exc.value)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_overflow_raises_the_failing_images_own_message(self, k):
        store = self.guard_store()
        images = [np.zeros((1, 28, 28)) for _ in range(3)]
        images[k] = np.full((1, 28, 28), 0.95)
        for other in (i for i in range(3) if i != k):
            pipeline.forward(images[other], store)  # the others pass alone
        expected = self.message(images[k], store)
        with pytest.raises(FixedPointOverflowError) as exc:
            pipeline.forward_batch(images, store)
        assert str(exc.value) == expected

    def test_overflow_order_is_stage_then_batch(self):
        # all-one ip1 weights trip on the saturated conv2 output of zeros, so
        # zeros fails only at ip1 and the later images at conv2: the batch
        # raises at conv2, with the first conv2 failure's message
        store = self.guard_store(ip1_w=np.ones((500, 800)))
        zeros, near, ones = (np.full((1, 28, 28), v) for v in (0.0, 0.95, 1.0))
        messages = [self.message(image, store) for image in (zeros, near, ones)]
        assert "800 taps" in messages[0] and "500 taps" in messages[1]
        assert len(set(messages)) == 3
        with pytest.raises(FixedPointOverflowError) as exc:
            pipeline.forward_batch([zeros, near, ones], store)
        assert str(exc.value) == messages[1]

    def test_empty_batch_rejected(self, fixed42):
        with pytest.raises(ValueError, match="at least one image"):
            pipeline.forward_batch([], fixed42)

    def test_misshapen_image_rejected(self, fixed42, images42):
        with pytest.raises(ValueError, match=r"got \(1, 27, 28\)"):
            pipeline.forward_batch([images42[0], np.zeros((1, 27, 28))], fixed42)


class TestHostProgram:
    """What the host program's queue must keep however its transfers are
    arranged: every kernel waits on the commands that wrote the global
    buffers it reads (its ``src``, ``wts`` and ``bias``), and reads only
    buffers an earlier command wrote."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_kernels_wait_on_the_writers_of_their_inputs(self, fixed42, images42, batch,
                                                         monkeypatch):
        runs = []
        run = CommandQueue.run

        def capturing_run(self):
            runs.append(run(self))
            return runs[-1]

        monkeypatch.setattr(CommandQueue, "run", capturing_run)
        if batch:
            pipeline.forward_batch(images42[:3], fixed42)
        else:
            pipeline.forward(images42[0], fixed42)
        (events,) = runs
        writer = {}  # id of a global buffer -> the latest command that wrote it
        kernels = weighted = 0
        for ev in events:
            if ev.kind == "write":
                writer[id(ev.buffer)] = ev
                continue
            bindings = ev.kernel.bindings if ev.kind == "kernel" else {"src": ev.buffer}
            for role in ("src", "wts", "bias"):
                if role in bindings:
                    assert id(bindings[role]) in writer, (ev.name, role)
                    assert writer[id(bindings[role])] in ev.waits, (ev.name, role)
            if ev.kind == "kernel":
                inputs = {id(b) for b in bindings.values()} - {id(bindings["dst"])}
                assert inputs <= writer.keys(), ev.name
                writer[id(bindings["dst"])] = ev
                kernels += 1
                weighted += "wts" in bindings
        assert (kernels, weighted) == (5, 4)
        assert events[-1].kind == "read"


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
        # conv1 filter 0 holds exact Q32.5 raws 85899345 on all 25 taps and
        # bias 1543503872; over an image saturated at raw_min (magnitude
        # 2**31) the accumulator reaches the 2**62 limit exactly
        w = np.zeros((20, 1, 5, 5))
        w[0] = 85899345 / 32
        b = np.zeros(20)
        b[0] = 1543503872 / 32
        cases = ((ones, np.ones((1, 28, 28)), QFormat(32, 24)),
                 (store_with(conv1_w=w, conv1_b=b), np.full((1, 28, 28), -1e12),
                  QFormat(32, 5)))
        for store, image, q in cases:
            fixed = store.quantize(q)
            with pytest.raises(FixedPointOverflowError):
                pipeline.forward(image, fixed)
            with pytest.raises(FixedPointOverflowError):
                reference.forward_quantized(image, fixed)

    @pytest.mark.parametrize("cu_count", [1, 3])
    def test_overflow_guard_trips_in_staged_conv2(self, cu_count):
        # conv1 (all-one filters, bias 10) is statically safe at Q32.24 and
        # gives conv2 inputs of 35 over an all-one image; 500 taps of
        # weight 1 then reach 17500 * 2**48 > 2**62 in conv2's accumulator
        q = QFormat(32, 24)
        fixed = store_with(conv1_w=np.ones((20, 1, 5, 5)), conv1_b=np.full(20, 10.0),
                           conv2_w=np.ones((50, 20, 5, 5))).quantize(q)
        image = np.ones((1, 28, 28))
        conv2_trip = f"accumulation of 500 taps with \\|a\\|<={35 << 24},"
        with pytest.raises(FixedPointOverflowError, match=conv2_trip):
            pipeline.forward(image, fixed, mode=ParallelMode(cu_count=cu_count))
        with pytest.raises(FixedPointOverflowError, match=conv2_trip):
            reference.forward_quantized(image, fixed)

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
        fixed = WeightStore(**{n: a * scale for n, a in store42.arrays().items()}).quantize(q)
        try:
            expected, _ = reference.forward_quantized(images42[0], fixed, pool_op=pool_op)
        except FixedPointOverflowError:
            with pytest.raises(FixedPointOverflowError):
                pipeline.forward(images42[0], fixed, pool_op=pool_op)
            return
        result = pipeline.forward(images42[0], fixed, pool_op=pool_op)
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

    def test_winner_sequence_matches_reference(self, fixed42, images42):
        for image in images42:
            engine = pipeline.forward(image, fixed42)
            raw, _ = reference.forward_quantized(image, fixed42)
            assert engine.winner == reference.winner_digit(raw)


# -- a third, obviously correct oracle -----------------------------------------


def oracle_narrow(acc: int, q: QFormat) -> int:
    """acc / 2**frac rounded half to even (Python's ``round`` of a Fraction),
    then saturated to ``q``."""
    return min(max(round(Fraction(acc, q.scale)), q.raw_min), q.raw_max)


def oracle_conv(x, w, b, m: int, y: int, xx: int, q: QFormat) -> int:
    """Raw of conv output map m at (y, xx): the canonical-order loop nest
    (input channel, kernel row, kernel column) over Python ints, which
    cannot overflow or round."""
    acc = 0
    for c in range(w.shape[1]):
        for i in range(w.shape[2]):
            for j in range(w.shape[3]):
                acc += int(w[m, c, i, j]) * int(x[c, y + i, xx + j])
    return oracle_narrow(acc + (int(b[m]) << q.frac_bits), q)


def oracle_fc(x, w, b, j: int, q: QFormat) -> int:
    """Raw of fully-connected output j over Python ints."""
    acc = 0
    for k, xk in enumerate(x.ravel()):
        acc += int(w[j, k]) * int(xk)
    return oracle_narrow(acc + (int(b[j]) << q.frac_bits), q)


def largest_admitted_activation(taps: int, wmax: int, bmax: int, q: QFormat) -> int:
    """The largest activation magnitude a <= -raw_min whose accumulation
    bound stays below the accumulator limit (0 if none does)."""
    room = accumulator_limit(q) - (bmax << q.frac_bits)
    if room <= 0:
        return 0
    return -q.raw_min if taps * wmax == 0 else min(-q.raw_min, (room - 1) // (taps * wmax))


def largest_admitted_dot(taps: int, wmax: int, bmax: int, q: QFormat) -> int:
    """The largest dot-product magnitude bound the overflow check admits:
    taps * a * wmax for the largest admitted activation a."""
    return taps * largest_admitted_activation(taps, wmax, bmax, q) * wmax


def largest_limb_dots(taps: int, wmax: int, bmax: int, q: QFormat, s: int,
                      limbs: int) -> list[int]:
    """Each limb's largest dot-product magnitude bound when the admitted
    activations, |x| <= a, are cut into ``limbs`` limbs of ``s`` bits: a
    low limb is a digit up to 2**s - 1, and the top limb, x >> s*(limbs-1)
    over Python ints, reaches ceil(a / 2**(s*(limbs-1))) at x = -a."""
    top = -(-largest_admitted_activation(taps, wmax, bmax, q) >> s * (limbs - 1))
    return [taps * wmax * ((1 << s) - 1)] * (limbs - 1) + [taps * wmax * top]


def with_dot_paths(run):
    """``run()``'s result, and per weight block the path its stage's dot
    products took: the dtype its buffer had when a kernel read it, the limb
    width the engine split the stage input at, and the limb count."""
    spec = lenet5_spec()
    io, blocks = netdef.stage_io_shapes(spec), netdef.layer_weights(spec)
    # each weighted stage's per-image input size names its block
    block_of = {math.prod(io[name][0]): f"{blocks[start][0]}_w"
                for name, start, _ in spec.stage_grouping if blocks[start]}
    dtypes, splits = {}, {}
    read, split = Buffer.read, pipeline.split_limbs

    def spying_read(self, key):
        if self.name.endswith("_w"):
            dtypes[self.name] = self.array.dtype
        return read(self, key)

    def spying_split(x, s, total_bits):
        parts = split(x, s, total_bits)
        splits[block_of[x[0].size]] = (s, len(parts))
        return parts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Buffer, "read", spying_read)
        mp.setattr(pipeline, "split_limbs", spying_split)
        result = run()
    return result, {name: (dtype, *splits[name]) for name, dtype in dtypes.items()}


def delta_filters(maps: int, channels: int, k: int, q: QFormat) -> np.ndarray:
    """Filter m copies input channel m % channels shifted by one of the k*k
    offsets: weight 1.0, exact in ``q`` while frac_bits <= total_bits - 2."""
    w = np.zeros((maps, channels, k, k))
    for m in range(maps):
        w[m, m % channels, m % k, (m // k) % k] = 1.0
    return w


class TestFloatDotOracle:
    """Around 2**53 and the accumulator limit, the engine equals a
    Python-int loop nest and the quantized reference, the guard raises
    exactly when the bound reaches the limit, and the float64 dot products
    split their input at the rule's limb width, where every limb's admitted
    dot product stays below 2**53."""

    @staticmethod
    def store_and_image(target: str, q: QFormat, a: int, wmax: int, bmax: int, seed: int):
        """A store whose ``target`` block (conv2 or ip1) has weight raws of
        magnitude up to ``wmax`` (one equal to it) and bias raws up to
        ``bmax``, and an image whose raws the delta filters carry unchanged
        to the target's input: all within [-a, a], with -a reached there."""
        rng = np.random.default_rng(seed)
        raws = rng.integers(-a, a + 1, size=(1, 28, 28))
        raws[0, :16, :16] = -a  # pools to -a at the top-left of every map
        shape = WEIGHT_SHAPES[f"{target}_w"]
        w = rng.choice([-1, 1], size=shape) * rng.integers(wmax - wmax // 8, wmax + 1, size=shape)
        w.flat[0] = wmax
        b = rng.integers(-bmax, bmax + 1, size=WEIGHT_SHAPES[f"{target}_b"])
        b.flat[0] = bmax
        blocks = {"conv1_w": delta_filters(20, 1, 5, q)}
        if target == "ip1":
            blocks["conv2_w"] = delta_filters(50, 20, 5, q)
        blocks.update({f"{target}_w": w / q.scale, f"{target}_b": b / q.scale})
        return store_with(**blocks).quantize(q), raws / q.scale

    @settings(max_examples=12)
    @given(st.sampled_from([-1, 0]), st.data())
    def test_conv2_around_2_53(self, side, data):
        self.check_around_bound("conv2", "2**53", side, data)

    @settings(max_examples=12)
    @given(st.sampled_from([-1, 0]), st.data())
    def test_conv2_around_the_limit(self, side, data):
        self.check_around_bound("conv2", "limit", side, data)

    @settings(max_examples=12)
    @given(st.sampled_from([-1, 0]), st.data())
    def test_fc_around_2_53(self, side, data):
        self.check_around_bound("ip1", "2**53", side, data)

    @settings(max_examples=12)
    @given(st.sampled_from([-1, 0]), st.data())
    def test_fc_around_the_limit(self, side, data):
        self.check_around_bound("ip1", "limit", side, data)

    def check_around_bound(self, target, boundary, side, data):
        """The ``target`` block's weight max sits one below (``side`` -1)
        or at (0) the first value whose bound reaches ``boundary``.  Weight
        raws reach the limit at >= 29 bits; frac keeps the delta filters'
        weight 1.0 exact and their stages clear of the guard, so only the
        target block can trip it."""
        total = data.draw(st.integers(20 if boundary == "2**53" else 29, 32), label="total")
        q = QFormat(total, data.draw(st.integers(0, min(total - 2, 53 - total)), label="frac"))
        a = data.draw(st.integers(1 << (total - 2), -q.raw_min), label="a")
        bmax = data.draw(st.integers(0, q.raw_max), label="bmax")
        taps = int(np.prod(WEIGHT_SHAPES[f"{target}_w"][1:]))
        # the weight max whose bound first reaches the threshold, or one below
        if boundary == "2**53":  # the rule's own bound: largest activation, no bias
            first = -(-FLOAT64_EXACT_LIMIT // (taps * -q.raw_min))
        else:  # the guard's bound: actual activations, bias included
            first = -(-(accumulator_limit(q) - (bmax << q.frac_bits)) // (taps * a))
        wmax = min(max(first + side, 1), q.raw_max)
        store, image = self.store_and_image(target, q, a, wmax, bmax,
                                            data.draw(st.integers(0, 2**32 - 1), label="seed"))
        assert store.abs_max[f"{target}_w"] == wmax
        bound = taps * a * wmax + (bmax << q.frac_bits)

        if bound >= accumulator_limit(q):
            with pytest.raises(FixedPointOverflowError, match=f"{taps} taps"):
                pipeline.forward(image, store)
            with pytest.raises(FixedPointOverflowError, match=f"{taps} taps"):
                reference.forward_quantized(image, store)
            return
        result, paths = with_dot_paths(lambda: pipeline.forward(image, store))
        raw_logits, stages = reference.forward_quantized(image, store)
        assert np.array_equal(result.raw_logits, raw_logits)
        for stage in result.stages:
            assert np.array_equal(stage.output.values, stages[stage.name]), stage.name

        # the target's input holds activations up to a; one element per layer
        w, b = store.conv2_w, store.conv2_b
        x = stages["conv_pool1"]
        assert int(np.abs(x if target == "conv2" else stages["pool2"]).max()) == a
        m, y, xx = (data.draw(st.integers(0, n - 1), label=axis)
                    for n, axis in ((50, "m"), (8, "y"), (8, "x")))
        assert stages["conv2"][m, y, xx] == oracle_conv(x, w, b, m, y, xx, q)
        j = data.draw(st.integers(0, 499), label="j")
        assert stages["ip1_relu"][j] == max(0, oracle_fc(stages["pool2"], store.ip1_w,
                                                         store.ip1_b, j, q))

        # float64 at the rule's limb width, every limb's admitted dot below 2**53
        dtype, s, limbs = paths[f"{target}_w"]
        assert dtype == np.float64
        assert s == float_limb_bits(taps, wmax, q)
        assert max(largest_limb_dots(taps, wmax, store.abs_max[f"{target}_b"], q, s, limbs)) \
            < FLOAT64_EXACT_LIMIT

    @settings(max_examples=300)
    # the formats either side of accumulator_limit == 2**53, at their largest weights
    @example((QFormat(19, 0), (1 << 18) - 1, 0), 1 << 20)
    @example((QFormat(20, 0), (1 << 19) - 1, 0), 1 << 20)
    @given(st.integers(8, 32).flatmap(lambda t: st.tuples(
               st.builds(QFormat, st.just(t), st.integers(0, t - 1)),
               st.integers(0, (1 << (t - 1)) - 1), st.integers(0, (1 << (t - 1)) - 1))),
           st.integers(1, 1 << 20))
    def test_rule_never_admits_a_dot_reaching_2_53(self, q_w_b, taps):
        # taps far past LeNet-5's 800 reach 2**53 at 20 bits, where only
        # the guard's limit (2**55) bounds the sum
        q, wmax, bmax = q_w_b
        try:
            s = float_limb_bits(taps, wmax, q)
        except ValueError:  # one limb is not exact, nor are one-bit limbs
            assert taps * -q.raw_min * wmax >= FLOAT64_EXACT_LIMIT < accumulator_limit(q)
            assert 2 * taps * wmax >= FLOAT64_EXACT_LIMIT
            return
        limbs = limb_count(s, q.total_bits)
        assert max(largest_limb_dots(taps, wmax, bmax, q, s, limbs)) < FLOAT64_EXACT_LIMIT
        if limbs > 1:  # the widest such limbs: one bit more reaches 2**53
            assert taps * wmax << (s + 1) >= FLOAT64_EXACT_LIMIT

    @pytest.mark.parametrize("q, limbs", [(Q, 1), (QFormat(32, 24), 2)],
                             ids=["Q16.8-float64", "Q32.24-float64-2-limbs"])
    def test_path_per_block(self, store42, image42, q, limbs):
        fixed = store42.quantize(q)
        _, paths = with_dot_paths(lambda: pipeline.forward(image42, fixed))
        assert {name: (dtype, n) for name, (dtype, _, n) in paths.items()} == {
            f"{block}_w": (np.dtype(np.float64), limbs)
            for block in ("conv1", "conv2", "ip1", "ip2")}


class TestReferenceStaysInteger:
    """The quantized reference accumulates in integers even where a float64
    sum would round: otherwise the bit-exact check would compare one
    arithmetic with itself."""

    # Q32.0 makes narrowing a plain clamp.  Every activation is X; each
    # filter or neuron row pairs +(W + d) with -(W + d) (one pair off by
    # one), so the exact dot is X while the partial sums pass 2**59.
    Q = QFormat(32, 0)
    X = (1 << 30) + 1
    W = 3_000_001

    def row(self, taps: int, rng) -> np.ndarray:
        offsets = 2 * rng.integers(0, 1000, taps // 2) + 1
        neg = -(self.W + offsets)
        neg[0] += 1
        return np.concatenate([self.W + offsets, neg])

    def test_reference_equals_oracle_where_float64_rounds(self):
        q, rng = self.Q, np.random.default_rng(5)
        conv2_w = np.stack([self.row(500, rng) for _ in range(50)]).reshape(50, 20, 5, 5)
        ip1_w = np.stack([self.row(800, rng) for _ in range(500)])
        store = store_with(conv1_w=delta_filters(20, 1, 5, q), conv2_w=conv2_w,
                           ip1_w=ip1_w).quantize(q)
        image = np.full((1, 28, 28), float(self.X))

        raw_logits, stages = reference.forward_quantized(image, store)
        assert raw_logits.dtype == np.int64
        assert all(raws.dtype == np.int64 for raws in stages.values())
        x = stages["conv_pool1"]
        assert np.all(x == self.X)
        for name, taps, w in (("conv2", 500, conv2_w), ("ip1", 800, ip1_w)):
            bound = taps * self.X * int(np.abs(w).max())
            assert FLOAT64_EXACT_LIMIT < bound < accumulator_limit(q), name
        # float64 rounds these dot products: the case can tell the arithmetics apart
        cols = x[:, :5, :5].astype(np.float64).ravel()
        assert float(conv2_w[0].ravel().astype(np.float64) @ cols) != self.X
        assert float(ip1_w[0].astype(np.float64) @ stages["pool2"].ravel()) != self.X

        assert stages["conv2"][0, 0, 0] == oracle_conv(x, store.conv2_w, store.conv2_b,
                                                       0, 0, 0, q) == self.X
        assert stages["ip1_relu"][0] == oracle_fc(stages["pool2"], store.ip1_w,
                                                  store.ip1_b, 0, q) == self.X
        assert np.all(stages["conv2"] == self.X) and np.all(stages["ip1_relu"] == self.X)
        for stage in pipeline.forward(image, store).stages:  # on its int64 path
            assert np.array_equal(stage.output.values, stages[stage.name]), stage.name


class TestImageShape:
    def test_flat_image_rejected_everywhere(self, store42, fixed42, image42):
        flat = image42.reshape(-1)
        message = r"image must have shape \(1, 28, 28\), got \(784,\)"
        with pytest.raises(ValueError, match=message):
            pipeline.forward(flat, fixed42)
        with pytest.raises(ValueError, match=message):
            reference.forward_quantized(flat, fixed42)
        with pytest.raises(ValueError, match=message):
            reference.forward_float(flat, store42)
        with pytest.raises(ValueError, match=message):
            sweep_precision(store42, [flat], [QFormat(16, 8)])


class TestGoldenEngine:
    def test_replays_golden_engine_digests(self):
        # engine outputs must stay bit-identical: every configuration of the
        # grid that capture_golden_engine.py records hashes to its digest
        import capture_golden_engine as golden

        expected = json.loads(golden.GOLDEN_PATH.read_text(encoding="ascii"))
        found = golden.digests()
        assert len(expected) == 216
        assert [key for key in expected if found.get(key) != expected[key]] == []
        assert found.keys() == expected.keys()
