import numpy as np
import pytest

from kernelpipe import fixtures, pipeline, reference
from kernelpipe.ocl import CommandQueue
from kernelpipe.pipeline import BATCH_SIZE
from kernelpipe.sweep import default_sweep_grid, sweep_precision
from kernelpipe.tensors import QFormat
from kernelpipe.weights import WEIGHT_SHAPES, WeightStore

Q = QFormat(16, 8)


def dyadic_store() -> WeightStore:
    """Weights and biases whose every intermediate value is an exact multiple
    of 2**-8: quantizing at Q16.8 is lossless end to end."""
    arrays = {name: np.zeros(shape) for name, shape in WEIGHT_SHAPES.items()}
    arrays["conv1_w"][:, 0, 2, 2] = 0.5
    arrays["conv2_w"][:, 0, 2, 2] = 0.5
    for n in range(500):
        arrays["ip1_w"][n, n % 800] = 0.5
    arrays["ip1_b"][:] = 0.5
    for d in range(10):
        arrays["ip2_w"][d, d] = 0.5
    return WeightStore(**arrays)


def dyadic_image() -> np.ndarray:
    img = np.zeros((1, 28, 28))
    img[0, ::2, ::2] = 1.0
    img[0, 1::2, ::3] = 0.5
    return img


class TestSweepPrecision:
    def test_identity_case_zero_error(self):
        results = sweep_precision(dyadic_store(), [dyadic_image()], [Q])
        assert results[0].max_abs_logit_error == 0.0
        assert results[0].argmax_agreement == 1.0

    def test_single_image_single_format(self, store42, images42):
        results = sweep_precision(store42, [images42[0]], [Q])
        assert len(results) == 1
        assert results[0].n_samples == 1

    def test_matches_brute_force_recomputation(self, store42, images42):
        images = list(images42[:3])
        formats = [QFormat(12, 6), Q]
        results = sweep_precision(store42, images, formats)
        for res in results:
            fixed = store42.quantize(res.qformat)
            errs = []
            agree = 0
            for img in images:
                engine = pipeline.forward(img, fixed)
                exact, _ = reference.forward_float(img, store42)
                errs.append(np.abs(engine.logits - exact))
                agree += engine.winner == reference.winner_digit(exact)
            errs = np.array(errs)
            assert res.max_abs_logit_error == errs.max()
            assert res.mean_abs_logit_error == errs.mean()
            assert res.argmax_agreement == agree / len(images)

    def test_error_shrinks_with_precision_at_fixed_headroom(self, store42, images42):
        # same integer headroom (8 bits), growing fractional precision
        formats = [QFormat(16, 8), QFormat(20, 12), QFormat(24, 16)]
        results = sweep_precision(store42, list(images42[:4]), formats)
        means = [r.mean_abs_logit_error for r in results]
        assert means[0] >= means[1] >= means[2]

    def test_empty_inputs_rejected(self, store42, images42):
        with pytest.raises(ValueError):
            sweep_precision(store42, [], [Q])
        with pytest.raises(ValueError):
            sweep_precision(store42, [images42[0]], [])

    def test_fixed_store_rejected(self, fixed42, images42):
        with pytest.raises(ValueError):
            sweep_precision(fixed42, [images42[0]], [Q])

    @pytest.mark.parametrize("n_images, n_formats, runs", [(2, 3, 3), (BATCH_SIZE + 1, 1, 2)])
    def test_one_queue_per_format_and_batch(self, store42, monkeypatch,
                                            n_images, n_formats, runs):
        counted = []
        run = CommandQueue.run

        def counting_run(self):
            counted.append(self)
            return run(self)

        monkeypatch.setattr(CommandQueue, "run", counting_run)
        images = list(fixtures.synthetic_images(5, n_images))
        formats = [QFormat(12, 6), Q, QFormat(24, 12)][:n_formats]
        sweep_precision(store42, images, formats)
        assert len(counted) == runs

    def test_default_grid(self):
        grid = default_sweep_grid()
        assert [(q.total_bits, q.frac_bits) for q in grid] == [
            (8, 4), (12, 6), (16, 8), (24, 12), (32, 16)]


class TestHighPrecisionLimit:
    def test_wide_format_agreement_is_total(self, store42):
        # 24 fractional bits leave quantization noise far below the logit
        # gaps of the fixture; on 100 random images every winner must match
        # the float reference
        images = fixtures.synthetic_images(123, 100)
        results = sweep_precision(store42, list(images), [QFormat(32, 24)])
        assert results[0].argmax_agreement == 1.0
        assert results[0].n_samples == 100
        assert results[0].max_abs_logit_error < 1e-4
