"""Precision-reduction study: how far can the fixed-point format shrink
before classification degrades.

Each candidate format quantizes weights and activations (activations pick up
the format implicitly through stage-boundary narrowing), runs the engine
forward pass on every image, and measures logit divergence and winner
agreement against the float64 reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline, reference
from .netdef import MAX_POOL, lenet5_spec
from .tensors import QFormat, Tensor
from .weights import WeightStore


@dataclass(frozen=True)
class SweepResult:
    qformat: QFormat
    max_abs_logit_error: float
    mean_abs_logit_error: float
    argmax_agreement: float  # fraction in [0, 1]
    n_samples: int


def divergence(fixed_logits: Tensor, float_logits: np.ndarray) -> tuple[float, bool]:
    """Max absolute logit error after dequantization, and whether the
    tie-broken argmax winners agree."""
    float_logits = np.asarray(float_logits, dtype=np.float64)
    if not fixed_logits.is_fixed:
        raise ValueError("first argument must be a fixed-point tensor")
    if fixed_logits.shape.element_count != float_logits.size:
        raise ValueError(
            f"logit length mismatch: {fixed_logits.shape.element_count} vs {float_logits.size}")
    approx = fixed_logits.to_float().ravel()
    exact = float_logits.ravel()
    max_err = float(np.max(np.abs(approx - exact)))
    agree = reference.winner_digit(approx) == reference.winner_digit(exact)
    return max_err, agree


def default_sweep_grid() -> list[QFormat]:
    """Half the bits fractional, bracketing plausible reduced precisions."""
    return [QFormat(b, b // 2) for b in (8, 12, 16, 24, 32)]


def sweep_precision(store: WeightStore, images, formats: list[QFormat],
                    pool_op: str = MAX_POOL) -> list[SweepResult]:
    """Run the engine under every format on every image; aggregate divergence
    from the float64 reference.

    ``store`` must be float64 (it is quantized per format here); ``images``
    is a sequence of arrays of the network's input shape.
    """
    in_shape = lenet5_spec(pool_op).input_shape.dims
    images = [np.asarray(img, dtype=np.float64).reshape(in_shape) for img in images]
    if not images:
        raise ValueError("at least one image is required")
    if not formats:
        raise ValueError("at least one format is required")
    if store.is_fixed:
        raise ValueError("sweep needs the float64 weight store")

    float_logits = [reference.forward_float(img, store, pool_op)[0] for img in images]

    results = []
    for q in formats:
        fixed_store = store.quantize(q)
        errors = np.zeros((len(images), float_logits[0].size))
        agreements = 0
        for i, img in enumerate(images):
            result = pipeline.forward(img, fixed_store, pool_op=pool_op)
            errors[i] = np.abs(result.logits - float_logits[i])
            agreements += result.winner == reference.winner_digit(float_logits[i])
        results.append(SweepResult(
            qformat=q,
            max_abs_logit_error=float(errors.max()),
            mean_abs_logit_error=float(errors.mean()),
            argmax_agreement=agreements / len(images),
            n_samples=len(images),
        ))
    return results
