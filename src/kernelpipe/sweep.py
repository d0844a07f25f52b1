"""Precision-reduction study: how far can the fixed-point format shrink
before classification degrades.

Each candidate format quantizes weights and activations (activations pick up
the format implicitly through stage-boundary narrowing), runs the engine on
the images in batches of up to :data:`kernelpipe.pipeline.BATCH_SIZE` (one
command queue each), and measures the absolute logit error and winner
agreement against the float64 reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline, reference
from .netdef import MAX_POOL
from .tensors import QFormat
from .weights import WeightStore


@dataclass(frozen=True)
class SweepResult:
    qformat: QFormat
    max_abs_logit_error: float
    mean_abs_logit_error: float
    argmax_agreement: float  # fraction in [0, 1]
    n_samples: int


def default_sweep_grid() -> list[QFormat]:
    """Half the bits fractional, bracketing plausible reduced precisions."""
    return [QFormat(b, b // 2) for b in (8, 12, 16, 24, 32)]


def sweep_precision(store: WeightStore, images, formats: list[QFormat],
                    pool_op: str = MAX_POOL) -> list[SweepResult]:
    """Run the engine under every format on every image; aggregate the logit
    error against the float64 reference.

    ``store`` must be float64 (it is quantized per format here); ``images``
    is a sequence of arrays of the network's input shape.
    """
    images = list(images)
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
        engine = [result for start in range(0, len(images), pipeline.BATCH_SIZE)
                  for result in pipeline.forward_batch(images[start:start + pipeline.BATCH_SIZE],
                                                       fixed_store, pool_op=pool_op)]
        errors = np.array([np.abs(r.logits - f) for r, f in zip(engine, float_logits)])
        agreements = sum(r.winner == reference.winner_digit(f)
                         for r, f in zip(engine, float_logits))
        results.append(SweepResult(
            qformat=q,
            max_abs_logit_error=float(errors.max()),
            mean_abs_logit_error=float(errors.mean()),
            argmax_agreement=agreements / len(images),
            n_samples=len(images),
        ))
    return results
