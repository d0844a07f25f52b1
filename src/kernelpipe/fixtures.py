"""Seeded synthetic weights and images.

Every command and test can run without downloading the real digit dataset:
fixtures are generated deterministically from a seed, and the ``fixtures``
CLI subcommand materializes them as exchange-format text files.

Weight scales shrink with fan-in so activations stay far from the
fixed-point saturation range while logits stay spread enough for stable
winners under the default Q16.8 precision.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .netdef import lenet5_spec
from .weights import WEIGHT_SHAPES, WeightStore

# Normal standard deviation of each weight block.
_WEIGHT_STDS = {"conv1_w": 0.35, "conv1_b": 0.1, "conv2_w": 0.1, "conv2_b": 0.1,
                "ip1_w": 0.04, "ip1_b": 0.1, "ip2_w": 0.15, "ip2_b": 0.5}


def synthetic_weights(seed: int = 42) -> WeightStore:
    """Blocks drawn in :data:`WEIGHT_SHAPES` order from one seeded stream."""
    rng = np.random.default_rng(seed)
    return WeightStore(**{name: rng.normal(0.0, _WEIGHT_STDS[name], shape)
                          for name, shape in WEIGHT_SHAPES.items()})


def synthetic_images(seed: int = 42, count: int = 1) -> np.ndarray:
    """``count`` pixel arrays of the network input shape (1, 28, 28), in [0, 1]."""
    rng = np.random.default_rng(seed)
    return rng.random((count, *lenet5_spec().input_shape))


def write_fixture_files(out_dir, seed: int = 42, count: int = 4) -> dict[str, list[str]]:
    """Materialize a weights file plus ``count`` image files; returns the
    written paths keyed by kind."""
    from .ingest import write_image_text, write_weights_text

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights_path = out_dir / f"weights_seed{seed}.txt"
    write_weights_text(synthetic_weights(seed), weights_path)
    image_paths = []
    for i, image in enumerate(synthetic_images(seed, count)):
        path = out_dir / f"image_seed{seed}_{i:03d}.txt"
        write_image_text(image, path)
        image_paths.append(str(path))
    return {"weights": [str(weights_path)], "images": image_paths}
