"""Record one digest of the engine's outputs per configuration.

    PYTHONPATH=src python tests/capture_golden_engine.py

The grid is seeds 1/7/42 x weight scale 1/4096 x six formats x max/avg
pooling x three parallel modes: 216 configurations.  Each digest covers
three single-image forwards and one batch of the same three images: raw
logits, every stage's raws, bytes read and written, MACs, and the message
of a forward that raises :class:`FixedPointOverflowError`.  Arrays are
hashed as little-endian int64 bytes together with their shape, so a digest
is the same on every platform.

Run it on the commit whose engine outputs are the reference;
``test_kernels.py::TestGoldenEngine`` then requires every later commit to
reproduce each digest.  A change to ``golden_engine.json`` is a change to
engine outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from kernelpipe import fixtures, pipeline
from kernelpipe.netdef import AVG_POOL, MAX_POOL
from kernelpipe.ocl import ParallelMode
from kernelpipe.tensors import FixedPointOverflowError, QFormat
from kernelpipe.weights import WeightStore

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_engine.json"

SEEDS = (1, 7, 42)
WEIGHT_SCALES = (1, 4096)
FORMATS = (QFormat(8, 4), QFormat(12, 6), QFormat(16, 8), QFormat(24, 12), QFormat(32, 16),
           QFormat(32, 24))
POOL_OPS = (MAX_POOL, AVG_POOL)
MODES = (ParallelMode(), ParallelMode("simd", 8, cu_count=4),
         ParallelMode("unroll", 4, cu_count=2))
IMAGES = 3


def _update(h, *items):
    for item in items:
        if isinstance(item, np.ndarray):
            if item.dtype.kind not in "iu":
                raise TypeError(f"only integer arrays are hashed, got {item.dtype}")
            h.update(repr(item.shape).encode("ascii"))
            h.update(item.astype("<i8").tobytes())
        else:
            h.update(repr(item).encode("utf-8"))
        h.update(b"\0")


def _update_run(h, run):
    """Hash the forward results ``run()`` returns, or the message of the
    overflow it raises."""
    try:
        results = run()
    except FixedPointOverflowError as exc:
        _update(h, "overflow", str(exc))
        return
    for result in results:
        _update(h, result.raw_logits)
        for stage in result.stages:
            _update(h, stage.name, stage.output.values, stage.bytes_read, stage.bytes_written,
                    stage.macs)


def digests() -> dict[str, str]:
    """One sha256 per configuration, over each image's forward and then
    the forward of their batch."""
    golden = {}
    for seed, scale, q in itertools.product(SEEDS, WEIGHT_SCALES, FORMATS):
        base = fixtures.synthetic_weights(seed).arrays()
        fixed = WeightStore(**{name: arr * scale for name, arr in base.items()}).quantize(q)
        images = list(fixtures.synthetic_images(seed, IMAGES))
        for pool_op, mode in itertools.product(POOL_OPS, MODES):
            h = hashlib.sha256()
            for image in images:
                _update_run(h, lambda: [pipeline.forward(image, fixed, mode=mode,
                                                         pool_op=pool_op)])
            _update_run(h, lambda: pipeline.forward_batch(images, fixed, mode=mode,
                                                          pool_op=pool_op))
            golden[f"seed={seed} scale={scale} {q} {pool_op} {mode}"] = h.hexdigest()
    return golden


def main() -> int:
    golden = digests()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0) + "\n", encoding="ascii")
    print(f"{len(golden)} digests written to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
