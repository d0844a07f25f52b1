"""Weight storage for the five-kernel pipeline.

One store carries all four parameterized layers, either as float64 (the
ingested form) or as fixed-point raws under a single QFormat.  Block names,
shapes and their order (the order weight files are written in) come from
:func:`kernelpipe.netdef.lenet5_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netdef import lenet5_spec, weight_shapes
from .tensors import QFormat, quantize_array

WEIGHT_SHAPES = weight_shapes(lenet5_spec())


@dataclass(frozen=True)
class WeightStore:
    """All pipeline weights and biases, float64 or fixed-point raws."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    ip1_w: np.ndarray
    ip1_b: np.ndarray
    ip2_w: np.ndarray
    ip2_b: np.ndarray
    qformat: QFormat | None = field(default=None)

    def __post_init__(self):
        dtype = np.float64 if self.qformat is None else np.int64
        for name, shape in WEIGHT_SHAPES.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def is_fixed(self) -> bool:
        return self.qformat is not None

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in WEIGHT_SHAPES}

    def quantize(self, q: QFormat) -> "WeightStore":
        if self.is_fixed:
            raise ValueError("store is already fixed-point")
        raws = {name: quantize_array(arr, q) for name, arr in self.arrays().items()}
        return WeightStore(qformat=q, **raws)


def zero_weights() -> WeightStore:
    return WeightStore(**{name: np.zeros(shape) for name, shape in WEIGHT_SHAPES.items()})
