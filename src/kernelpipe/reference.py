"""Straight-line reference implementations of the pipeline.

Two ground truths, both free of the execution-model machinery.  Both walk
the layers of :func:`kernelpipe.netdef.lenet5_spec`, each weighted layer
reading the block :func:`~kernelpipe.netdef.layer_weights` names:

* :func:`forward_float` -- plain float64 arithmetic on a float64 store: the
  functional baseline every fixed-point result is measured against.
* :func:`forward_quantized` -- fixed-point arithmetic on a fixed-point
  store, like the engine: the input is quantized, dot products accumulate
  exactly in integers, and each output element is narrowed once
  (round-to-nearest-even, saturating), so this path is bit-for-bit what
  the engine must produce.

The arithmetic (an einsum over sliding windows, a reshape into pooling
blocks) is this module's own, and it imports nothing from the engine: the
bit-exact check compares two implementations.  Winner selection is argmax
with lowest-index tie-break throughout.
"""

from __future__ import annotations

import numpy as np

from .netdef import MAX_POOL, LayerSpec, layer_weights, lenet5_spec
from .tensors import (
    QFormat,
    check_accumulation_bound,
    div_round_even_array,
    narrow_array,
    quantize_array,
)
from .weights import WeightStore


def _walk(image: np.ndarray, store: WeightStore, pool_op: str,
          ops: dict) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Run ``image`` through ``lenet5_spec(pool_op)``: ``ops["input"]`` takes
    the float64 image, then ``ops[layer.kind]`` applies each layer, a weighted
    one to its block's weights and bias, any other to its ``LayerSpec``.
    Returns the last layer's output and each stage's output.  Like the
    engine, it takes only images of the network's input shape."""
    spec = lenet5_spec(pool_op)
    arrays = store.arrays()
    image = np.asarray(image, dtype=np.float64)
    if image.shape != spec.input_shape:
        raise ValueError(f"image must have shape {spec.input_shape}, got {image.shape}")
    x = ops["input"](image)
    outputs = []
    for layer, block in zip(spec.layers, layer_weights(spec)):
        args = (layer,) if block is None else (arrays[f"{block[0]}_w"], arrays[f"{block[0]}_b"])
        x = ops[layer.kind](x, *args)
        outputs.append(x)
    return x, {name: outputs[end - 1] for name, _, end in spec.stage_grouping}


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid stride-1 convolution of x (C,H,W) with w (M,C,k,k) plus b (M,),
    in x's dtype.  ``optimize=True`` lets numpy contract the windows with
    ``tensordot``: exact in int64, and in float64 summed in numpy's order."""
    k = w.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    conv = np.einsum("cyxij,fcij->fyx", windows, w, dtype=x.dtype, optimize=True)
    return conv + b[:, None, None]


def _fc(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return w @ x.ravel() + b


def _relu(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    return np.maximum(0, x)


def _pool_blocks(x: np.ndarray, window: int) -> np.ndarray:
    """x (C,H,W), which the window tiles, as (C, H/window, window, W/window,
    window) pooling blocks."""
    c, h, w = x.shape
    return x.reshape(c, h // window, window, w // window, window)


def pool_2d(x: np.ndarray, pool: LayerSpec) -> np.ndarray:
    blocks = _pool_blocks(x, pool.window)
    if pool.pool_op == MAX_POOL:
        return blocks.max(axis=(2, 4))
    return blocks.mean(axis=(2, 4))


_FLOAT_OPS = {"input": lambda x: x, "conv": _conv, "pool": pool_2d,
              "fully_connected": _fc, "relu": _relu}


def forward_float(image: np.ndarray, store: WeightStore,
                  pool_op: str = MAX_POOL) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Float64 forward pass of a float64 store; returns (logits, per-stage
    outputs)."""
    if store.is_fixed:
        raise ValueError("the float64 reference needs the float64 weight store")
    return _walk(image, store, pool_op, _FLOAT_OPS)


def winner_digit(logits: np.ndarray) -> int:
    return int(np.argmax(logits))  # np.argmax takes the lowest index on ties


# -- fixed-point reference ---------------------------------------------------


def _narrowed(dot, q: QFormat):
    """The weighted layer ``dot`` in fixed point: an overflow guard over one
    row of w (``w[0].size`` taps), exact int64 accumulation at scale
    2**(2*frac) with the bias aligned by a left shift, then one narrowing
    per output element.  The sums are exact, so the vectorized reduction
    equals the canonical-order loop nest bit for bit."""
    def layer(x, w, b):
        check_accumulation_bound(w[0].size, int(np.abs(x).max(initial=0)),
                                 int(np.abs(w).max(initial=0)),
                                 int(np.abs(b).max(initial=0)), q)
        return narrow_array(dot(x, w, b << q.frac_bits), q)
    return layer


def _pool_fixed(x: np.ndarray, pool: LayerSpec, q: QFormat) -> np.ndarray:
    blocks = _pool_blocks(x, pool.window)
    if pool.pool_op == MAX_POOL:
        return blocks.max(axis=(2, 4))
    sums = blocks.sum(axis=(2, 4), dtype=np.int64)
    return np.clip(div_round_even_array(sums, pool.window * pool.window), q.raw_min, q.raw_max)


def forward_quantized(image: np.ndarray, store: WeightStore, *,
                      pool_op: str = MAX_POOL) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Step-quantized forward pass of a fixed-point store; returns (raw
    logits, per-stage raws)."""
    q = store.qformat
    if q is None:
        raise ValueError("the quantized reference runs fixed-point only: "
                         "quantize the weight store first")
    return _walk(image, store, pool_op, {
        "input": lambda x: quantize_array(x, q), "conv": _narrowed(_conv, q),
        "pool": lambda x, pool: _pool_fixed(x, pool, q),
        "fully_connected": _narrowed(_fc, q), "relu": _relu})
