"""Straight-line reference implementations of the pipeline.

Two ground truths live here, both free of the execution-model machinery:

* :func:`forward_float` -- plain float64 arithmetic, no quantization.  This
  is the functional baseline every fixed-point result is measured against.
* :func:`forward_quantized` -- the same structure with fixed-point
  arithmetic inserted at every step: weights and the input are quantized,
  dot products accumulate exactly in integers, and each output element is
  narrowed once (round-to-nearest-even, saturating).  Because the integer
  accumulation is exact, this path is bit-for-bit what the device engine
  must produce.

Winner selection is argmax with lowest-index tie-break throughout.
"""

from __future__ import annotations

import numpy as np

from .netdef import MAX_POOL, STAGE_NAMES, lenet5_spec
from .tensors import (
    QFormat,
    check_accumulation_bound,
    div_round_even_array,
    narrow_array,
    quantize_array,
)
from .weights import WeightStore


def _input_and_pools(pool_op: str):
    """The network's input shape and its two pool layers, from the spec."""
    spec = lenet5_spec(pool_op)
    pool1, pool2 = (layer for layer in spec.layers if layer.kind == "pool")
    return spec.input_shape.dims, pool1, pool2


def _check_layer(x: np.ndarray, taps: int, w: np.ndarray, b: np.ndarray, q: QFormat):
    check_accumulation_bound(taps, int(np.abs(x).max(initial=0)),
                             int(np.abs(w).max(initial=0)),
                             int(np.abs(b).max(initial=0)), q)


def _conv_sums(x: np.ndarray, w: np.ndarray, dtype) -> np.ndarray:
    """Valid stride-1 convolution sums of x (C,H,W) with w (M,C,k,k), no bias."""
    k = w.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return np.einsum("cyxij,fcij->fyx", windows, w, dtype=dtype)


def _pool_blocks(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """x (C,H,W) as (C, H/window, window, W/window, window) pooling blocks."""
    c, h, w = x.shape
    if window != stride or h % window or w % window:
        raise ValueError("reference pooling expects non-overlapping exact windows")
    return x.reshape(c, h // window, window, w // window, window)


def conv_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid (unpadded) stride-1 convolution: x (C,H,W), w (M,C,k,k), b (M,)."""
    return _conv_sums(x, w, np.float64) + b[:, None, None]


def pool_2d(x: np.ndarray, window: int, stride: int, pool_op: str) -> np.ndarray:
    blocks = _pool_blocks(x, window, stride)
    if pool_op == MAX_POOL:
        return blocks.max(axis=(2, 4))
    return blocks.mean(axis=(2, 4))


def forward_float(image: np.ndarray, store: WeightStore,
                  pool_op: str = MAX_POOL) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Float64 forward pass of a float64 store; returns (logits, per-stage
    outputs)."""
    if store.is_fixed:
        raise ValueError("the float64 reference needs the float64 weight store")
    in_shape, pool1, pool2 = _input_and_pools(pool_op)
    image = np.asarray(image, dtype=np.float64).reshape(in_shape)
    out1 = pool_2d(conv_valid(image, store.conv1_w, store.conv1_b),
                   pool1.window, pool1.stride, pool_op)
    out2 = conv_valid(out1, store.conv2_w, store.conv2_b)
    out3 = pool_2d(out2, pool2.window, pool2.stride, pool_op)
    out4 = np.maximum(0.0, store.ip1_w @ out3.ravel() + store.ip1_b)
    logits = store.ip2_w @ out4 + store.ip2_b
    stages = dict(zip(STAGE_NAMES, (out1, out2, out3, out4, logits)))
    return logits, stages


def winner_digit(logits: np.ndarray) -> int:
    return int(np.argmax(logits))  # np.argmax takes the lowest index on ties


# -- fixed-point reference ---------------------------------------------------


def _conv_fixed(x: np.ndarray, w: np.ndarray, b: np.ndarray, q: QFormat) -> np.ndarray:
    """Integer valid convolution; one narrowing per output element.

    Accumulators carry scale 2**(2*frac); biases are aligned by a left
    shift before narrowing.  Exact int64 arithmetic throughout (the
    headroom check has already ruled out overflow), so the vectorized
    reduction equals the canonical-order loop nest bit for bit.
    """
    _check_layer(x, w[0].size, w, b, q)
    acc = _conv_sums(x, w, np.int64) + (b << q.frac_bits)[:, None, None]
    return narrow_array(acc, q)


def _pool_fixed(x: np.ndarray, window: int, stride: int, pool_op: str,
                q: QFormat) -> np.ndarray:
    blocks = _pool_blocks(x, window, stride)
    if pool_op == MAX_POOL:
        return blocks.max(axis=(2, 4))
    sums = blocks.sum(axis=(2, 4), dtype=np.int64)
    return np.clip(div_round_even_array(sums, window * window), q.raw_min, q.raw_max)


def _fc_fixed(x: np.ndarray, w: np.ndarray, b: np.ndarray, q: QFormat) -> np.ndarray:
    _check_layer(x, x.size, w, b, q)
    acc = w @ x + (b << q.frac_bits)
    return narrow_array(acc, q)


def forward_quantized(image: np.ndarray, store: WeightStore, q: QFormat | None = None,
                      pool_op: str = MAX_POOL) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Step-quantized forward pass; returns (raw logits, per-stage raws)."""
    if store.is_fixed:
        if q is not None and q != store.qformat:
            raise ValueError("requested QFormat differs from the store's")
        q = store.qformat
    else:
        if q is None:
            raise ValueError("a QFormat is required for a float store")
        store = store.quantize(q)
    in_shape, pool1, pool2 = _input_and_pools(pool_op)
    image_raw = quantize_array(np.asarray(image).reshape(in_shape), q)
    conv1 = _conv_fixed(image_raw, store.conv1_w, store.conv1_b, q)
    out1 = _pool_fixed(conv1, pool1.window, pool1.stride, pool_op, q)
    out2 = _conv_fixed(out1, store.conv2_w, store.conv2_b, q)
    out3 = _pool_fixed(out2, pool2.window, pool2.stride, pool_op, q)
    out4 = np.maximum(0, _fc_fixed(out3.ravel(), store.ip1_w, store.ip1_b, q))
    logits = _fc_fixed(out4, store.ip2_w, store.ip2_b, q)
    stages = dict(zip(STAGE_NAMES, (out1, out2, out3, out4, logits)))
    return logits, stages
