"""Declarative LeNet-5 network description with shape inference.

The network is a linear pipeline of conv / pool / fully-connected / relu
layers, partitioned into the five device kernels the engine actually runs:
conv_pool1, conv2, pool2, ip1_relu, ip2.  Nothing here depends on a backend.
Only this module decides layer geometry (stride-1 valid convolution, pooling
that tiles its input in non-overlapping windows) and weight blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

STAGE_NAMES = ("conv_pool1", "conv2", "pool2", "ip1_relu", "ip2")

MAX_POOL = "max"
AVG_POOL = "average"


class ShapeInferenceError(ValueError):
    """A layer's window does not fit its input."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | pool | fully_connected | relu
    out_maps: int = 0        # conv
    kernel: int = 0          # conv: square kernel edge, stride 1
    window: int = 0          # pool: square window edge = stride
    pool_op: str = MAX_POOL  # pool: max | average
    out_neurons: int = 0     # fully_connected

    def __post_init__(self):
        if self.kind == "conv":
            if self.out_maps < 1 or self.kernel < 1:
                raise ValueError(f"invalid conv layer: {self}")
        elif self.kind == "pool":
            if self.window < 1:
                raise ValueError(f"invalid pool layer: {self}")
            if self.pool_op not in (MAX_POOL, AVG_POOL):
                raise ValueError(f"unknown pool_op {self.pool_op!r}")
        elif self.kind == "fully_connected":
            if self.out_neurons < 1:
                raise ValueError(f"invalid fully_connected layer: {self}")
        elif self.kind != "relu":
            raise ValueError(f"unknown layer kind {self.kind!r}")


def conv(out_maps: int, kernel: int) -> LayerSpec:
    return LayerSpec(kind="conv", out_maps=out_maps, kernel=kernel)


def pool(window: int, pool_op: str = MAX_POOL) -> LayerSpec:
    return LayerSpec(kind="pool", window=window, pool_op=pool_op)


def fully_connected(out_neurons: int) -> LayerSpec:
    return LayerSpec(kind="fully_connected", out_neurons=out_neurons)


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer list plus the partition of layers onto the five pipeline stages.

    ``stage_grouping`` maps each stage name to the contiguous span
    [start, end) of layer indices it executes; spans must tile the layer
    list in order.  ``input_shape`` is one image's (channels, height, width).
    """

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    stage_grouping: tuple[tuple[str, int, int], ...] = field(default=())

    def __post_init__(self):
        dims = self.input_shape
        if len(dims) != 3 or not all(isinstance(d, int) and d >= 1 for d in dims):
            raise ValueError(f"input shape must be 3 positive integer extents, got {dims}")
        names = tuple(name for name, _, _ in self.stage_grouping)
        if names != STAGE_NAMES:
            raise ValueError(f"stage grouping must name {STAGE_NAMES} in order, got {names}")
        cursor = 0
        for name, start, end in self.stage_grouping:
            if start != cursor or end <= start:
                raise ValueError(f"stage {name} span [{start},{end}) is not contiguous")
            cursor = end
        if cursor != len(self.layers):
            raise ValueError("stage grouping does not cover all layers")


def lenet5_spec(pool_op: str = MAX_POOL) -> NetworkSpec:
    """The canonical 28x28 digit classifier: two conv/pool pairs, then an
    800->500 fully-connected layer with ReLU and a 500->10 classifier.

    ``pool_op`` defaults to max (the behavior of the public Caffe model this
    pipeline ingests weights from); pass ``AVG_POOL`` for classic local
    averaging.
    """
    layers = (
        conv(out_maps=20, kernel=5),
        pool(window=2, pool_op=pool_op),
        conv(out_maps=50, kernel=5),
        pool(window=2, pool_op=pool_op),
        fully_connected(500),
        relu(),
        fully_connected(10),
    )
    grouping = (
        ("conv_pool1", 0, 2),
        ("conv2", 2, 3),
        ("pool2", 3, 4),
        ("ip1_relu", 4, 6),
        ("ip2", 6, 7),
    )
    return NetworkSpec(input_shape=(1, 28, 28), layers=layers, stage_grouping=grouping)


def infer_shapes(spec: NetworkSpec) -> list[tuple[int, ...]]:
    """Per-layer output shapes.  Valid stride-1 convolution geometry:
    conv out = (out_maps, H-k+1, W-k+1); pool divides the spatial extents by
    its window, which must tile them; fully_connected flattens its input.
    """
    shapes = []
    current = spec.input_shape
    for index, layer in enumerate(spec.layers):
        if layer.kind == "conv":
            c, h, w = current
            if layer.kernel > h or layer.kernel > w:
                raise ShapeInferenceError(
                    f"layer {index} (conv {layer.kernel}x{layer.kernel}) "
                    f"exceeds input {h}x{w}"
                )
            current = (layer.out_maps, h - layer.kernel + 1, w - layer.kernel + 1)
        elif layer.kind == "pool":
            c, h, w = current
            if h % layer.window or w % layer.window:
                raise ShapeInferenceError(
                    f"layer {index} (pool {layer.window}x{layer.window}) "
                    f"does not tile input {h}x{w}"
                )
            current = (c, h // layer.window, w // layer.window)
        elif layer.kind == "fully_connected":
            current = (layer.out_neurons,)
        else:  # relu preserves shape
            pass
        shapes.append(current)
    return shapes


#: Weight-block name prefix per parameterized layer kind (Caffe naming).
_WEIGHT_PREFIXES = {"conv": "conv", "fully_connected": "ip"}


def layer_weights(spec: NetworkSpec) -> list[tuple[str, tuple[int, ...]] | None]:
    """Per layer: its weight block's name (``conv<n>``/``ip<n>``, counting
    each kind from 1) and weight shape, or None for a layer without weights.
    Conv weights are (out_maps, in_channels, k, k), fully-connected weights
    (out_neurons, flattened input size); the bias has one entry per row.
    """
    blocks: list[tuple[str, tuple[int, ...]] | None] = []
    counts = dict.fromkeys(_WEIGHT_PREFIXES, 0)
    for layer, inp in zip(spec.layers, (spec.input_shape, *infer_shapes(spec))):
        if layer.kind == "conv":
            w = (layer.out_maps, inp[0], layer.kernel, layer.kernel)
        elif layer.kind == "fully_connected":
            w = (layer.out_neurons, math.prod(inp))
        else:
            blocks.append(None)
            continue
        counts[layer.kind] += 1
        blocks.append((f"{_WEIGHT_PREFIXES[layer.kind]}{counts[layer.kind]}", w))
    return blocks


def weight_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """``<block>_w``/``<block>_b`` shapes of every :func:`layer_weights`
    block, in layer order (the order weight files are written in)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, w in filter(None, layer_weights(spec)):
        shapes[f"{name}_w"] = w
        shapes[f"{name}_b"] = (w[0],)
    return shapes


def stage_io_shapes(spec: NetworkSpec) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """(input shape, output shape) for each of the five stages."""
    per_layer = infer_shapes(spec)
    result = {}
    for name, start, end in spec.stage_grouping:
        inp = spec.input_shape if start == 0 else per_layer[start - 1]
        result[name] = (inp, per_layer[end - 1])
    return result
