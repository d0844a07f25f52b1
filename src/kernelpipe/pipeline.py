"""The five pipeline stages as device kernels over the emulated OpenCL model.

Stage I/O always round-trips through global memory: the host transfers the
image and all weights in, each kernel reads global memory, computes, and
writes its outputs back, and consecutive stages are chained in-order through
completion events.  The engine runs fixed-point weight stores only; float64
results come from :func:`kernelpipe.reference.forward_float`.  Its arithmetic
matches :func:`kernelpipe.reference.forward_quantized` bit for bit: exact
integer accumulation, bias aligned by a left shift, one round-to-nearest-even
narrowing per output element, saturation instead of wraparound.

Geometry comes from :func:`kernelpipe.netdef.lenet5_spec`: each kernel takes
its conv kernel edge and pool window, stride and op from its stage's layers.
Launch geometry: one work-item per output element; each stage's global size
is its output extents, last axis first.  Only the work-group sizes in
:data:`STAGE_LOCAL_SIZES` are tuning data: each divides its global size, and
nothing in the math depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netdef import MAX_POOL, STAGE_NAMES, LayerSpec, NetworkSpec, lenet5_spec, stage_io_shapes
from .ocl import Buffer, CommandQueue, KernelDef, NdRange, ParallelMode
from .reference import winner_digit
from .tensors import (
    QFormat,
    Tensor,
    accumulation_is_static_safe,
    check_accumulation_bound,
    dequantize_array,
    div_round_even,
    quantize_array,
    rshift_round_even,
    saturate,
)
from .weights import WeightStore

#: Work-group size per stage: the only launch tuning data.
STAGE_LOCAL_SIZES = {
    "conv_pool1": (4, 4, 1),
    "conv2": (4, 4, 1),
    "pool2": (4, 4, 1),
    "ip1_relu": (20,),
    "ip2": (10,),
}


def stage_ndranges(spec: NetworkSpec) -> dict[str, NdRange]:
    """Each stage's launch space: its output extents, last axis first, as
    the global size and :data:`STAGE_LOCAL_SIZES` as the work-group size."""
    return {name: NdRange(out.dims[::-1], STAGE_LOCAL_SIZES[name])
            for name, (_, out) in stage_io_shapes(spec).items()}


@dataclass(frozen=True)
class StageResult:
    """One kernel's output plus its measured global-memory footprint.

    Byte counts use the cached-global convention: first-touch unique bytes
    per kernel, matching the analytic footprints of the performance model.
    """

    name: str
    output: Tensor
    bytes_read: int
    bytes_written: int
    macs: int


@dataclass(frozen=True)
class ForwardResult:
    logits: np.ndarray        # float64, dequantized from raw_logits
    raw_logits: np.ndarray    # int64 raws
    winner: int
    stages: tuple[StageResult, ...]

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def _overflow_check(q: QFormat, w: np.ndarray, b: np.ndarray):
    """Per-work-item accumulator-overflow check for a stage whose dot
    products each run over one row of ``w`` (``w[0].size`` taps).

    None when the format and actual weight magnitudes prove overflow
    impossible; otherwise a function that raises
    :class:`~kernelpipe.tensors.FixedPointOverflowError` when the input
    values a work-item read could overflow its accumulator.
    """
    taps = w[0].size
    wmax = int(np.abs(w).max(initial=0))
    bmax = int(np.abs(b).max(initial=0))
    if accumulation_is_static_safe(taps, wmax, bmax, q):
        return None
    return lambda x: check_accumulation_bound(taps, int(np.abs(x).max(initial=0)),
                                              wmax, bmax, q)


def _pool_step(pool: LayerSpec, q: QFormat):
    """Reduce one pooling window's values: their max, or their
    round-to-nearest-even average saturated to ``q``."""
    if pool.pool_op == MAX_POOL:
        return max
    area = pool.window * pool.window
    return lambda vals: saturate(div_round_even(sum(vals), area), q)


def _make_conv_pool1(layers, q: QFormat, check):
    """Stride-1 valid convolution fused with pooling: each work-item reads
    the input tile under one pooling window and narrows each conv output
    before pooling it."""
    conv, pool = layers
    k = conv.kernel
    stride, edge = pool.stride, pool.window - 1 + k
    offsets = [(dy, dx) for dy in range(pool.window) for dx in range(pool.window)]
    reduce = _pool_step(pool, q)
    frac = q.frac_bits

    def body(ctx):
        ox, oy, m = ctx.global_id
        tile = ctx.regions["src"].read((0, slice(stride * oy, stride * oy + edge),
                                        slice(stride * ox, stride * ox + edge)))
        w = ctx.regions["wts"].read((m, 0))
        b = ctx.regions["bias"].read(m)
        if check:
            check(tile)
        bias = int(b) << frac
        vals = []
        for dy, dx in offsets:
            acc = int((tile[dy:dy + k, dx:dx + k] * w).sum()) + bias
            vals.append(saturate(rshift_round_even(acc, frac), q))
        ctx.regions["dst"].write((m, oy, ox), reduce(vals))
        ctx.count_macs(len(vals) * w.size)

    return body


def _make_conv2(layers, q: QFormat, check):
    (conv,) = layers
    k, frac = conv.kernel, q.frac_bits

    def body(ctx):
        ox, oy, f = ctx.global_id
        window = ctx.regions["src"].read((slice(None), slice(oy, oy + k),
                                          slice(ox, ox + k)))
        w = ctx.regions["wts"].read(f)
        b = ctx.regions["bias"].read(f)
        if check:
            check(window)
        acc = int((window * w).sum()) + (int(b) << frac)
        ctx.regions["dst"].write((f, oy, ox), saturate(rshift_round_even(acc, frac), q))
        ctx.count_macs(w.size)

    return body


def _make_pool2(layers, q: QFormat, check):
    (pool,) = layers
    stride, size = pool.stride, pool.window
    reduce = _pool_step(pool, q)

    def body(ctx):
        ox, oy, c = ctx.global_id
        block = ctx.regions["src"].read((c, slice(stride * oy, stride * oy + size),
                                         slice(stride * ox, stride * ox + size)))
        ctx.regions["dst"].write((c, oy, ox), reduce(block.ravel().tolist()))

    return body


def _make_fc(layers, q: QFormat, check):
    relu = layers[-1].kind == "relu"
    frac = q.frac_bits

    def body(ctx):
        (n,) = ctx.global_id
        x = ctx.regions["src"].read(Ellipsis).ravel()
        w = ctx.regions["wts"].read(n)
        b = ctx.regions["bias"].read(n)
        if check:
            check(x)
        acc = int(np.dot(w, x)) + (int(b) << frac)
        out = saturate(rshift_round_even(acc, frac), q)
        if relu and out < 0:
            out = 0
        ctx.regions["dst"].write(n, out)
        ctx.count_macs(w.size)

    return body


#: Per stage: kernel factory ``(stage layers, format, overflow check) -> body``
#: and the weight block the kernel reads (None: no weights, no check).
_STAGE_KERNELS = {
    "conv_pool1": (_make_conv_pool1, "conv1"),
    "conv2": (_make_conv2, "conv2"),
    "pool2": (_make_pool2, None),
    "ip1_relu": (_make_fc, "ip1"),
    "ip2": (_make_fc, "ip2"),
}


def forward(image: np.ndarray, store: WeightStore, mode: ParallelMode | None = None,
            pool_op: str = MAX_POOL) -> ForwardResult:
    """Run the five-stage pipeline on one image of the network's input shape.

    ``store`` must be fixed-point; float64 results come from
    :func:`kernelpipe.reference.forward_float`.  ``mode`` widens the
    datapath / replicates CUs; it never changes the computed values.
    """
    q = store.qformat
    if q is None:
        raise ValueError("the engine runs fixed-point only: quantize the weight store first")
    spec = lenet5_spec(pool_op)
    io = stage_io_shapes(spec)
    mode = mode or ParallelMode()
    image = np.asarray(image, dtype=np.float64)
    in_shape = spec.input_shape.dims
    if image.shape != in_shape:
        raise ValueError(f"image must have shape {in_shape}, got {image.shape}")

    def buf(name, shape):
        return Buffer(name, shape, dtype=np.int64, element_bytes=q.element_bytes)

    bufs = {"input": buf("input", in_shape)}
    for name, (_, out_shape) in io.items():
        bufs[f"out_{name}"] = buf(f"out_{name}", out_shape.dims)
    for wname, arr in store.arrays().items():
        bufs[wname] = buf(wname, arr.shape)

    kernels = []
    src = bufs["input"]
    for name in STAGE_NAMES:
        make, block = _STAGE_KERNELS[name]
        bindings = {"src": src, "dst": bufs[f"out_{name}"]}
        check = None
        if block:
            bindings.update(wts=bufs[f"{block}_w"], bias=bufs[f"{block}_b"])
            check = _overflow_check(q, getattr(store, f"{block}_w"),
                                    getattr(store, f"{block}_b"))
        body = make(spec.stage_layers(name), q, check)
        kernels.append(KernelDef(name, body, mode=mode, bindings=bindings))
        src = bindings["dst"]

    queue = CommandQueue()
    write_events = [queue.enqueue_write(bufs["input"], quantize_array(image, q))]
    for wname, arr in store.arrays().items():
        write_events.append(queue.enqueue_write(bufs[wname], arr))

    ndranges = stage_ndranges(spec)
    waits = write_events
    for kernel in kernels:
        ev = queue.enqueue_kernel(kernel, ndranges[kernel.name], waits=waits)
        waits = [ev]
    queue.enqueue_read(bufs["out_ip2"], waits=waits)

    records = {rec.name: rec for rec in queue.run()}

    stages = []
    for name in STAGE_NAMES:
        rec = records[name]
        out = np.array(bufs[f"out_{name}"].array)
        stages.append(StageResult(
            name=name,
            output=Tensor(io[name][1], out, q),
            bytes_read=rec.unique_bytes_read,
            bytes_written=rec.unique_bytes_written,
            macs=rec.macs,
        ))

    raw_logits = np.array(bufs["out_ip2"].array)
    return ForwardResult(
        logits=dequantize_array(raw_logits, q),
        raw_logits=raw_logits,
        winner=winner_digit(raw_logits),
        stages=tuple(stages),
    )
