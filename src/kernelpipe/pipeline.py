"""The five pipeline stages as device kernels over the emulated OpenCL model.

Stage I/O always round-trips through global memory: the host transfers the
image and all weights in, each kernel reads global memory, computes, and
writes its outputs back, and consecutive stages are chained in-order through
completion events.  Fixed-point arithmetic matches
:mod:`kernelpipe.reference` bit for bit: exact integer accumulation, bias
aligned by a left shift, one round-to-nearest-even narrowing per output
element, saturation instead of wraparound.

Launch geometry: one work-item per output element.  Each stage's global
size is its output extents from :func:`kernelpipe.netdef.lenet5_spec`, last
axis first.  Only the work-group sizes in :data:`STAGE_LOCAL_SIZES` are
tuning data: each divides its global size, and nothing in the math depends
on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netdef import MAX_POOL, STAGE_NAMES, NetworkSpec, lenet5_spec, stage_io_shapes
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
    logits: np.ndarray        # float64 (dequantized when fixed)
    raw_logits: np.ndarray    # int64 raws, or float64 when running float
    winner: int
    stages: tuple[StageResult, ...]

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def _overflow_check(q: QFormat | None, w: np.ndarray, b: np.ndarray):
    """Per-work-item accumulator-overflow check for a stage whose dot
    products each run over one row of ``w`` (``w[0].size`` taps).

    None when the format and actual weight magnitudes prove overflow
    impossible; otherwise a function that raises
    :class:`~kernelpipe.tensors.FixedPointOverflowError` when the input
    values a work-item read could overflow its accumulator.
    """
    if q is None:
        return None
    taps = w[0].size
    wmax = int(np.abs(w).max(initial=0))
    bmax = int(np.abs(b).max(initial=0))
    if accumulation_is_static_safe(taps, wmax, bmax, q):
        return None
    return lambda x: check_accumulation_bound(taps, int(np.abs(x).max(initial=0)),
                                              wmax, bmax, q)


def _make_conv_pool1(q: QFormat | None, pool_op: str, check):
    frac = q.frac_bits if q else 0

    def body(ctx):
        ox, oy, m = ctx.global_id
        tile = ctx.regions["src"].read((0, slice(2 * oy, 2 * oy + 6),
                                        slice(2 * ox, 2 * ox + 6)))
        w = ctx.regions["wts"].read((m, 0))
        b = ctx.regions["bias"].read(m)
        vals = []
        if q is None:
            for dy in (0, 1):
                for dx in (0, 1):
                    vals.append(float((tile[dy:dy + 5, dx:dx + 5] * w).sum()) + b)
            out = max(vals) if pool_op == MAX_POOL else sum(vals) / 4.0
        else:
            if check:
                check(tile)
            bias = int(b) << frac
            for dy in (0, 1):
                for dx in (0, 1):
                    acc = int((tile[dy:dy + 5, dx:dx + 5] * w).sum()) + bias
                    vals.append(saturate(rshift_round_even(acc, frac), q))
            if pool_op == MAX_POOL:
                out = max(vals)
            else:
                out = saturate(div_round_even(sum(vals), 4), q)
        ctx.regions["dst"].write((m, oy, ox), out)
        ctx.count_macs(len(vals) * w.size)

    return body


def _make_conv2(q: QFormat | None, check):
    frac = q.frac_bits if q else 0

    def body(ctx):
        ox, oy, f = ctx.global_id
        window = ctx.regions["src"].read((slice(None), slice(oy, oy + 5),
                                          slice(ox, ox + 5)))
        w = ctx.regions["wts"].read(f)
        b = ctx.regions["bias"].read(f)
        if q is None:
            out = float((window * w).sum()) + b
        else:
            if check:
                check(window)
            acc = int((window * w).sum()) + (int(b) << frac)
            out = saturate(rshift_round_even(acc, frac), q)
        ctx.regions["dst"].write((f, oy, ox), out)
        ctx.count_macs(w.size)

    return body


def _make_pool2(q: QFormat | None, pool_op: str):
    def body(ctx):
        ox, oy, c = ctx.global_id
        block = ctx.regions["src"].read((c, slice(2 * oy, 2 * oy + 2),
                                         slice(2 * ox, 2 * ox + 2)))
        if pool_op == MAX_POOL:
            out = block.max()
        elif q is None:
            out = float(block.sum()) / 4.0
        else:
            out = saturate(div_round_even(int(block.sum()), 4), q)
        ctx.regions["dst"].write((c, oy, ox), out)

    return body


def _make_fc(q: QFormat | None, relu: bool, check):
    frac = q.frac_bits if q else 0

    def body(ctx):
        (n,) = ctx.global_id
        x = ctx.regions["src"].read(Ellipsis).ravel()
        w = ctx.regions["wts"].read(n)
        b = ctx.regions["bias"].read(n)
        if q is None:
            out = float(np.dot(w, x)) + b
            if relu:
                out = max(0.0, out)
        else:
            if check:
                check(x)
            acc = int(np.dot(w, x)) + (int(b) << frac)
            out = saturate(rshift_round_even(acc, frac), q)
            if relu and out < 0:
                out = 0
        ctx.regions["dst"].write(n, out)
        ctx.count_macs(w.size)

    return body


def forward(image: np.ndarray, store: WeightStore, mode: ParallelMode | None = None,
            pool_op: str = MAX_POOL) -> ForwardResult:
    """Run the five-stage pipeline on one image of the network's input shape.

    A fixed-point store runs the quantized engine; a float64 store runs the
    same kernels in float64.  ``mode`` widens the datapath / replicates CUs;
    it never changes the computed values.
    """
    spec = lenet5_spec(pool_op)
    io = stage_io_shapes(spec)
    mode = mode or ParallelMode()
    image = np.asarray(image, dtype=np.float64)
    in_shape = spec.input_shape.dims
    if image.shape != in_shape:
        raise ValueError(f"image must have shape {in_shape}, got {image.shape}")

    q = store.qformat
    if q is None:
        dtype, ebytes = np.float64, 8
        image_dev = image
    else:
        dtype, ebytes = np.int64, q.element_bytes
        image_dev = quantize_array(image, q)

    def buf(name, shape):
        return Buffer(name, shape, dtype=dtype, element_bytes=ebytes)

    bufs = {"input": buf("input", in_shape)}
    for name, (_, out_shape) in io.items():
        bufs[f"out_{name}"] = buf(f"out_{name}", out_shape.dims)
    for wname, arr in store.arrays().items():
        bufs[wname] = buf(wname, arr.shape)

    kernels = [
        KernelDef("conv_pool1",
                  _make_conv_pool1(q, pool_op, _overflow_check(q, store.conv1_w, store.conv1_b)),
                  mode=mode, bindings={
            "src": bufs["input"], "wts": bufs["conv1_w"], "bias": bufs["conv1_b"],
            "dst": bufs["out_conv_pool1"]}),
        KernelDef("conv2", _make_conv2(q, _overflow_check(q, store.conv2_w, store.conv2_b)),
                  mode=mode, bindings={
            "src": bufs["out_conv_pool1"], "wts": bufs["conv2_w"],
            "bias": bufs["conv2_b"], "dst": bufs["out_conv2"]}),
        KernelDef("pool2", _make_pool2(q, pool_op), mode=mode, bindings={
            "src": bufs["out_conv2"], "dst": bufs["out_pool2"]}),
        KernelDef("ip1_relu",
                  _make_fc(q, relu=True, check=_overflow_check(q, store.ip1_w, store.ip1_b)),
                  mode=mode, bindings={
            "src": bufs["out_pool2"], "wts": bufs["ip1_w"], "bias": bufs["ip1_b"],
            "dst": bufs["out_ip1_relu"]}),
        KernelDef("ip2",
                  _make_fc(q, relu=False, check=_overflow_check(q, store.ip2_w, store.ip2_b)),
                  mode=mode, bindings={
            "src": bufs["out_ip1_relu"], "wts": bufs["ip2_w"], "bias": bufs["ip2_b"],
            "dst": bufs["out_ip2"]}),
    ]

    queue = CommandQueue()
    write_events = [queue.enqueue_write(bufs["input"], image_dev)]
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
    logits = dequantize_array(raw_logits, q) if q else np.array(raw_logits)
    return ForwardResult(
        logits=logits,
        raw_logits=raw_logits,
        winner=winner_digit(raw_logits),
        stages=tuple(stages),
    )
