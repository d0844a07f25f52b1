"""The five pipeline stages as device kernels over the emulated OpenCL model.

:func:`forward_batch` runs a batch of images on one command queue, as the
paper streams images through weights held in on-board memory: every buffer
has a leading batch axis and each stage launches once for the whole batch.
:func:`forward` is a batch of one.  As in the paper's host program, the
stages are set up one at a time: each creates its output buffer, then its
weight and bias buffers and their transfers if it has them, and enqueues
its kernel to wait on those transfers and on the previous stage's kernel
(the first stage's on the input transfer).  Stage I/O always round-trips
through global memory.  Each stage's counters are its kernel event's:
weights and biases are first-touched once per command, activations and MACs
once per image (:func:`kernelpipe.perf.kernel_footprint` with
``batch``).  The engine runs fixed-point weight stores only; float64
results come from :func:`kernelpipe.reference.forward_float`.  Its arithmetic
matches :func:`kernelpipe.reference.forward_quantized` bit for bit: exact
accumulation, bias aligned by a left shift and added in int64, one
round-to-nearest-even narrowing per output element, saturation instead of
wraparound.  Every weighted stage runs its dot products in float64, which
reaches BLAS: it decides once per forward, from the format and its weight
block's largest magnitude (:func:`~kernelpipe.tensors.float_limb_bits`),
how wide a limb of its input may be for every limb's dot to be exact in
float64.  After the overflow check it splits its input into those limbs
(one limb, the input itself, for every stage of Q8 to Q24 with the
synthetic weights), stacks them along the image axis, makes one product,
and joins the limbs' dots with shifts in int64.  Each weight buffer and
conv local region is float64: the transfer casts the raws, and each conv
group's one staging write casts the stage input's limbs.

Geometry and weights come from :mod:`kernelpipe.netdef`: each kernel takes
its conv kernel edge (stride 1) and its pool window and op (non-overlapping)
from its stage's layers, and reads the weight block that
:func:`~kernelpipe.netdef.layer_weights` gives the stage's first layer.
Launch geometry: one work-item per output map (20 / 50 / 50 / 1 / 1), which
it computes for every image of the batch.  Each body runs a work-group in
lockstep, one lane per item, as the paper's processing units share one
widened datapath.  A conv stage runs in work-groups of 10 (2 and 5 groups)
that share one local region, as the paper's processing units share
BlockRAM: the group reads the batch's stage input from global memory once,
runs the overflow check and stages its windows with one strided copy as a
(taps, limbs x images x positions) im2col matrix; after a barrier it reduces
it with its lanes' filters in one product, joins the limbs and narrows once.
pool2 is one work-group of 50 lanes.  The overflow check runs per image in
batch order, so a batch raises at the first stage where some image fails,
with the message :func:`forward` gives for the first such image alone.
Compute-unit replication reorders a stage's groups only when some unit gets
two or more: conv2's five under two to four units; no other stage has more
than two groups.
Pooling takes one strided slice per window offset, and a fully-connected
layer is one matrix product over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .netdef import MAX_POOL, LayerSpec, NetworkSpec, layer_weights, lenet5_spec, stage_io_shapes
from .ocl import Buffer, CommandQueue, KernelDef, NdRange, ParallelMode
from .reference import winner_digit
from .tensors import (
    QFormat,
    Tensor,
    accumulation_is_static_safe,
    check_accumulation_bound,
    dequantize_array,
    div_round_even_array,
    float_limb_bits,
    join_limbs,
    limb_count,
    narrow_array,
    quantize_array,
    split_limbs,
)
from .weights import WeightStore


#: Work-items per work-group of a conv stage (shrunk to divide its map count).
CONV_GROUP_SIZE = 10

#: Most images one engine batch should hold: it caps conv2's local region,
#: which staging fills in one copy with no full-size temporary beside it, at
#: 32 x 32,000 float64 elements per limb (8 MB at one limb, 16 MB at the two
#: of Q32.16 and Q32.24 with the synthetic weights, 24 MB at most).
BATCH_SIZE = 32


def stage_ndranges(spec: NetworkSpec) -> dict[str, NdRange]:
    """Each stage's launch space: one work-item per output plane (a
    fully-connected output vector is one plane).  A conv stage's items share
    one staged input per work-group of ``gcd(maps, CONV_GROUP_SIZE)``; every
    other stage is one work-group."""
    result = {}
    io = stage_io_shapes(spec)
    for name, start, _ in spec.stage_grouping:
        items = math.prod(io[name][1][:-2])
        group = math.gcd(items, CONV_GROUP_SIZE) if spec.layers[start].kind == "conv" else items
        result[name] = NdRange((items,), (group,))
    return result


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


def _overflow_check(q: QFormat, taps: int, wmax: int, bmax: int):
    """Accumulator-overflow check for a stage whose dot products each run
    over ``taps`` weights of magnitude up to ``wmax``, plus a bias up to
    ``bmax``.

    None when the format and actual weight magnitudes prove overflow
    impossible; otherwise a function that takes the input values a kernel
    read (once per conv work-group, once per fully-connected work-item),
    batch axis first, and raises
    :class:`~kernelpipe.tensors.FixedPointOverflowError` for the first
    image, in batch order, whose values could overflow an accumulator.
    """
    if accumulation_is_static_safe(taps, wmax, bmax, q):
        return None

    def check(x):
        for amax in np.abs(x).reshape(len(x), -1).max(axis=1):
            check_accumulation_bound(taps, int(amax), wmax, bmax, q)

    return check


def _pool_plane(pool: LayerSpec, q: QFormat):
    """Pool the trailing (H, W) planes, which the window tiles, with one
    strided slice per window offset: the slices' max, or their sum's
    round-to-nearest-even average saturated to ``q``."""
    size = pool.window
    area = size * size

    def reduce(plane):
        views = [plane[..., dy::size, dx::size] for dy in range(size) for dx in range(size)]
        if pool.pool_op == MAX_POOL:
            return np.maximum.reduce(views)
        return np.clip(div_round_even_array(sum(views), area), q.raw_min, q.raw_max)

    return reduce


def _make_conv(layers, inp: tuple[int, ...], batch: int, q: QFormat, check, limb_bits):
    """Stride-1 valid convolution, fused with pooling when the stage has a
    pool layer.  Each work-group reads the whole batch's input once, splits
    it into limbs of ``limb_bits`` bits and copies their k x k windows into
    the float64 local region ``cols`` of shape (C, k, k, limbs x images, oh,
    ow), a (taps, -1) matrix of one column per limb, image and position;
    after the barrier, lane m reduces them with filter m (all lanes in one
    product), joins the limbs, adds bias m in int64, narrows its conv maps,
    pools them if fused, and writes output map m of every image."""
    pool = _pool_plane(layers[1], q) if len(layers) > 1 else None
    frac = q.frac_bits
    k = layers[0].kernel
    oh, ow = (n - k + 1 for n in inp[1:])
    taps = inp[0] * k * k
    limbs = limb_count(limb_bits, q.total_bits)

    def body(ctx):
        m = ctx.global_ids[:, 0]  # each lane's output map
        cols = ctx.regions["cols"]
        x = ctx.regions["src"].read(Ellipsis)
        if check:
            check(x)
        x = split_limbs(x, limb_bits, q.total_bits).reshape(limbs * batch, *inp)
        windows = sliding_window_view(x, (k, k), axis=(2, 3))  # (limbs x images, C, oh, ow, k, k)
        cols.write(Ellipsis, windows.transpose(1, 4, 5, 0, 2, 3))
        yield
        w = ctx.regions["wts"].read(m).reshape(len(m), taps)
        parts = (w @ cols.read(Ellipsis).reshape(taps, -1)).astype(np.int64)
        conv = join_limbs(parts.reshape(len(m), limbs, -1).swapaxes(0, 1), limb_bits)
        conv = narrow_array(conv + (ctx.regions["bias"].read(m)[:, None] << frac), q)
        conv = conv.reshape(len(m), batch, oh, ow)
        ctx.regions["dst"].write((slice(None), m), (pool(conv) if pool else conv).swapaxes(0, 1))
        ctx.count_macs(conv.size * taps)

    return body, {"cols": ((inp[0], k, k, limbs * batch, oh, ow), np.float64)}


def _make_pool(layers, inp: tuple[int, ...], batch: int, q: QFormat, check, limb_bits):
    (pool,) = layers
    reduce = _pool_plane(pool, q)

    def body(ctx):
        key = (slice(None), *ctx.global_ids.T)  # each lane's map
        ctx.regions["dst"].write(key, reduce(ctx.regions["src"].read(key)))

    return body, {}


def _make_fc(layers, inp: tuple[int, ...], batch: int, q: QFormat, check, limb_bits):
    """The whole fully-connected layer as one work-item: the batch's input
    split into limbs of ``limb_bits`` bits, one float64 matrix product over
    limbs x images, the limbs joined and the bias added in int64, one
    narrowing, then ReLU when the stage has it."""
    relu = layers[-1].kind == "relu"
    frac = q.frac_bits
    limbs = limb_count(limb_bits, q.total_bits)

    def body(ctx):
        x = ctx.regions["src"].read(Ellipsis).reshape(batch, -1)
        w = ctx.regions["wts"].read(Ellipsis)
        b = ctx.regions["bias"].read(Ellipsis)
        if check:
            check(x)
        x = split_limbs(x, limb_bits, q.total_bits).reshape(limbs * batch, -1)
        parts = (x.astype(np.float64) @ w.T).astype(np.int64)
        out = narrow_array(join_limbs(parts.reshape(limbs, batch, -1), limb_bits) + (b << frac), q)
        ctx.regions["dst"].write(Ellipsis, np.maximum(out, 0) if relu else out)
        ctx.count_macs(batch * w.size)

    return body, {}


#: Kernel factory ``(stage layers, one image's stage input shape, batch size,
#: format, overflow check, activation limb width) -> (body, local region
#: (shape, dtype) specs)`` per kind of a stage's first layer.
_KERNEL_FACTORIES = {"conv": _make_conv, "pool": _make_pool, "fully_connected": _make_fc}


def forward(image: np.ndarray, store: WeightStore, mode: ParallelMode | None = None,
            pool_op: str = MAX_POOL) -> ForwardResult:
    """Run the five-stage pipeline on one image of the network's input
    shape: :func:`forward_batch` of a batch of one."""
    return forward_batch([image], store, mode, pool_op)[0]


def forward_batch(images, store: WeightStore, mode: ParallelMode | None = None,
                  pool_op: str = MAX_POOL) -> list[ForwardResult]:
    """Run the five-stage pipeline on a non-empty batch of images of the
    network's input shape, on one queue: one weight upload and one launch
    per stage.  Returns one result per image, in order; each stage result
    carries its batch command's counters.

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
    in_shape = spec.input_shape
    images = [np.asarray(image, dtype=np.float64) for image in images]
    if not images:
        raise ValueError("at least one image is required")
    for image in images:
        if image.shape != in_shape:
            raise ValueError(f"image must have shape {in_shape}, got {image.shape}")
    batch = len(images)

    def buf(name, shape, dtype=np.int64):
        return Buffer(name, shape, dtype=dtype, element_bytes=q.element_bytes)

    arrays, blocks, ndranges = store.arrays(), layer_weights(spec), stage_ndranges(spec)
    queue = CommandQueue()
    src = buf("input", (batch, *in_shape))
    done = queue.enqueue_write(src, quantize_array(np.stack(images), q))
    kernels = []  # each stage's kernel event, in stage order
    for name, start, end in spec.stage_grouping:
        bindings = {"src": src, "dst": buf(f"out_{name}", (batch, *io[name][1]))}
        waits = [done]
        check, limb_bits = None, None
        if blocks[start]:  # a stage's weighted layer is its first
            block, _ = blocks[start]
            wname, bname = f"{block}_w", f"{block}_b"
            taps, wmax = arrays[wname][0].size, store.abs_max[wname]
            check = _overflow_check(q, taps, wmax, store.abs_max[bname])
            limb_bits = float_limb_bits(taps, wmax, q)
            bindings.update(wts=buf(wname, arrays[wname].shape, np.float64),
                            bias=buf(bname, arrays[bname].shape))
            waits += [queue.enqueue_write(bindings["wts"], arrays[wname]),
                      queue.enqueue_write(bindings["bias"], arrays[bname])]
        body, local_specs = _KERNEL_FACTORIES[spec.layers[start].kind](
            spec.layers[start:end], io[name][0], batch, q, check, limb_bits)
        kernel = KernelDef(name, body, mode=mode, bindings=bindings, local_specs=local_specs,
                           lockstep=True)
        done = queue.enqueue_kernel(kernel, ndranges[name], waits=waits)
        kernels.append(done)
        src = bindings["dst"]
    read = queue.enqueue_read(src, waits=[done])
    queue.run()
    raw_logits = read.data
    return [
        ForwardResult(
            logits=dequantize_array(raw_logits[i], q),
            raw_logits=raw_logits[i],
            winner=winner_digit(raw_logits[i]),
            stages=tuple(
                StageResult(ev.name, Tensor(ev.kernel.bindings["dst"].array[i], q),
                            ev.unique_bytes_read, ev.unique_bytes_written, ev.macs)
                for ev in kernels
            ),
        )
        for i in range(batch)
    ]
