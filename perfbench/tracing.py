"""In-memory span tracer and the per-layer metrics derived from its spans.

Spans are recorded by wrapping kernelpipe's public entry points from here,
never by editing the library.  A span carries a name, start and end
(``perf_counter_ns``), the index of its parent span and a request id.  A
layer's self time is its duration minus the durations of its child spans.

``Buffer.read``/``Buffer.write`` are only counted, and only in a separate
pass of one image: timing 28k tiny calls per image would distort the kernel
times the traced run is for.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import gate
from workloads import CLASSIFY_FORMAT, MODEL_BOARDS as BOARDS, SWEEP_GRID, format_key, qformat_key

STAGES = ("conv_pool1", "conv2", "pool2", "ip1_relu", "ip2")

#: Weight blocks whose dot products the overflow guard covers.
GUARDED_LAYERS = (("conv1_w", "conv1_b"), ("conv2_w", "conv2_b"),
                  ("ip1_w", "ip1_b"), ("ip2_w", "ip2_b"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"ocl.queue_run_ms": "ms", "ocl.transfer_ms": "ms"}
    for stage in STAGES:
        units[f"ocl.kernel_ms.{stage}"] = "ms"
        units[f"ocl.us_per_item.{stage}"] = "us"
    units["ocl.buffer_accesses"] = "count"
    for stage in STAGES:
        units[f"ocl.bytes_read.{stage}"] = "bytes"
        units[f"ocl.bytes_written.{stage}"] = "bytes"
        units[f"ocl.macs.{stage}"] = "count"
    units["ocl.footprint_ratio"] = "ratio"
    for key in (format_key(*f) for f in SWEEP_GRID):
        units[f"pipeline.forward_ms.{key}"] = "ms"
        units[f"pipeline.self_ms.{key}"] = "ms"
        units[f"pipeline.guard_active_stages.{key}"] = "count"
        units[f"pipeline.saturated_outputs.{key}"] = "count"
    units.update({
        "reference.forward_float_ms": "ms",
        "reference.forward_quantized_ms": "ms",
        "sweep.self_ms": "ms",
        "weights.quantize_ms": "ms",
        "ingest.load_weights_ms": "ms",
        "fixtures.generate_ms": "ms",
        "perf.simulate_stream_ms": "ms",
        "perf.stream_frames": "count",
        "perf.bench_table_ms": "ms",
        "perf.estimate_time_calls": "count",
    })
    for stage in STAGES:
        for board in BOARDS:
            units[f"perf.model_ms.{stage}.{board}"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    units["error_rate"] = "ratio"
    return units


class NullTracer:
    """Stands in for a Tracer when the run is untraced."""

    request = None

    def span(self, name):
        return contextlib.nullcontext()

    def install(self, lib):
        pass

    def uninstall(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.request = None
        self.counts: Counter = Counter()
        self.forward_calls: dict[str, dict] = {}
        self.stream_frames: list[int] = []
        self.missing: list[str] = []
        self._lib = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _timed(self, owner, attr, name, on_result=None):
        label = name if callable(name) else (lambda args, _n=name: _n)

        def make(original):
            def wrapper(*args, **kwargs):
                index = self._open(label(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def install(self, lib):
        """Wrap the public entry points of one import of kernelpipe."""
        self._timed(lib.pipeline, "forward",
                    lambda a: "pipeline.forward." + qformat_key(a[1].qformat),
                    self._observe_forward)
        self._timed(lib.ocl.CommandQueue, "run", "ocl.queue.run")
        self._timed(lib.ocl_queue, "execute_kernel", lambda a: "ocl.kernel." + a[0].name)
        self._timed(lib.reference, "forward_float", "reference.forward_float")
        self._timed(lib.reference, "forward_quantized", "reference.forward_quantized")
        self._timed(lib.weights.WeightStore, "quantize", "weights.quantize")
        self._timed(lib.sweep, "sweep_precision", "sweep.sweep_precision")
        self._timed(lib.ingest, "load_weights_text", "ingest.load_weights_text")
        self._timed(lib.perf, "simulate_stream", "perf.simulate_stream",
                    lambda a, k, r: self.stream_frames.append(len(r)))
        self._timed(lib.perf, "estimate_time", "perf.estimate_time")
        self._timed(lib.perf, "render_report", "perf.render_report")
        self._timed(lib.cli, "main", lambda a: "cli." + a[0][0])
        self._lib = lib

    def install_counters(self, lib):
        """Count calls only: Buffer accesses and the forward passes they serve."""
        for owner, attr, key in ((lib.ocl.Buffer, "read", "Buffer.read"),
                                 (lib.ocl.Buffer, "write", "Buffer.write"),
                                 (lib.pipeline, "forward", "pipeline.forward")):
            def make(original, key=key):
                def counter(*args, **kwargs):
                    self.counts[key] += 1
                    return original(*args, **kwargs)
                return counter
            self._patch(owner, attr, make)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _observe_forward(self, args, kwargs, result):
        store = args[1]
        q = store.qformat
        entry = self.forward_calls.get(qformat_key(q))
        if entry is None:
            lib = self._lib
            active = 0
            for wname, bname in GUARDED_LAYERS:
                w, b = getattr(store, wname), getattr(store, bname)
                taps = int(np.prod(w.shape[1:]))
                active += not lib.tensors.accumulation_is_static_safe(
                    taps, int(np.abs(w).max()), int(np.abs(b).max()), q)
            entry = self.forward_calls[qformat_key(q)] = {
                "q": q, "calls": 0, "saturated": 0, "guard_active": active,
                "pool_op": kwargs.get("pool_op", lib.netdef.MAX_POOL),
                "stages": gate.stage_counts(result),
                "items": {s.name: s.output.values.size for s in result.stages},
            }
        entry["calls"] += 1
        entry["saturated"] += sum(
            int(np.count_nonzero((s.output.values <= q.raw_min) | (s.output.values >= q.raw_max)))
            for s in result.stages)

    # -- output ----------------------------------------------------------------

    def aggregate(self) -> dict[str, list]:
        """name -> [calls, total_ns, self_ns]."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = defaultdict(lambda: [0, 0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[index]
        return stats

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0
        rows = [{"name": n, "start_us": (s - t0) / 1e3, "end_us": (e - t0) / 1e3,
                 "parent": p, "request": r} for n, s, e, p, r in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}),
                        encoding="ascii")


def model_ms(lib) -> dict[tuple[str, str], float]:
    """perf.estimate_time for every stage on both boards at Q16.8, mode none."""
    spec = lib.netdef.lenet5_spec()
    q = lib.tensors.QFormat(*CLASSIFY_FORMAT)
    mode = lib.ocl.ParallelMode()
    catalog = lib.perf.platform_catalog()
    return {(stage, board): lib.perf.estimate_time(
                lib.perf.kernel_footprint(spec, stage, q),
                lib.perf.resolve_platform(board, catalog), mode)
            for stage in STAGES for board in BOARDS}


def footprint_ratio(lib, forward_calls) -> float:
    """Measured over analytic bytes and MACs, the ratio furthest from 1 over
    every stage of every format seen; 0 when no kernel ran."""
    ratios = []
    for entry in forward_calls.values():
        spec = lib.netdef.lenet5_spec(entry["pool_op"])
        for stage, measured in entry["stages"].items():
            analytic = gate.footprint_counts(lib.perf.kernel_footprint(spec, stage, entry["q"]))
            ratios += [m / a if a else (1.0 if m == 0 else float("inf"))
                       for m, a in zip(measured, analytic)]
    return max(ratios, key=lambda r: abs(r - 1), default=0.0)


def per_layer_metrics(tracer: Tracer, lib, timed_requests: int,
                      overhead_frac: float, error_rate: float) -> dict[str, float]:
    stats = tracer.aggregate()

    def mean_ms(name, self_time=False):
        calls, total, self_ns = stats.get(name, (0, 0, 0))
        return (self_ns if self_time else total) / calls / 1e6 if calls else 0.0

    values = {}
    runs = stats.get("ocl.queue.run", (0, 0, 0))
    n_runs = runs[0] or 1
    values["ocl.queue_run_ms"] = runs[1] / n_runs / 1e6
    values["ocl.transfer_ms"] = runs[2] / n_runs / 1e6
    items = next((e["items"] for e in tracer.forward_calls.values()), {})
    for stage in STAGES:
        kernel = stats.get(f"ocl.kernel.{stage}", (0, 0, 0))
        values[f"ocl.kernel_ms.{stage}"] = kernel[1] / n_runs / 1e6
        per_call_ms = kernel[1] / kernel[0] / 1e6 if kernel[0] else 0.0
        values[f"ocl.us_per_item.{stage}"] = (per_call_ms * 1e3 / items[stage]
                                              if items.get(stage) else 0.0)
    images = tracer.counts["pipeline.forward"]
    values["ocl.buffer_accesses"] = (
        (tracer.counts["Buffer.read"] + tracer.counts["Buffer.write"]) / images if images else 0.0)
    counted = tracer.forward_calls.get(format_key(*CLASSIFY_FORMAT))
    for stage in STAGES:
        br, bw, macs = counted["stages"][stage] if counted else (0, 0, 0)
        values[f"ocl.bytes_read.{stage}"] = br
        values[f"ocl.bytes_written.{stage}"] = bw
        values[f"ocl.macs.{stage}"] = macs
    values["ocl.footprint_ratio"] = footprint_ratio(lib, tracer.forward_calls)
    for key in (format_key(*f) for f in SWEEP_GRID):
        entry = tracer.forward_calls.get(key)
        values[f"pipeline.forward_ms.{key}"] = mean_ms(f"pipeline.forward.{key}")
        values[f"pipeline.self_ms.{key}"] = mean_ms(f"pipeline.forward.{key}", self_time=True)
        values[f"pipeline.guard_active_stages.{key}"] = entry["guard_active"] if entry else 0
        values[f"pipeline.saturated_outputs.{key}"] = (
            entry["saturated"] / entry["calls"] if entry else 0.0)
    values["reference.forward_float_ms"] = mean_ms("reference.forward_float")
    values["reference.forward_quantized_ms"] = mean_ms("reference.forward_quantized")
    values["sweep.self_ms"] = mean_ms("sweep.sweep_precision", self_time=True)
    values["weights.quantize_ms"] = mean_ms("weights.quantize")
    values["ingest.load_weights_ms"] = mean_ms("ingest.load_weights_text")
    values["fixtures.generate_ms"] = mean_ms("fixtures.generate")
    values["perf.simulate_stream_ms"] = mean_ms("perf.simulate_stream")
    frames = tracer.stream_frames
    values["perf.stream_frames"] = sum(frames) / len(frames) if frames else 0.0
    values["perf.bench_table_ms"] = mean_ms("cli.bench")
    estimate_calls = sum(1 for s in tracer.spans
                         if s[0] == "perf.estimate_time" and isinstance(s[4], int))
    values["perf.estimate_time_calls"] = estimate_calls / timed_requests if timed_requests else 0.0
    for (stage, board), ms in model_ms(lib).items():
        values[f"perf.model_ms.{stage}.{board}"] = ms
    values["trace.overhead_frac"] = overhead_frac
    values["error_rate"] = error_rate
    return values


def self_time_table(tracer: Tracer) -> list[str]:
    """Every span name with its call count, total and self time."""
    lines = [f"{'span':<34}{'calls':>7}{'total_ms':>12}{'self_ms':>12}"]
    for name, (calls, total, self_ns) in sorted(tracer.aggregate().items(),
                                                key=lambda item: -item[1][1]):
        lines.append(f"{name:<34}{calls:>7d}{total / 1e6:>12.3f}{self_ns / 1e6:>12.3f}")
    return lines


def host_vs_model_table(values: dict[str, float], lib) -> list[str]:
    """Per stage: host kernel ms beside measured and analytic MACs and bytes
    and the modeled board time (Q16.8, mode none)."""
    spec = lib.netdef.lenet5_spec()
    q = lib.tensors.QFormat(*CLASSIFY_FORMAT)
    lines = [f"{'stage':<11}{'host_ms':>9}{'us/item':>9}{'macs':>10}{'macs_model':>11}"
             f"{'bytes':>9}{'bytes_model':>12}{'altera_ms':>11}{'xilinx_ms':>11}"]
    for stage in STAGES:
        fp = lib.perf.kernel_footprint(spec, stage, q)
        measured_bytes = values[f"ocl.bytes_read.{stage}"] + values[f"ocl.bytes_written.{stage}"]
        lines.append(
            f"{stage:<11}{values[f'ocl.kernel_ms.{stage}']:>9.3f}"
            f"{values[f'ocl.us_per_item.{stage}']:>9.2f}{values[f'ocl.macs.{stage}']:>10d}"
            f"{fp.macs:>11d}{measured_bytes:>9d}{fp.bytes_read + fp.bytes_written:>12d}"
            f"{values[f'perf.model_ms.{stage}.altera']:>11.4f}"
            f"{values[f'perf.model_ms.{stage}.xilinx']:>11.4f}")
    return lines
