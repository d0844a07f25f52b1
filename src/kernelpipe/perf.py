"""Analytic timing and resource model for the two FPGA platforms.

Timing is a roofline: per-kernel time is the larger of a compute term
(MACs over datapath lanes at the compute clock) and a memory term (bytes
over effective DDR bandwidth).  Widening the datapath (unroll / SIMD)
shrinks only the compute term, so every kernel saturates at its memory bound
once enough lanes are thrown at it.  Replicating compute units divides the
usable bandwidth instead of adding lanes, which is exactly why it never
beats SIMD here.

Resource growth is declared config data (per-stage base plus per-lane
increment), not a fitted model: absolute logic/DSP/BRAM counts are toolchain
artifacts this model does not claim to predict, only their growth trend.
:func:`apply_config` overrides board fields and coefficients from one
key=value dict; it is the only reader of those keys.

The acceleration convention between the two boards is a signed
slower-over-faster ratio, negative when the second platform is the slower
one, truncated toward zero to two decimals; the percent form is
(|ratio| - 1) * 100 with the ratio's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from .netdef import STAGE_NAMES, NetworkSpec, infer_shapes, layer_weights, stage_io_shapes
from .ocl import ParallelMode
from .tensors import QFormat

MODE_ORDER = ("none", "unroll", "simd")

ALTERA = "stratixV_gxa7_de5"
XILINX = "virtex7_690t_7v3"

_PLATFORM_ALIASES = {"altera": ALTERA, "stratix": ALTERA, "xilinx": XILINX, "virtex": XILINX}


@dataclass(frozen=True)
class PlatformConfig:
    """One board: compute clock, DDR interface, and resource capacities.

    ``dsp_capacity`` for the Stratix V counts its 256 27x27 multipliers; its
    512 narrower 18x18 multipliers are not modeled.
    """

    name: str
    compute_clock_hz: float
    ddr_transfer_rate_mt: float  # mega-transfers per second
    ddr_bus_bytes: int
    ddr_efficiency: float
    logic_capacity_k: float
    dsp_capacity: int
    bram_capacity_kb: float
    lane_budget: int = 4096

    def __post_init__(self):
        for attr in ("compute_clock_hz", "ddr_transfer_rate_mt", "ddr_bus_bytes",
                     "logic_capacity_k", "dsp_capacity", "bram_capacity_kb", "lane_budget"):
            if not 0 < getattr(self, attr) < math.inf:
                raise ValueError(f"{attr} must be positive and finite")
        if not 0 < self.ddr_efficiency <= 1:
            raise ValueError("ddr_efficiency must be in (0, 1]")

    @property
    def effective_bandwidth(self) -> float:
        """Sustained DDR bytes/second."""
        return self.ddr_transfer_rate_mt * 1e6 * self.ddr_bus_bytes * self.ddr_efficiency


#: Each board field's declared type, which a config override converts to.
_PLATFORM_FIELD_TYPES = get_type_hints(PlatformConfig)


def platform_catalog() -> dict[str, PlatformConfig]:
    """The two boards, as the model defaults them (see :func:`apply_config`
    for overrides).

    DDR rates come from the boards (800 vs 1333 MT/s); the 200 MHz compute
    clock and 0.7 controller efficiency are documented model defaults, not
    board data.
    """
    return {
        ALTERA: PlatformConfig(
            name=ALTERA,
            compute_clock_hz=200e6,
            ddr_transfer_rate_mt=800,
            ddr_bus_bytes=8,
            ddr_efficiency=0.7,
            logic_capacity_k=622.0,
            dsp_capacity=256,
            bram_capacity_kb=50 * 1024,  # 50 Mbit of M20K
        ),
        XILINX: PlatformConfig(
            name=XILINX,
            compute_clock_hz=200e6,
            ddr_transfer_rate_mt=1333,
            ddr_bus_bytes=8,
            ddr_efficiency=0.7,
            logic_capacity_k=693.12,
            dsp_capacity=3600,
            bram_capacity_kb=52920,
        ),
    }


def resolve_platform(name: str, catalog: dict[str, PlatformConfig] | None = None) -> PlatformConfig:
    catalog = catalog or platform_catalog()
    key = _PLATFORM_ALIASES.get(name.lower(), name)
    for cname, cfg in catalog.items():
        if cname.lower() == key.lower():
            return cfg
    raise KeyError(f"unknown platform {name!r}; known: {sorted(catalog)}")


# -- footprints ---------------------------------------------------------------


@dataclass(frozen=True)
class KernelFootprint:
    stage: str
    macs: int
    bytes_read: int
    bytes_written: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


def pipeline_footprints(spec: NetworkSpec, q: QFormat,
                        batch: int = 1) -> list[KernelFootprint]:
    """Analytic MAC and byte counts for each pipeline stage, in order, run on
    ``batch`` images in one command.

    Bytes follow the cached-global convention: each input and weight element
    is fetched once, each output element written once, at the format's
    storage width.  Weights and biases are fetched once per command;
    activations and MACs scale with ``batch``.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    io, outs, blocks = stage_io_shapes(spec), infer_shapes(spec), layer_weights(spec)
    width = q.element_bytes
    footprints = []
    for stage, start, end in spec.stage_grouping:
        # each output element is one dot product over a weight row; the bias
        # adds one element per row
        macs = weight_elems = 0
        for index in range(start, end):
            if blocks[index]:
                _, w = blocks[index]
                macs += math.prod(outs[index]) * math.prod(w[1:])
                weight_elems += math.prod(w) + w[0]
        in_shape, out_shape = io[stage]
        footprints.append(KernelFootprint(
            stage=stage,
            macs=macs * batch,
            bytes_read=(math.prod(in_shape) * batch + weight_elems) * width,
            bytes_written=math.prod(out_shape) * batch * width,
        ))
    return footprints


def kernel_footprint(spec: NetworkSpec, stage: str, q: QFormat,
                     batch: int = 1) -> KernelFootprint:
    """One stage's entry of :func:`pipeline_footprints`."""
    if stage not in STAGE_NAMES:
        raise KeyError(f"unknown stage {stage!r}")
    return pipeline_footprints(spec, q, batch)[STAGE_NAMES.index(stage)]


# -- roofline timing -----------------------------------------------------------


def estimate_time(fp: KernelFootprint, platform: PlatformConfig,
                  mode: ParallelMode) -> float:
    """Roofline stage time in milliseconds.

    t = max(macs / (lanes * clock), bytes / (bandwidth / cu_count)): lanes
    speed up compute only, CU replication multiplies memory contention only.
    """
    if mode.lanes > platform.lane_budget:
        raise ValueError(
            f"{mode.lanes} lanes exceed platform budget {platform.lane_budget}")
    compute_s = fp.macs / (mode.lanes * platform.compute_clock_hz)
    memory_s = fp.total_bytes / (platform.effective_bandwidth / mode.cu_count)
    return max(compute_s, memory_s) * 1e3


def saturation_lanes(fp: KernelFootprint, platform: PlatformConfig) -> int:
    """Lane count beyond which the memory term dominates and time is flat."""
    memory_s = fp.total_bytes / platform.effective_bandwidth
    if memory_s == 0 or fp.macs == 0:
        return 1
    return max(1, math.ceil(fp.macs / (platform.compute_clock_hz * memory_s)))


# -- resource growth -----------------------------------------------------------

#: Per-stage (base, per-lane increment) for each metric.  Declared data,
#: chosen so the relative orderings (conv kernels heaviest, growth with
#: parallelism) match observed trends; not a synthesis predictor.
DEFAULT_RESOURCE_COEFFS = {
    "conv_pool1": {"logic_k": (5.0, 0.8), "dsp": (11, 2), "bram_kb": (180, 36)},
    "conv2": {"logic_k": (5.0, 0.8), "dsp": (11, 2), "bram_kb": (108, 36)},
    "pool2": {"logic_k": (3.0, 0.3), "dsp": (4, 1), "bram_kb": (72, 18)},
    "ip1_relu": {"logic_k": (4.2, 0.5), "dsp": (11, 1), "bram_kb": (72, 9)},
    "ip2": {"logic_k": (4.0, 0.4), "dsp": (9, 1), "bram_kb": (72, 9)},
}

_METRIC_CAPACITY = {"logic_k": "logic_capacity_k", "dsp": "dsp_capacity",
                    "bram_kb": "bram_capacity_kb"}


@dataclass(frozen=True)
class ResourceEstimate:
    stage: str
    logic_k: float
    dsp: float
    bram_kb: float
    over_capacity: bool = False


def resource_coeffs() -> dict:
    """A mutable copy of the default coefficients."""
    return {stage: dict(metrics) for stage, metrics in DEFAULT_RESOURCE_COEFFS.items()}


def apply_config(config: dict[str, str]) -> tuple[dict[str, PlatformConfig], dict]:
    """The platform catalog and resource coefficients with a key=value config
    applied: ``platform.<board>.<field>`` sets a numeric board field, as its
    declared type, and ``coeff.<stage>.<metric>.<base|per_lane>`` a
    coefficient.  Any other key is a ``KeyError``; a value that does not
    convert, is not finite or is rejected by the board is a ``ValueError``
    naming its key."""
    catalog, coeffs = platform_catalog(), resource_coeffs()
    for key, value in config.items():
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "platform":
            _, board, attr = parts
            if board not in catalog:
                raise KeyError(f"unknown platform {board!r} in config")
            kind = _PLATFORM_FIELD_TYPES.get(attr)
            if kind not in (int, float):
                raise KeyError(f"{key!r} is not a numeric platform field")
        elif (len(parts) == 4 and parts[0] == "coeff" and parts[1] in coeffs
              and parts[2] in coeffs[parts[1]] and parts[3] in ("base", "per_lane")):
            kind = float
        else:
            raise KeyError(f"unknown config key {key!r}")
        try:
            number = kind(value)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected {kind.__name__}, got {value!r}") from None
        if parts[0] == "platform":
            try:
                catalog[board] = replace(catalog[board], **{attr: number})
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        elif not math.isfinite(number):
            raise ValueError(f"coefficient {key!r} must be finite, got {value!r}")
        else:
            _, stage, metric, which = parts
            base, inc = coeffs[stage][metric]
            coeffs[stage][metric] = (number, inc) if which == "base" else (base, number)
    return catalog, coeffs


def estimate_resources(stage: str, mode: ParallelMode, coeffs: dict | None = None,
                       platform: PlatformConfig | None = None) -> ResourceEstimate:
    """base + increment * (lanes - 1) per metric, clamped at platform
    capacity with an over-capacity flag (never an error)."""
    coeffs = coeffs or DEFAULT_RESOURCE_COEFFS
    if stage not in coeffs:
        raise KeyError(f"no resource coefficients for stage {stage!r}")
    lanes = mode.lanes
    values = {}
    over = False
    for metric, (base, inc) in coeffs[stage].items():
        value = base + inc * (lanes - 1)
        if platform is not None:
            cap = getattr(platform, _METRIC_CAPACITY[metric])
            if value > cap:
                value = cap
                over = True
        values[metric] = value
    return ResourceEstimate(stage=stage, over_capacity=over, **values)


# -- acceleration --------------------------------------------------------------


def signed_acceleration(t_first_ms: float, t_second_ms: float) -> tuple[float, int]:
    """Signed slower-over-faster ratio between two times, and its percent form.

    Positive when the first time is the larger (slower) one, negative
    otherwise.  The ratio is truncated toward zero to two decimals
    (3.594 -> 3.59); percent = sign * (|ratio| - 1) * 100.
    """
    if t_first_ms <= 0 or t_second_ms <= 0:
        raise ValueError("times must be positive")
    if t_first_ms >= t_second_ms:
        sign, r = 1, t_first_ms / t_second_ms
    else:
        sign, r = -1, t_second_ms / t_first_ms
    # round before flooring so a binary-representation hair below an exact
    # hundredth does not truncate to the previous one
    magnitude = math.floor(round(r * 100, 6)) / 100
    percent = sign * int(round((magnitude - 1) * 100))
    return sign * magnitude, percent


@dataclass(frozen=True)
class BenchRecord:
    """Per-kernel measurements, three entries per metric in none/unroll/simd order."""

    kernel: str
    times_ms: tuple[float, float, float]
    logic_k: tuple[float, float, float]
    dsp: tuple[float, float, float]
    bram_kb: tuple[float, float, float]

    def __post_init__(self):
        for attr in ("times_ms", "logic_k", "dsp", "bram_kb"):
            vals = tuple(float(v) for v in getattr(self, attr))
            if len(vals) != 3:
                raise ValueError(f"{attr} needs one entry per mode {MODE_ORDER}")
            object.__setattr__(self, attr, vals)


@dataclass(frozen=True)
class AccelRecord:
    kernel: str
    ratios: tuple[float, float, float]
    percents: tuple[int, int, int]


def acceleration_table(first: list[BenchRecord], second: list[BenchRecord]) -> list[AccelRecord]:
    """Signed acceleration of ``first`` vs ``second``, kernel by kernel."""
    by_name = {rec.kernel: rec for rec in second}
    if {r.kernel for r in first} != set(by_name):
        raise ValueError("kernel sets differ between the two platforms")
    table = []
    for rec in first:
        other = by_name[rec.kernel]
        pairs = [signed_acceleration(a, b) for a, b in zip(rec.times_ms, other.times_ms)]
        table.append(AccelRecord(
            kernel=rec.kernel,
            ratios=tuple(p[0] for p in pairs),
            percents=tuple(p[1] for p in pairs),
        ))
    return table


# -- streaming ------------------------------------------------------------------


def simulate_stream(service_ms: float, capture_interval_ms: float,
                    n_frames: int) -> np.ndarray:
    """Per-frame latency of a single-server frame queue, in closed form.

    Frames arrive every ``capture_interval_ms``; each takes ``service_ms``.
    Frame i waits i * max(0, service - interval), so its latency is
    service + i * max(0, service - interval): it climbs without bound when
    service exceeds the interval and is exactly the service time otherwise.
    Every latency takes the same few roundings whatever the frame count, so
    none drifts as frames accumulate.
    """
    if not (0 < service_ms < math.inf and 0 < capture_interval_ms < math.inf
            and n_frames > 0):
        raise ValueError("service, interval and frame count must be positive and finite")
    # built in place: no temporary array the size of the result
    latencies = np.arange(n_frames, dtype=np.float64)
    latencies *= max(0.0, service_ms - capture_interval_ms)
    latencies += service_ms
    return latencies


def stream_verdict(latencies: np.ndarray) -> str:
    """"growing" when the last latency exceeds the first, else "constant"."""
    return "growing" if len(latencies) >= 2 and latencies[-1] > latencies[0] else "constant"


# -- report rendering ------------------------------------------------------------


def _cells(values, fmt: str) -> str:
    return "/".join(fmt % v for v in values)


def render_report(records_by_platform: dict[str, list[BenchRecord]],
                  accel: list[AccelRecord] | None = None) -> str:
    """Text report: per-platform kernel tables (cells are none/unroll/simd),
    then the signed acceleration table when records for two platforms and an
    acceleration table are supplied."""
    if not records_by_platform or not any(records_by_platform.values()):
        raise ValueError("no records to render")
    kernel_sets = {name: tuple(r.kernel for r in recs)
                   for name, recs in records_by_platform.items()}
    if len({frozenset(v) for v in kernel_sets.values()}) != 1:
        raise ValueError("kernel sets differ across platforms")

    lines = []
    header = f"{'kernel':<12} {'time_ms':>20} {'logic_k':>18} {'dsp':>12} {'bram_kb':>15}"
    for platform, recs in records_by_platform.items():
        lines.append(f"== {platform} (none/unroll/simd) ==")
        lines.append(header)
        for rec in recs:
            lines.append(
                f"{rec.kernel:<12} {_cells(rec.times_ms, '%.2f'):>20} "
                f"{_cells(rec.logic_k, '%.4g'):>18} {_cells(rec.dsp, '%.4g'):>12} "
                f"{_cells(rec.bram_kb, '%.5g'):>15}"
            )
        lines.append("")

    if accel is not None:
        lines.append("== acceleration (positive: first platform slower) ==")
        lines.append(f"{'kernel':<12} {'ratio':>20} {'percent':>18}")
        for rec in accel:
            lines.append(
                f"{rec.kernel:<12} {_cells(rec.ratios, '%.2f'):>20} "
                f"{'/'.join(str(p) for p in rec.percents):>18}"
            )
    elif len(records_by_platform) == 1:
        lines.append("single platform: acceleration table omitted")
    return "\n".join(lines) + "\n"


def pipes_required(in_maps: int, out_maps: int) -> int:
    """Point-to-point FIFO channels needed to connect every producer map to
    every consumer map directly in fabric, bypassing global memory."""
    if in_maps < 1 or out_maps < 1:
        raise ValueError("map counts must be >= 1")
    return in_maps * out_maps


@dataclass(frozen=True)
class PipesFeasibility:
    feasible: bool
    required_kb: float


def pipes_feasible(count: int, fifo_kb_each: float, platform: PlatformConfig) -> PipesFeasibility:
    if count < 0:
        raise ValueError("pipe count must be >= 0")
    required = count * fifo_kb_each
    return PipesFeasibility(feasible=required <= platform.bram_capacity_kb, required_kb=required)
