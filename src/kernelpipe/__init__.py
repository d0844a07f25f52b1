"""Five-kernel digit-classification pipeline on an emulated OpenCL device,
with fixed-point quantization and an analytic FPGA platform comparison."""

from .tensors import QFormat, Tensor, DEFAULT_QFORMAT
from .netdef import lenet5_spec, infer_shapes, NetworkSpec, STAGE_NAMES
from .weights import WeightStore, WEIGHT_SHAPES
from .pipeline import forward, ForwardResult, StageResult
from .reference import forward_float, forward_quantized, winner_digit
from .ocl import ParallelMode, NdRange, CommandQueue, KernelDef, Buffer
from .perf import (
    platform_catalog,
    resolve_platform,
    kernel_footprint,
    estimate_time,
    estimate_resources,
    signed_acceleration,
    pipes_required,
    pipes_feasible,
    simulate_stream,
    render_report,
)
from .sweep import sweep_precision, default_sweep_grid

__version__ = "0.1.0"
