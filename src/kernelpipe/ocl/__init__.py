"""Emulated OpenCL platform, execution and memory models.

The device is a hierarchy of compute units and processing elements only in
the cost model's eyes; functionally this package executes kernels as host
Python callables over an NDRange index space, with the four memory regions
(global / constant / local / private), their visibility rules, and an
in-order event-driven command queue.  Every local, private and constant
access is checked against the running work-item, or the host outside a
kernel; each command reports the global bytes it first touched.
"""

from .ndrange import NdRange
from .memory import (
    Buffer,
    GLOBAL,
    CONSTANT,
    LOCAL,
    PRIVATE,
    AccessScope,
    RegionAccessViolation,
    check_region_access,
)
from .kernel import (
    ParallelMode,
    KernelDef,
    WorkItemCtx,
    BarrierDivergenceError,
    MODE_NONE,
    MODE_UNROLL,
    MODE_SIMD,
)
from .queue import CommandQueue, CommandRecord, Event, QueueDeadlockError, QueueError

__all__ = [
    "NdRange",
    "Buffer",
    "GLOBAL",
    "CONSTANT",
    "LOCAL",
    "PRIVATE",
    "AccessScope",
    "RegionAccessViolation",
    "check_region_access",
    "ParallelMode",
    "KernelDef",
    "WorkItemCtx",
    "BarrierDivergenceError",
    "MODE_NONE",
    "MODE_UNROLL",
    "MODE_SIMD",
    "CommandQueue",
    "CommandRecord",
    "Event",
    "QueueDeadlockError",
    "QueueError",
]
