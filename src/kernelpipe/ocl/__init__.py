"""Emulated OpenCL platform, execution and memory models.

The device is a hierarchy of compute units and processing elements only in
the cost model's eyes; functionally this package executes kernels as host
Python callables over an NDRange index space, each body run per work-item
or per work-group with its items in lockstep, with the four memory regions
(global / constant / local / private), their visibility rules, and an
in-order command queue that gives each command one completion event.  The
event is the command's record: once the queue has run it holds the bytes
the command first touched in every global buffer its body touched, bound or
not, its MACs and a read's data.  Every local, private and constant access
is checked against the running work-item (or lockstep work-group), or the
host outside a kernel.
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
    WorkGroupCtx,
    BarrierDivergenceError,
    MODE_NONE,
    MODE_UNROLL,
    MODE_SIMD,
)
from .queue import CommandQueue, Event, QueueError

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
    "WorkGroupCtx",
    "BarrierDivergenceError",
    "MODE_NONE",
    "MODE_UNROLL",
    "MODE_SIMD",
    "CommandQueue",
    "Event",
    "QueueError",
]
