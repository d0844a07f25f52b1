"""Kernel definitions and work-item execution.

A kernel body is a host-registered Python callable invoked once per
work-item with a :class:`WorkItemCtx`.  A plain function runs straight
through; a generator function may ``yield`` at any point, and every
``yield`` is a work-group barrier: no work-item of the group proceeds past
it until all have reached it.  Items of a group advance in lexicographic
local-id order between barriers, so execution is fully deterministic.

Parallelism modes (none / unroll / simd) plus the compute-unit replication
count never change computed values; they widen the modeled datapath (lanes)
and, for multiple CUs, permute the order work-groups are scheduled in.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import memory
from .memory import Buffer, PRIVATE, AccessScope, LOCAL
from .ndrange import NdRange

MODE_NONE = "none"
MODE_UNROLL = "unroll"
MODE_SIMD = "simd"

#: Element types a local or private region may have.
REGION_DTYPES = (np.int64, np.float64)


class BarrierDivergenceError(RuntimeError):
    """A barrier was reached by only a subset of a work-group's items."""


@dataclass(frozen=True)
class ParallelMode:
    """How a kernel's datapath is widened.

    ``amount`` is the unroll factor or SIMD width; ``cu_count`` replicates
    the whole compute unit.  Lanes (the compute-throughput multiplier) come
    from the mode only; CU replication multiplies global-memory contention
    instead.
    """

    kind: str = MODE_NONE
    amount: int = 1
    cu_count: int = 1

    def __post_init__(self):
        if self.kind not in (MODE_NONE, MODE_UNROLL, MODE_SIMD):
            raise ValueError(f"unknown parallelism mode {self.kind!r}")
        if self.amount < 1 or self.cu_count < 1:
            raise ValueError("unroll factor / simd width / cu_count must be >= 1")
        if self.kind == MODE_NONE and self.amount != 1:
            raise ValueError("mode 'none' has no width")

    @property
    def lanes(self) -> int:
        return 1 if self.kind == MODE_NONE else self.amount

    def __str__(self):
        base = self.kind if self.kind == MODE_NONE else f"{self.kind}({self.amount})"
        return base if self.cu_count == 1 else f"{base}x{self.cu_count}cu"


@dataclass
class KernelDef:
    """A named body plus its region bindings and parallelism mode.

    ``bindings`` maps region names to global/constant buffers shared by all
    work-items.  ``local_specs``/``private_specs`` map names to
    ``(element count, dtype)`` pairs, allocated fresh per work-group / per
    work-item; like OpenCL ``__local`` and ``__private`` arrays, each region
    has one element type, int64 or float64.  A region name may appear in
    only one of the three.
    """

    name: str
    body: object
    bindings: dict[str, Buffer] = field(default_factory=dict)
    local_specs: dict[str, tuple[int, type]] = field(default_factory=dict)
    private_specs: dict[str, tuple[int, type]] = field(default_factory=dict)
    mode: ParallelMode = field(default_factory=ParallelMode)

    def __post_init__(self):
        for name, buf in self.bindings.items():
            if not isinstance(buf, Buffer):
                raise TypeError(f"binding {name!r} is not a Buffer")
            if buf.kind in (LOCAL, PRIVATE):
                raise ValueError(
                    f"binding {name!r}: local/private regions are declared via specs"
                )
        seen = set(self.bindings)
        for kind, specs in (("local", self.local_specs), ("private", self.private_specs)):
            for name, spec in specs.items():
                if name in seen:
                    raise ValueError(f"{kind} region {name!r} is declared more than once")
                seen.add(name)
                if not (isinstance(spec, tuple) and len(spec) == 2):
                    raise ValueError(f"{kind} region {name!r}: spec must be "
                                     f"(element count, dtype), got {spec!r}")
                count, dtype = spec
                positive_int = (isinstance(count, (int, np.integer))
                                and not isinstance(count, bool) and count >= 1)
                if not positive_int:
                    raise ValueError(f"{kind} region {name!r}: element count must be "
                                     f"a positive int, got {count!r}")
                if dtype not in REGION_DTYPES:
                    raise ValueError(f"{kind} region {name!r}: dtype must be int64 or "
                                     f"float64, got {dtype!r}")


class WorkItemCtx:
    """Per-work-item view: ids, visible regions, and a MAC counter."""

    __slots__ = ("global_id", "local_id", "group_id", "regions", "_macs")

    def __init__(self, global_id, local_id, group_id, regions, macs):
        self.global_id = global_id
        self.local_id = local_id
        self.group_id = group_id
        self.regions = regions
        self._macs = macs

    def count_macs(self, n: int):
        self._macs[0] += n


def group_schedule(nd: NdRange, cu_count: int) -> list[tuple[int, ...]]:
    """Work-group execution order under ``cu_count`` compute units.

    Groups are partitioned contiguously across CUs and executed in
    round-robin rounds, emulating replicated CUs draining their shares in
    lockstep.  With one CU this is plain lexicographic order.
    """
    groups = list(nd.group_ids())
    if cu_count <= 1 or len(groups) <= 1:
        return groups
    per_cu = -(-len(groups) // cu_count)  # ceil
    shares = [groups[k * per_cu:(k + 1) * per_cu] for k in range(cu_count)]
    order = []
    for round_idx in range(per_cu):
        for share in shares:
            if round_idx < len(share):
                order.append(share[round_idx])
    return order


def execute_kernel(kdef: KernelDef, nd: NdRange, macs: list):
    """Run every work-item of the NDRange; returns nothing, mutates buffers.

    Each body call and each barrier phase runs with
    ``memory.current_accessor`` set to its work-item, so every local,
    private and constant access is checked against it; the previous
    accessor is restored on return and on abort.
    """
    previous = memory.current_accessor
    try:
        for group_id in group_schedule(nd, kdef.mode.cu_count):
            regions = dict(kdef.bindings)
            for name, (count, dtype) in kdef.local_specs.items():
                regions[name] = Buffer(name, count, kind=LOCAL, dtype=dtype,
                                       owner_group=group_id)
            # A plain body runs to completion when called; a generator body
            # returns a generator whose every yield is a barrier: advance all
            # items one phase at a time and require them to agree on every
            # barrier.
            alive = []
            for local_id in nd.local_ids():
                gid = nd.global_id(group_id, local_id)
                item_regions = dict(regions)
                for name, (count, dtype) in kdef.private_specs.items():
                    item_regions[name] = Buffer(name, count, kind=PRIVATE, dtype=dtype,
                                                owner_item=gid)
                scope = memory.current_accessor = AccessScope("item", group_id, gid)
                gen = kdef.body(WorkItemCtx(gid, local_id, group_id, item_regions, macs))
                if inspect.isgenerator(gen):
                    alive.append((scope, gen))
            while alive:
                at_barrier = []
                for scope, gen in alive:
                    memory.current_accessor = scope
                    try:
                        next(gen)
                        at_barrier.append((scope, gen))
                    except StopIteration:
                        pass
                if at_barrier and len(at_barrier) < len(alive):
                    raise BarrierDivergenceError(
                        f"kernel {kdef.name!r} group {group_id}: "
                        f"{len(at_barrier)} of {len(alive)} items reached the barrier"
                    )
                alive = at_barrier
    finally:
        memory.current_accessor = previous
