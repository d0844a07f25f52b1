"""The four memory regions and their visibility rules.

Global memory is visible to every work-item and to the host; each command
counts the bytes it first touches in every global buffer, bound or not,
as each access marks :data:`touches` (one read and one written count,
modeling the mandatory caching of global accesses).  Constant memory is
readable by all; only the host writes it, and only until a kernel using it
is enqueued.  Local memory is visible only inside one work-group, private
memory only inside one work-item.  Every read and write of a non-global
region is checked against :data:`current_accessor` -- the running
work-item, or work-group of a lockstep body, during a kernel, the host
otherwise -- so a reference kept past its scope, or a buffer closed over
by a kernel body, is checked too; a denied access raises
:class:`RegionAccessViolation` and aborts the kernel.

Kernels read and write regions through ``read``/``write`` with numpy-style
keys; block reads return views, so by contract kernels mutate buffers only
through ``write``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GLOBAL = "global"
CONSTANT = "constant"
LOCAL = "local"
PRIVATE = "private"


@dataclass(frozen=True)
class AccessScope:
    """Identity of whoever touches a region: the host, one work-item, or a
    whole work-group running a lockstep body (``item_id`` None)."""

    kind: str  # "host" | "item" | "group"
    group_id: tuple[int, ...] | None = None
    item_id: tuple[int, ...] | None = None  # global id


HOST_SCOPE = AccessScope("host")

#: Who is touching memory now: the host outside a kernel, the running
#: work-item or lockstep work-group inside one (set by ``execute_kernel``;
#: not thread-safe).
current_accessor = HOST_SCOPE

#: The running command's first-touch record, None outside a command (set by
#: ``CommandQueue.run``; not thread-safe): (global buffer, "read" | "write")
#: -> True once the whole region was touched, else a mask of touched elements.
touches = None


class RegionAccessViolation(RuntimeError):
    def __init__(self, region: "Buffer", scope: AccessScope, op: str, reason: str):
        self.region = region
        self.scope = scope
        self.op = op
        super().__init__(f"{op} of {region.kind} region {region.name!r} denied: {reason}")


def check_region_access(region: "Buffer", scope: AccessScope, op: str = "read"):
    """Return None if the access is permitted, else the violation.

    Rules: private regions admit only their owning work-item; local regions
    only the owning group, per item or in lockstep; constant regions are
    readable by anyone but writable only by the host before the first
    kernel using them is enqueued; global regions are unrestricted.
    """
    if region.kind == GLOBAL:
        return None
    if region.kind == CONSTANT:
        if op == "read":
            return None
        if scope.kind == "host" and not region.frozen:
            return None
        reason = (
            "constant region is frozen after kernel launch"
            if scope.kind == "host"
            else "work-items may not write constant memory"
        )
        return RegionAccessViolation(region, scope, op, reason)
    if region.kind == LOCAL:
        if scope.kind != "host" and scope.group_id == region.owner_group:
            return None
        return RegionAccessViolation(
            region, scope, op, f"local region belongs to group {region.owner_group}"
        )
    if region.kind == PRIVATE:
        if scope.kind == "item" and scope.item_id == region.owner_item:
            return None
        return RegionAccessViolation(
            region, scope, op, f"private region belongs to work-item {region.owner_item}"
        )
    raise ValueError(f"unknown region kind {region.kind!r}")


class Buffer:
    """A memory region backed by a numpy array.

    ``element_bytes`` is the modeled storage width (e.g. 2 for Q16.8 raws
    held in int64), used for byte accounting.  A global region marks each
    access in the running command's :data:`touches` record, whether or not
    the command binds it; every other region checks each access against
    :data:`current_accessor`.
    """

    def __init__(self, name, shape, kind=GLOBAL, dtype=np.int64, element_bytes=None,
                 owner_group=None, owner_item=None):
        self.name = name
        self.kind = kind
        self.array = np.zeros(shape, dtype=dtype)
        self.element_bytes = int(
            element_bytes if element_bytes is not None else self.array.dtype.itemsize
        )
        self.owner_group = owner_group
        self.owner_item = owner_item
        self.frozen = False  # constant regions only

    def _access(self, op: str, key):
        """Check a non-global access against :data:`current_accessor`; mark a
        global one in the running command's :data:`touches`, if any."""
        if self.kind != GLOBAL:
            violation = check_region_access(self, current_accessor, op)
            if violation is not None:
                raise violation
        elif touches is not None:
            seen = touches.get((self, op))
            if key is Ellipsis or seen is True:
                touches[self, op] = True
                return
            if seen is None:
                seen = touches[self, op] = np.zeros(self.array.shape, dtype=bool)
            seen[key] = True

    def freeze(self):
        self.frozen = True

    def transfer_in(self, values):
        """A queued host -> device copy of the whole region, counted like any
        global write; the queue checked the host's access at enqueue."""
        if self.kind == GLOBAL and touches is not None:
            touches[self, "write"] = True
        self.array[...] = values

    def read(self, key):
        self._access("read", key)
        return self.array[key]

    def write(self, key, value):
        self._access("write", key)
        self.array[key] = value
