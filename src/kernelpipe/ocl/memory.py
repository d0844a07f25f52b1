"""The four memory regions and their visibility rules.

Global memory is visible to every work-item and to the host; each command
counts the bytes it first touches there (one read and one written count,
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
    held in int64), used for byte accounting.  Global regions count
    first-touch bytes; every other region checks each access against
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
        self._counted = kind == GLOBAL
        if self._counted:
            self._read_mask = np.zeros(shape, dtype=bool)
            self._write_mask = np.zeros(shape, dtype=bool)

    def _check(self, op: str):
        violation = check_region_access(self, current_accessor, op)
        if violation is not None:
            raise violation

    def freeze(self):
        self.frozen = True

    def transfer_in(self, values):
        """A queued host -> device copy of the whole region, counted like any
        global write; the queue checked the host's access at enqueue."""
        if self._counted:
            self._write_mask[...] = True
        self.array[...] = values

    # -- checked, counted access -------------------------------------------

    def read(self, key):
        if self._counted:
            self._read_mask[key] = True
        else:
            self._check("read")
        return self.array[key]

    def write(self, key, value):
        if self._counted:
            self._write_mask[key] = True
        else:
            self._check("write")
        self.array[key] = value

    # -- per-command accounting epochs ------------------------------------

    def begin_epoch(self):
        if self._counted:
            self._read_mask[...] = False
            self._write_mask[...] = False

    def epoch_stats(self):
        """(unique read, unique written) bytes since begin_epoch."""
        if not self._counted:
            return (0, 0)
        return (int(np.count_nonzero(self._read_mask)) * self.element_bytes,
                int(np.count_nonzero(self._write_mask)) * self.element_bytes)
