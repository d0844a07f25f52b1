"""The four memory regions and their visibility rules.

Global memory is visible to every work-item and to the host; access to it is
byte-counted per command (both raw load/store traffic and first-touch unique
bytes, the latter modeling the mandatory caching of global accesses).
Constant memory is host-initialized and frozen once a kernel using it is
enqueued.  Local memory is visible only inside one work-group, private
memory only inside one work-item; any cross-scope touch aborts the kernel
with a violation.

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
    """Identity of whoever touches a region: the host, or one work-item."""

    kind: str  # "host" | "item"
    group_id: tuple[int, ...] | None = None
    item_id: tuple[int, ...] | None = None  # global id


HOST_SCOPE = AccessScope("host")


class RegionAccessViolation(RuntimeError):
    def __init__(self, region: "Buffer", scope: AccessScope, op: str, reason: str):
        self.region = region
        self.scope = scope
        self.op = op
        super().__init__(f"{op} of {region.kind} region {region.name!r} denied: {reason}")


def check_region_access(region: "Buffer", scope: AccessScope, op: str = "read"):
    """Return None if the access is permitted, else the violation.

    Rules: private regions admit only their owning work-item; local regions
    only work-items of the owning group; constant regions are readable by
    anyone but writable only by the host before the first kernel using them
    is enqueued; global regions are unrestricted.
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
        if scope.kind == "item" and scope.group_id == region.owner_group:
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
    held in int64), used for all byte accounting.  Only global regions
    accumulate access statistics.
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
            self.read_bytes = 0
            self.written_bytes = 0
            self._read_mask = np.zeros(shape, dtype=bool)
            self._write_mask = np.zeros(shape, dtype=bool)

    # -- host-side setup -------------------------------------------------

    def host_init(self, values):
        """Uncounted host initialization (use queue transfers for counted copies)."""
        if self.kind == CONSTANT and self.frozen:
            raise RegionAccessViolation(self, HOST_SCOPE, "write",
                                        "constant region is frozen after kernel launch")
        self.array[...] = values

    def freeze(self):
        self.frozen = True

    # -- counted access --------------------------------------------------

    def read(self, key):
        value = self.array[key]
        if self._counted:
            n = value.size if isinstance(value, np.ndarray) else 1
            self.read_bytes += n * self.element_bytes
            self._read_mask[key] = True
        return value

    def write(self, key, value):
        if self._counted:
            target = self.array[key]
            n = target.size if isinstance(target, np.ndarray) else 1
            self.written_bytes += n * self.element_bytes
            self._write_mask[key] = True
        self.array[key] = value

    # -- per-command accounting epochs ------------------------------------

    def begin_epoch(self):
        if not self._counted:
            return
        self.read_bytes = self.written_bytes = 0
        self._read_mask[...] = False
        self._write_mask[...] = False

    def epoch_stats(self):
        """(read, written, unique_read, unique_written) bytes since begin_epoch."""
        if not self._counted:
            return (0, 0, 0, 0)
        return (
            self.read_bytes,
            self.written_bytes,
            int(self._read_mask.sum()) * self.element_bytes,
            int(self._write_mask.sum()) * self.element_bytes,
        )


class RegionHandle:
    """A buffer as seen by one accessor; enforces visibility on every access."""

    __slots__ = ("buffer", "scope")

    def __init__(self, buffer: Buffer, scope: AccessScope):
        self.buffer = buffer
        self.scope = scope

    def read(self, key):
        violation = check_region_access(self.buffer, self.scope, "read")
        if violation is not None:
            raise violation
        return self.buffer.read(key)

    def write(self, key, value):
        violation = check_region_access(self.buffer, self.scope, "write")
        if violation is not None:
            raise violation
        self.buffer.write(key, value)
