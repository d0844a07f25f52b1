"""In-order command queue whose completion events are its command records.

Three command kinds exist: kernel launches, host -> device writes and
device -> host reads of global memory.  Every enqueue returns the new
command's :class:`Event` and takes an optional wait-list of events of
earlier commands of the same queue; since the queue is in-order, each of
them has fired by the time the waiting command starts.

An event is its command's record, as a ``cl_event`` is the host's handle on
its command: ``run`` fires the events in order and returns them, each
holding the command's MACs, a read's data and one byte count each way for
global memory -- the bytes the command first touched (the cached-global
convention the performance model consumes) in any global buffer, bound or
not.  ``run`` opens one ``memory.touches`` record per command, which each
global access marks as it happens, and closes it when the command ends or
aborts.  During a kernel every work-item's access to a local, private or
constant region is checked against that item; a host write is checked as
the host when it is enqueued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelDef, execute_kernel
from . import memory
from .memory import Buffer, CONSTANT, HOST_SCOPE, check_region_access
from .ndrange import NdRange


class QueueError(RuntimeError):
    pass


@dataclass(eq=False, repr=False)
class Event:
    """One queued command and its completion event.  A kernel launch holds
    its kernel and NDRange, a transfer its buffer and, for a write, the host
    data; ``run`` fills the counters below and sets ``fired``."""

    command_index: int  # position of the command in its queue
    kind: str  # "kernel" | "write" | "read"
    name: str
    waits: tuple[Event, ...]
    kernel: KernelDef | None = None
    ndrange: NdRange | None = None
    buffer: Buffer | None = None
    host_data: np.ndarray | None = None
    fired: bool = False
    unique_bytes_read: int = 0
    unique_bytes_written: int = 0
    macs: int = 0
    data: np.ndarray | None = None  # device->host reads only

    @property
    def wait_positions(self) -> tuple[int, ...]:
        return tuple(ev.command_index for ev in self.waits)

    def __repr__(self):
        return f"Event(command={self.command_index}, fired={self.fired})"


class CommandQueue:
    """In-order queue over one emulated device.

    Memory-region visibility is enforced on every kernel run.  Datapath
    width is not capped here: the platform's lane budget is a property of
    the board, checked by :func:`kernelpipe.perf.estimate_time`.
    """

    def __init__(self):
        self._events: list[Event] = []
        self._ran = False

    # -- enqueue ---------------------------------------------------------

    def _enqueue(self, kind: str, name: str, waits, **fields) -> Event:
        """Append one command's event after checking its wait-list: only
        events of this queue's commands, all earlier than this one, are
        accepted."""
        waits = tuple(waits)
        for ev in waits:
            if not (isinstance(ev, Event) and ev.command_index < len(self._events)
                    and self._events[ev.command_index] is ev):
                raise QueueError(f"wait-list event {ev!r} belongs to a different queue context")
        event = Event(len(self._events), kind, name, waits, **fields)
        self._events.append(event)
        return event

    def enqueue_kernel(self, kernel: KernelDef, ndrange: NdRange, waits=()) -> Event:
        event = self._enqueue("kernel", kernel.name, waits, kernel=kernel, ndrange=ndrange)
        for buf in kernel.bindings.values():
            if buf.kind == CONSTANT:
                buf.freeze()
        return event

    def enqueue_write(self, buffer: Buffer, host_data, waits=()) -> Event:
        """Host -> device copy, non-blocking: as with ``clEnqueueWriteBuffer``
        and ``blocking_write=CL_FALSE``, the host must leave ``host_data``
        unchanged until the command's event fires; it is read when the
        command runs, not copied at enqueue time.  The host's access is
        checked here, once: a constant region a kernel enqueued earlier
        binds is frozen, but one that only later kernels bind is not, since
        the in-order queue runs this copy before them."""
        violation = check_region_access(buffer, HOST_SCOPE, "write")
        if violation is not None:
            raise violation
        return self._enqueue("write", f"write:{buffer.name}", waits, buffer=buffer,
                             host_data=host_data)

    def enqueue_read(self, buffer: Buffer, waits=()) -> Event:
        """Device -> host copy; the copy lands in the event's ``data``."""
        return self._enqueue("read", f"read:{buffer.name}", waits, buffer=buffer)

    # -- execution ---------------------------------------------------------

    def run(self) -> list[Event]:
        """Execute all commands in order, firing each one's event; every
        wait has fired by then.  Returns the events in command order."""
        if self._ran:
            raise QueueError("queue has already run")
        if not self._events:
            raise QueueError("queue is empty")
        self._ran = True

        try:
            for ev in self._events:
                memory.touches = record = {}
                if ev.kind == "kernel":
                    ev.macs = execute_kernel(ev.kernel, ev.ndrange)
                elif ev.kind == "write":
                    ev.buffer.transfer_in(ev.host_data)
                else:
                    ev.data = np.array(ev.buffer.read(Ellipsis), copy=True)

                nbytes = {"read": 0, "write": 0}
                for (buf, op), seen in record.items():
                    count = buf.array.size if seen is True else int(np.count_nonzero(seen))
                    nbytes[op] += count * buf.element_bytes
                ev.unique_bytes_read, ev.unique_bytes_written = nbytes["read"], nbytes["write"]
                ev.fired = True
        finally:
            memory.touches = None
        return list(self._events)
