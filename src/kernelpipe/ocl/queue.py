"""In-order command queue with completion events and access statistics.

Three command kinds exist: kernel launches, host -> device writes and
device -> host reads of global memory.  Every enqueue returns the new
command's completion event and takes an optional wait-list of events of
earlier commands of the same queue; since the queue is in-order, each of
them has fired by the time the waiting command starts.

``run`` returns one :class:`CommandRecord` per command: the start order plus
one byte count each way for global memory -- the bytes the command first
touched (the cached-global convention the performance model consumes).
During a kernel every work-item's access to a local, private or constant
region is checked against that item; a host write is checked as the host
when it is enqueued.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelDef, execute_kernel
from .memory import Buffer, GLOBAL, CONSTANT, HOST_SCOPE, check_region_access
from .ndrange import NdRange


class QueueError(RuntimeError):
    pass


class Event:
    """Completion event of one command."""

    def __init__(self, command_index: int):
        self.command_index = command_index  # position of the command in its queue
        self.fired = False

    def __repr__(self):
        return f"Event(command={self.command_index}, fired={self.fired})"


@dataclass
class CommandRecord:
    index: int
    kind: str
    name: str
    wait_positions: tuple[int, ...]
    unique_bytes_read: int = 0
    unique_bytes_written: int = 0
    macs: int = 0
    data: np.ndarray | None = None  # device->host reads only


@dataclass
class _Command:
    kind: str  # "kernel" | "write" | "read"
    name: str
    waits: tuple[Event, ...]
    event: Event
    kernel: KernelDef | None = None
    ndrange: NdRange | None = None
    buffer: Buffer | None = None
    host_data: np.ndarray | None = None
    touched: tuple[Buffer, ...] = field(default=())


class CommandQueue:
    """In-order queue over one emulated device.

    Memory-region visibility is enforced on every kernel run.  Datapath
    width is not capped here: the platform's lane budget is a property of
    the board, checked by :func:`kernelpipe.perf.estimate_time`.
    """

    def __init__(self):
        self._commands: list[_Command] = []
        self._ran = False

    def _check_waits(self, waits) -> tuple[Event, ...]:
        """Accept only events of this queue's commands: all of them are
        earlier than the command being enqueued."""
        waits = tuple(waits)
        for ev in waits:
            if not (isinstance(ev, Event) and ev.command_index < len(self._commands)
                    and self._commands[ev.command_index].event is ev):
                raise QueueError(f"wait-list event {ev!r} belongs to a different queue context")
        return waits

    # -- enqueue ---------------------------------------------------------

    def _enqueue(self, kind: str, name: str, waits, touched=(), **fields) -> Event:
        """Append one command: check its wait-list, create its completion
        event, and keep the global buffers it touches for byte counting."""
        waits = self._check_waits(waits)
        event = Event(len(self._commands))
        touched = tuple(b for b in touched if b.kind == GLOBAL)
        self._commands.append(_Command(kind, name, waits, event, touched=touched, **fields))
        return event

    def enqueue_kernel(self, kernel: KernelDef, ndrange: NdRange, waits=()) -> Event:
        event = self._enqueue("kernel", kernel.name, waits, kernel.bindings.values(),
                              kernel=kernel, ndrange=ndrange)
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
        return self._enqueue("write", f"write:{buffer.name}", waits, (buffer,),
                             buffer=buffer, host_data=host_data)

    def enqueue_read(self, buffer: Buffer, waits=()) -> Event:
        """Device -> host copy; the copy lands in the command's record."""
        return self._enqueue("read", f"read:{buffer.name}", waits, (buffer,), buffer=buffer)

    # -- execution ---------------------------------------------------------

    def run(self) -> list[CommandRecord]:
        """Execute all commands in order; every wait has fired by then."""
        if self._ran:
            raise QueueError("queue has already run")
        if not self._commands:
            raise QueueError("queue is empty")
        self._ran = True

        records: list[CommandRecord] = []
        for index, cmd in enumerate(self._commands):
            record = CommandRecord(
                index=index, kind=cmd.kind, name=cmd.name,
                wait_positions=tuple(ev.command_index for ev in cmd.waits),
            )
            for buf in cmd.touched:
                buf.begin_epoch()

            if cmd.kind == "kernel":
                macs = [0]
                execute_kernel(cmd.kernel, cmd.ndrange, macs)
                record.macs = macs[0]
            elif cmd.kind == "write":
                cmd.buffer.transfer_in(cmd.host_data)
            else:
                record.data = np.array(cmd.buffer.read(Ellipsis), copy=True)

            for buf in cmd.touched:
                ur, uw = buf.epoch_stats()
                record.unique_bytes_read += ur
                record.unique_bytes_written += uw
            cmd.event.fired = True
            records.append(record)
        return records
