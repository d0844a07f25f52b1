"""In-order command queue with completion events and access statistics.

Three command kinds exist: kernel launches, host<->global memory transfers,
and synchronization markers.  Every command carries a completion event and
an optional wait-list; a command never starts before every event in its
wait-list has fired.  The queue is in-order, so a wait on an event attached
to a later command (or to no command) can never be satisfied and is reported
as a deadlock instead of hanging.

``run`` returns one :class:`CommandRecord` per command: the start order plus
one byte count each way for global memory -- the bytes the command first
touched (the cached-global convention the performance model consumes).
During a kernel every work-item's access to a local, private or constant
region is checked against that item; transfers run as the host.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .kernel import KernelDef, execute_kernel
from .memory import Buffer, GLOBAL, CONSTANT
from .ndrange import NdRange


class QueueError(RuntimeError):
    pass


class QueueDeadlockError(QueueError):
    """Event dependencies cannot be satisfied by in-order execution."""


class Event:
    """Completion event of one command.  It refers to its queue weakly: the
    queue holds its events, and a cycle would keep every buffer of a finished
    run alive until the cyclic GC runs."""

    _next_id = 0

    def __init__(self, queue: "CommandQueue"):
        self._queue = weakref.ref(queue)
        self.id = Event._next_id
        Event._next_id += 1
        self.command_index: int | None = None  # position of the attached command
        self.fired = False

    @property
    def queue(self) -> "CommandQueue | None":
        """The owning queue, or None once it has been freed."""
        return self._queue()

    def __repr__(self):
        return f"Event(id={self.id}, command={self.command_index}, fired={self.fired})"


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
    kind: str  # "kernel" | "write" | "read" | "marker"
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

    # -- events ----------------------------------------------------------

    def reserve_event(self) -> Event:
        """Create an event to attach to a future command (enables wait-lists
        that reference commands not yet enqueued)."""
        return Event(self)

    def _resolve_event(self, event: Event | None) -> Event:
        if event is None:
            return Event(self)
        if event.queue is not self:
            raise QueueError("completion event belongs to a different queue")
        if event.command_index is not None:
            raise QueueError("event is already attached to a command")
        return event

    def _check_waits(self, waits) -> tuple[Event, ...]:
        waits = tuple(waits)
        for ev in waits:
            if not isinstance(ev, Event) or ev.queue is not self:
                raise QueueError(f"wait-list event {ev!r} belongs to a different queue context")
        return waits

    # -- enqueue ---------------------------------------------------------

    def _enqueue(self, kind: str, name: str, waits, event: Event | None,
                 touched=(), **fields) -> Event:
        """Append one command: check its wait-list, attach its completion
        event, and keep the global buffers it touches for byte counting."""
        waits = self._check_waits(waits)
        event = self._resolve_event(event)
        event.command_index = len(self._commands)
        touched = tuple(b for b in touched if b.kind == GLOBAL)
        self._commands.append(_Command(kind, name, waits, event, touched=touched, **fields))
        return event

    def enqueue_kernel(self, kernel: KernelDef, ndrange: NdRange,
                       waits=(), event: Event | None = None) -> Event:
        event = self._enqueue("kernel", kernel.name, waits, event, kernel.bindings.values(),
                              kernel=kernel, ndrange=ndrange)
        for buf in kernel.bindings.values():
            if buf.kind == CONSTANT:
                buf.freeze()
        return event

    def enqueue_write(self, buffer: Buffer, host_data,
                      waits=(), event: Event | None = None) -> Event:
        """Host -> device copy, non-blocking: as with ``clEnqueueWriteBuffer``
        and ``blocking_write=CL_FALSE``, the host must leave ``host_data``
        unchanged until the command's event fires; it is read when the
        command runs, not copied at enqueue time."""
        return self._enqueue("write", f"write:{buffer.name}", waits, event, (buffer,),
                             buffer=buffer, host_data=host_data)

    def enqueue_read(self, buffer: Buffer, waits=(), event: Event | None = None) -> Event:
        """Device -> host copy; the copy lands in the command's record."""
        return self._enqueue("read", f"read:{buffer.name}", waits, event, (buffer,),
                             buffer=buffer)

    def enqueue_marker(self, waits=(), event: Event | None = None) -> Event:
        """Synchronization point; in an in-order queue it fires once every
        earlier command has completed."""
        return self._enqueue("marker", "marker", waits, event)

    # -- execution ---------------------------------------------------------

    def run(self) -> list[CommandRecord]:
        """Execute all commands in order, honoring wait-lists.

        Raises :class:`QueueDeadlockError` when a wait-list references an
        event no earlier command will fire (a dependency cycle, or a reserved
        event that was never attached).
        """
        if self._ran:
            raise QueueError("queue has already run")
        if not self._commands:
            raise QueueError("queue is empty")
        self._ran = True

        records: list[CommandRecord] = []
        for index, cmd in enumerate(self._commands):
            for ev in cmd.waits:
                if not ev.fired:
                    attached = (
                        f"command #{ev.command_index}" if ev.command_index is not None
                        else "no command"
                    )
                    raise QueueDeadlockError(
                        f"command #{index} ({cmd.name}) waits on event {ev.id} "
                        f"attached to {attached}; an in-order queue cannot satisfy it"
                    )
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
                cmd.buffer.write(Ellipsis, cmd.host_data)
            elif cmd.kind == "read":
                record.data = np.array(cmd.buffer.read(Ellipsis), copy=True)
            # markers execute nothing

            for buf in cmd.touched:
                ur, uw = buf.epoch_stats()
                record.unique_bytes_read += ur
                record.unique_bytes_written += uw
            cmd.event.fired = True
            records.append(record)
        return records
