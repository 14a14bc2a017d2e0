"""Event queue and dispatch loop.

The engine is deliberately minimal: events are ``(time, seq, callback)``
tuples in a heap.  Ties on time break by insertion order (``seq``), which
makes runs with a fixed seed fully deterministic -- a property the
crash-recovery property tests rely on (they re-run the same schedule with a
crash injected at a chosen point and compare states).

The representation is chosen for dispatch throughput: plain tuples
compare in C (no per-event ``__lt__``), scheduling allocates nothing but
the tuple itself, and :meth:`EventEngine.run` pops and dispatches in one
inlined loop.  ``schedule_at``/``schedule_after`` return the event's
``seq`` -- an opaque integer handle.  Cancellation is *lazy*: the handle
goes into a set and the event is dropped when it reaches the top of the
heap.  A long run that cancels far more events than it dispatches (lock
backoff churn, quiesce re-arms) would grow that backlog without bound,
so the engine compacts: when the cancelled backlog passes a threshold
*and* outnumbers the live half of the heap, the heap is rebuilt without
the dead entries (``compactions`` counts how often).  ``pending`` is
O(1): ``len(heap) - len(cancelled)``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from ..errors import InvalidStateError
from .clock import Clock

EventCallback = Callable[[], None]

#: the opaque handle ``schedule_at``/``schedule_after`` return; pass it
#: to :meth:`EventEngine.cancel`
EventHandle = int

#: cancelled-event backlogs smaller than this are never worth compacting
COMPACT_MIN_BACKLOG = 64


def compact_cancelled(heap: list, cancelled: set, force: bool = False) -> bool:
    """Drop the cancelled entries from a ``(time, seq, callback)`` heap.

    The one lazy-cancellation rule of both hosts.  Lazy deletion keeps
    cancel O(1), but a workload that cancels far more than it dispatches
    (backoff churn) would otherwise grow the heap without bound: rebuild
    once the dead entries pass ``COMPACT_MIN_BACKLOG`` *and* outnumber
    the live ones (``force`` skips the test).  Returns whether it
    compacted.

    In place: a dispatch loop holds a local alias to ``heap`` while it
    runs, and a callback may cancel its way into a compaction --
    rebinding the list would leave that loop draining a stale one.  The
    caller serialises access (:class:`~repro.live.scheduler.LiveScheduler`
    holds its lock).
    """
    if not force and (len(cancelled) < COMPACT_MIN_BACKLOG
                      or len(cancelled) * 2 < len(heap)):
        return False
    if cancelled:
        heap[:] = [entry for entry in heap if entry[1] not in cancelled]
        heapify(heap)
        cancelled.clear()
    return True


class EventEngine:
    """A discrete-event loop over a shared :class:`Clock`.

    Satisfies :class:`repro.sim.ports.SchedulerPort` structurally: it is
    the *simulated* host's implementation of the time/scheduling seam
    that :class:`repro.live.scheduler.LiveScheduler` implements on the
    wall clock.  Kernel components hold one of the two and cannot tell
    which.
    """

    __slots__ = ("clock", "_heap", "_seq", "_cancelled", "_running",
                 "_dispatched", "compactions")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        #: (time, seq, callback) tuples; cancelled entries stay until
        #: popped or compacted away
        self._heap: list[tuple[float, int, EventCallback]] = []
        self._seq = 0
        #: seqs of cancelled-but-not-yet-popped events
        self._cancelled: set[int] = set()
        self._running = False
        self._dispatched = 0
        #: times the cancelled backlog was compacted out of the heap
        self.compactions = 0

    # -- scheduling -------------------------------------------------------
    def schedule_at(self, time: float, callback: EventCallback,
                    label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``.

        Returns an opaque handle for :meth:`cancel`.  ``label`` is a
        debugging aid for call sites; the engine does not retain it.
        """
        if time < self.clock._now:
            raise InvalidStateError(
                f"cannot schedule event at {time!r}, already at {self.clock.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (float(time), seq, callback))
        return seq

    def schedule_after(self, delay: float, callback: EventCallback,
                       label: str = "") -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise InvalidStateError(f"delay must be >= 0, got {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.clock._now + delay, seq, callback))
        return seq

    # -- cancellation -------------------------------------------------------
    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event; the engine will skip it.

        Cancelling the same handle twice is a no-op.  Handles of events
        that already fired must not be cancelled (the engine cannot tell
        a fired seq from a live one without paying for it on every
        dispatch; the mistake self-heals at the next compaction or
        :meth:`clear`, but ``pending`` undercounts until then).
        """
        cancelled = self._cancelled
        if handle in cancelled:
            return
        cancelled.add(handle)
        if compact_cancelled(self._heap, cancelled):
            self.compactions += 1

    def compact(self) -> None:
        """Drop every cancelled entry from the heap in one pass."""
        compact_cancelled(self._heap, self._cancelled, force=True)
        self.compactions += 1

    # -- introspection ------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1))."""
        return len(self._heap) - len(self._cancelled)

    @property
    def dispatched(self) -> int:
        """Number of events executed so far."""
        return self._dispatched

    @property
    def now(self) -> float:
        return self.clock.now

    # -- running ------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next event.  Returns False when the queue is empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq, callback = heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.clock.advance_to(time)
            self._dispatched += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue empties, ``until`` is reached, or the budget
        of ``max_events`` dispatches is exhausted.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so measurement windows have a
        well-defined width.
        """
        if self._running:
            raise InvalidStateError("engine is already running (no re-entrancy)")
        self._running = True
        heap = self._heap
        cancelled = self._cancelled
        clock = self.clock
        dispatched = 0
        try:
            if until is None and max_events is None:
                # The hot path: no per-event budget tests.  The clock
                # write is a bare assignment -- heap order plus the
                # schedule-time monotonicity check make it safe.
                while heap:
                    time, seq, callback = heappop(heap)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
                    clock._now = time
                    dispatched += 1
                    callback()
            else:
                while heap:
                    entry = heap[0]
                    if cancelled and entry[1] in cancelled:
                        heappop(heap)
                        cancelled.discard(entry[1])
                        continue
                    if until is not None and entry[0] > until:
                        break
                    if max_events is not None and dispatched >= max_events:
                        break
                    heappop(heap)
                    clock._now = entry[0]
                    dispatched += 1
                    entry[2]()
            if until is not None and until > clock._now:
                clock.advance_to(until)
        finally:
            self._dispatched += dispatched
            self._running = False

    def clear(self) -> None:
        """Drop all pending events (used when a crash is injected)."""
        self._heap.clear()
        self._cancelled.clear()
