"""A wall-clock :class:`~repro.sim.ports.SchedulerPort` that also serves sockets.

The discrete-event engine gives the kernel a strong property for free:
callbacks run one at a time, in timestamp order, on one logical thread.
The transaction manager, WAL, and checkpointers are written against that
property -- they share mutable state with no locks.  ``LiveScheduler``
preserves it on the wall clock: a single dispatcher thread owns a heap
of ``(time, seq, callback)`` entries (the engine's representation) and
one :mod:`selectors` selector.  Each turn of its loop waits in one
``select`` until the earliest entry is due or a watched file is ready,
runs the ready files' callbacks (the server's sockets: see
:meth:`~LiveScheduler.watch`), then every entry that is due.
Everything the kernel does -- transaction execution, WAL appends, group
flushes, checkpoint phase transitions, and every socket read and reply
-- happens on that thread.  The other threads (the checkpoint image
writer, a caller blocked in :meth:`~LiveScheduler.wait`) interact only
by scheduling callbacks; one that schedules a new earliest entry while
the loop sleeps in ``select`` writes a byte to a socket pair the
selector watches, which wakes it.

``schedule_at``/``schedule_after`` are thread-safe and may be called
from any thread, including from inside a dispatched callback.
Cancellation is lazy and compacts through the engine's own
:func:`~repro.sim.engine.compact_cancelled`, so handle semantics match
the simulated host exactly.
"""

from __future__ import annotations

import selectors
import socket
import threading
from heapq import heappop, heappush
from queue import Empty, SimpleQueue
from typing import Callable, List, Optional, Set, Tuple, TypeVar

from ..errors import InvalidStateError
from ..sim.engine import compact_cancelled
from .clock import WallClock

__all__ = ["LiveScheduler"]

T = TypeVar("T")


class LiveScheduler:
    """Single-dispatcher deferred execution and socket readiness over a
    :class:`WallClock`."""

    def __init__(self, clock: Optional[WallClock] = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._cancelled: Set[int] = set()
        self._lock = threading.Lock()
        #: the loop's selector and the socket pair that wakes it (read
        #: end, write end), made by :meth:`start`
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_pair: Tuple[socket.socket, ...] = ()
        #: the loop is in ``select`` with a timeout and nobody has woken it
        self._sleeping = False
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        #: exceptions escaping dispatched callbacks (the dispatcher must
        #: survive a bad callback; tests and the server assert this list
        #: stays empty)
        self.errors: List[BaseException] = []

    # -- SchedulerPort surface ----------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    def schedule_at(self, time: float, callback: Callable[[], None],
                    label: str = "") -> int:
        """Run ``callback`` at absolute host time ``time`` (clamped to now).

        Unlike the event engine, a past timestamp is not an error: wall
        time advances on its own, so "at a time just gone by" simply
        means "as soon as the dispatcher gets to it".
        """
        with self._lock:
            seq = self._seq
            self._seq = seq + 1
            entry = (float(time), seq, callback)
            heap = self._heap
            heappush(heap, entry)
            if self._sleeping and heap[0] is entry:
                self._wake_up()
            return seq

    def schedule_after(self, delay: float, callback: Callable[[], None],
                       label: str = "") -> int:
        if delay < 0:
            raise InvalidStateError(f"delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    def submit(self, callback: Callable[[], None]) -> int:
        """Run ``callback`` on the dispatcher as soon as possible."""
        return self.schedule_at(0.0, callback)

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled callback (idempotent, lazy)."""
        with self._lock:
            cancelled = self._cancelled
            if handle in cancelled:
                return
            cancelled.add(handle)
            compact_cancelled(self._heap, cancelled)

    def offload(self, work: Callable[[], None], label: str = "") -> None:
        """Run ``work`` off the dispatcher; it reports back by ``submit``."""
        threading.Thread(target=work, name=label or "live-offload",
                         daemon=True).start()

    # -- sockets -------------------------------------------------------------
    def watch(self, fileobj, events: int,
              callback: Optional[Callable[[int], None]] = None) -> None:
        """Call ``callback(ready)`` on the dispatcher whenever ``fileobj``
        is ready for ``events`` (a mask of ``selectors.EVENT_READ`` and
        ``EVENT_WRITE``; ``ready`` says which); ``events=0`` stops
        watching it.  Dispatcher thread only, while started."""
        selector = self._selector
        watched = fileobj in selector.get_map()
        if not events:
            if watched:
                selector.unregister(fileobj)
        elif watched:
            selector.modify(fileobj, events, callback)
        else:
            selector.register(fileobj, events, callback)

    # -- cross-thread helpers ------------------------------------------------
    def wait(self, start: Callable[[Callable[[object], None]], None],
             timeout: Optional[float] = 30.0):
        """Call ``start(settle)`` here and block until ``settle(outcome)``
        runs (on any thread): the one blocking bridge to callback code.
        Returns the outcome, or raises it if it is an exception.
        ``timeout=None`` waits for as long as it takes."""
        outcomes: SimpleQueue = SimpleQueue()
        start(outcomes.put)
        try:
            outcome = outcomes.get(timeout=timeout)
        except Empty:
            raise TimeoutError(f"no outcome within {timeout}s") from None
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def call(self, fn: Callable[[], T], timeout: float = 30.0) -> T:
        """Run ``fn`` on the dispatcher through :meth:`wait`; return its
        result or raise its exception.  On the dispatcher itself, or with
        none running (nothing else touches the kernel), run it here."""
        thread = self._thread
        if thread is None or threading.current_thread() is thread:
            return fn()

        def start(settle: Callable[[object], None]) -> None:
            def wrapper() -> None:
                try:
                    outcome = fn()
                except BaseException as exc:  # noqa: BLE001 - relayed
                    outcome = exc
                settle(outcome)

            self.submit(wrapper)

        return self.wait(start, timeout)

    # -- lifecycle -----------------------------------------------------------
    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._heap) - len(self._cancelled)

    def start(self) -> None:
        if self._thread is not None:
            raise InvalidStateError("scheduler already started")
        self._stopping = False
        self._selector = selectors.DefaultSelector()
        self._wake_pair = socket.socketpair()
        for end in self._wake_pair:
            end.setblocking(False)
        # no callback: the loop drains it
        self._selector.register(self._wake_pair[0], selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._run, name="live-dispatch",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop dispatching; pending entries are abandoned, and files
        still watched are no longer watched (their owner closes them).
        A dispatcher still in a callback after ``timeout`` is kept
        (``TimeoutError``)."""
        thread = self._thread
        if thread is None:
            return
        with self._lock:
            self._stopping = True
            self._wake_up()
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError(
                f"dispatcher still running a callback after {timeout}s")
        self._thread = None
        self._selector.close()
        for end in self._wake_pair:
            end.close()
        self._selector, self._wake_pair = None, ()

    def _wake_up(self) -> None:
        """Make the loop's ``select`` return (caller holds the lock)."""
        self._sleeping = False
        try:
            self._wake_pair[1].send(b"\0")
        except BlockingIOError:  # full of wake-ups already
            pass

    def _run(self) -> None:
        heap = self._heap
        cancelled = self._cancelled
        lock = self._lock
        clock = self.clock
        errors = self.errors
        select = self._selector.select
        wake = self._wake_pair[0]
        while True:
            with lock:
                if self._stopping:
                    return
                while heap and heap[0][1] in cancelled:
                    cancelled.discard(heappop(heap)[1])
                # block until the head comes due; a new earlier entry
                # or stop() wakes the select early
                timeout = (max(0.0, heap[0][0] - clock.now) if heap
                           else None)
                self._sleeping = timeout != 0.0
            ready = select(timeout)
            self._sleeping = False
            for key, events in ready:
                callback = key.data
                if callback is None:
                    try:
                        wake.recv(4096)
                    except BlockingIOError:
                        pass
                    continue
                try:
                    callback(events)
                except BaseException as exc:  # noqa: BLE001 - keep serving
                    errors.append(exc)
            due = clock.now
            while True:
                with lock:
                    if self._stopping:
                        return
                    while heap and heap[0][1] in cancelled:
                        cancelled.discard(heappop(heap)[1])
                    if not heap or heap[0][0] > due:
                        break
                    callback = heappop(heap)[2]
                # Dispatch outside the lock: callbacks may schedule freely.
                try:
                    callback()
                except BaseException as exc:  # noqa: BLE001 - keep dispatching
                    errors.append(exc)
