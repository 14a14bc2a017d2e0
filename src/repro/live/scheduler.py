"""A wall-clock :class:`~repro.sim.ports.SchedulerPort`.

The discrete-event engine gives the kernel a strong property for free:
callbacks run one at a time, in timestamp order, on one logical thread.
The transaction manager, WAL, and checkpointers are written against that
property -- they share mutable state with no locks.  ``LiveScheduler``
preserves it on the wall clock: a single dispatcher thread owns a heap
of ``(time, seq, callback)`` entries (the engine's representation)
and sleeps on a condition variable until the earliest entry is
due.  Everything the kernel does -- transaction execution, WAL appends,
group flushes, checkpoint phase transitions -- happens on that thread;
other threads (socket workers, the checkpoint image writer) interact
only by submitting callbacks, and block only in :meth:`~LiveScheduler.wait`.

``schedule_at``/``schedule_after`` are thread-safe and may be called
from any thread, including from inside a dispatched callback.
Cancellation is lazy and compacts through the engine's own
:func:`~repro.sim.engine.compact_cancelled`, so handle semantics match
the simulated host exactly.
"""

from __future__ import annotations

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
    """Single-dispatcher deferred execution over a :class:`WallClock`."""

    def __init__(self, clock: Optional[WallClock] = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._cancelled: Set[int] = set()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._stopping = False
        self._dispatched = 0
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
            heappush(self._heap, (float(time), seq, callback))
            self._wakeup.notify()
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

    # -- cross-thread helpers ------------------------------------------------
    def wait(self, start: Callable[[Callable[[object], None]], None],
             timeout: float = 30.0):
        """Call ``start(settle)`` here and block until ``settle(outcome)``
        runs (on any thread): the one blocking bridge to callback code.
        Returns the outcome, or raises it if it is an exception."""
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
    def dispatched(self) -> int:
        return self._dispatched

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._heap) - len(self._cancelled)

    def start(self) -> None:
        if self._thread is not None:
            raise InvalidStateError("scheduler already started")
        self._stopping = False
        self._thread = threading.Thread(target=self._run, name="live-dispatch",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop dispatching; pending entries are abandoned.  A dispatcher
        still in a callback after ``timeout`` is kept (``TimeoutError``)."""
        thread = self._thread
        if thread is None:
            return
        with self._lock:
            self._stopping = True
            self._wakeup.notify()
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError(
                f"dispatcher still running a callback after {timeout}s")
        self._thread = None

    def _run(self) -> None:
        heap = self._heap
        cancelled = self._cancelled
        while True:
            with self._lock:
                while True:
                    if self._stopping:
                        return
                    while heap and heap[0][1] in cancelled:
                        cancelled.discard(heappop(heap)[1])
                    if not heap:
                        self._wakeup.wait()
                        continue
                    delay = heap[0][0] - self.clock.now
                    if delay <= 0:
                        _, _, callback = heappop(heap)
                        break
                    # A new earlier entry or stop() notifies; otherwise
                    # wake when the head comes due.
                    self._wakeup.wait(timeout=delay)
            # Dispatch outside the lock: callbacks may schedule freely.
            try:
                callback()
            except BaseException as exc:  # noqa: BLE001 - keep dispatching
                self.errors.append(exc)
            self._dispatched += 1
