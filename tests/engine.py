"""The live host's scheduler on the discrete-event engine: one thread,
simulated time, a fixed order.

:class:`EngineScheduler` is an :class:`~repro.sim.engine.EventEngine`
with the rest of what :class:`~repro.live.host.LiveHost` asks of
:class:`~repro.live.scheduler.LiveScheduler`: ``submit``, ``wait``,
``call``, ``offload``, ``start``, ``stop`` and ``errors``.  Nothing is
dispatched until someone waits: ``wait(start)`` calls ``start(settle)``
and then steps the engine, one event at a time, until ``settle`` has
run.  ``offload`` queues the work as one more event, so a checkpoint's
image write runs between two dispatcher callbacks, at a point the order
of submission fixes.  An exception escaping an event goes to
``errors``, as on the dispatcher thread.

So ``LiveHost(config, files=MemoryFiles(), scheduler=EngineScheduler())``
runs with no thread, no wall clock and no directory on disk, and the
same script always makes the same file operations with the same bytes.
"""

from __future__ import annotations

from typing import Callable, List

from repro.sim.engine import EventEngine

__all__ = ["EngineScheduler"]


class EngineScheduler(EventEngine):
    """A threadless stand-in for ``LiveScheduler``, stepped by ``wait``."""

    def __init__(self) -> None:
        super().__init__()
        #: exceptions escaping dispatched events
        self.errors: List[BaseException] = []

    def submit(self, callback: Callable[[], None]) -> int:
        return self.schedule_at(self.clock.now, callback)

    def offload(self, work: Callable[[], None], label: str = "") -> None:
        self.submit(work)

    def wait(self, start, timeout: float = 30.0):
        """``start(settle)``, then dispatch until ``settle(outcome)``
        runs; return the outcome or raise it.  ``TimeoutError`` if the
        queue runs dry or the next event lies ``timeout`` simulated
        seconds ahead first."""
        box: list = []
        start(box.append)
        deadline = self.clock.now + timeout
        heap = self._heap
        while not box:
            if not heap or heap[0][0] > deadline:
                raise TimeoutError(f"no outcome within {timeout}s")
            try:
                self.step()
            except Exception as exc:  # noqa: BLE001 - keep dispatching
                self.errors.append(exc)
        if isinstance(box[0], BaseException):
            raise box[0]
        return box[0]

    def call(self, fn: Callable[[], object], timeout: float = 30.0):
        """Run ``fn`` as an event behind those already queued; return
        its result or raise its exception."""
        def start(settle) -> None:
            def run() -> None:
                try:
                    outcome = fn()
                except Exception as exc:  # noqa: BLE001 - relayed
                    outcome = exc
                settle(outcome)

            self.submit(run)

        return self.wait(start, timeout)

    def start(self) -> None:
        """Nothing to start: ``wait`` dispatches."""

    def stop(self, timeout: float = 5.0) -> None:
        """Abandon the pending events."""
        self.clear()
