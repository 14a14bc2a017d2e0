"""Component ports: the typed seams of the simulated MMDBMS.

Each :class:`~typing.Protocol` below names the surface one major
subsystem presents to the rest of the testbed.  The concrete classes in
:mod:`repro.storage`, :mod:`repro.wal`, :mod:`repro.checkpoint`,
:mod:`repro.txn`, :mod:`repro.faults`, and :mod:`repro.obs` satisfy them
structurally -- nothing inherits from these, and this module imports none
of those packages, so it sits in the dependency-free engine layer (see
``scripts/check_layering.py``).

The ports exist for substitution: :class:`repro.sim.builder.SystemBuilder`
accepts any object satisfying the relevant protocol in place of the
default component -- a fake ``TelemetrySink`` in a test, a file-backed
``StorageBackend`` for durable images, an alternative ``WorkloadSource``
for trace-driven replay.  They are intentionally the *minimum* surface
the simulator itself exercises, not a transcript of every public method
the default implementations happen to have.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

__all__ = [
    "BackupTarget",
    "CheckpointerPort",
    "ClockPort",
    "DISABLED_TELEMETRY",
    "FaultHook",
    "LogDevice",
    "SchedulerHandle",
    "SchedulerPort",
    "StorageBackend",
    "TelemetrySink",
    "WorkloadSource",
    "missing_methods",
]

#: the opaque handle ``schedule_at``/``schedule_after`` return; pass it
#: back to :meth:`SchedulerPort.cancel`
SchedulerHandle = int


@runtime_checkable
class ClockPort(Protocol):
    """Where *now* comes from: the host's notion of time.

    Satisfied by :class:`repro.sim.clock.Clock` (simulated seconds,
    advanced only by the event engine) and
    :class:`repro.live.clock.WallClock` (monotonic wall-clock seconds
    since host start).  Kernel components never read ``time.time()`` or
    ``time.monotonic()`` directly -- the layering check enforces that for
    the engine layer -- so the same kernel runs under either host.

    Hot paths additionally read the ``_now`` attribute (a bare float on
    the simulated clock, a property on the wall clock); both
    implementations provide it, though it is not part of the formal
    surface.
    """

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock)."""
        ...


@runtime_checkable
class SchedulerPort(Protocol):
    """Deferred execution over a :class:`ClockPort`: the host adapter seam.

    This is the *only* way kernel components (transaction manager,
    checkpointers, checkpoint scheduler, workload-driven arrival loops)
    ask "what time is it?" or "run this later".  Two hosts satisfy it:

    * :class:`repro.sim.engine.EventEngine` -- the discrete-event loop;
      ``schedule_after`` pushes a heap entry and time jumps event to
      event (``SimulatedSystem.engine``);
    * :class:`repro.live.scheduler.LiveScheduler` -- a single dispatcher
      thread over a monotonic clock; ``schedule_after`` arms a real
      timer and callbacks execute serially on the dispatcher thread,
      preserving the engine's one-at-a-time execution model
      (``LiveHost``).

    ``clock`` exposes the underlying :class:`ClockPort` because a few
    hot paths read ``clock._now`` directly instead of paying two
    property hops per event.
    """

    clock: Any

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...

    def schedule_at(self, time: float, callback: Callable[[], None],
                    label: str = "") -> SchedulerHandle:
        """Run ``callback`` at absolute time ``time``; returns a handle."""
        ...

    def schedule_after(self, delay: float, callback: Callable[[], None],
                       label: str = "") -> SchedulerHandle:
        """Run ``callback`` ``delay`` seconds from now; returns a handle."""
        ...

    def cancel(self, handle: SchedulerHandle) -> None:
        """Cancel a scheduled callback (idempotent)."""
        ...


@runtime_checkable
class StorageBackend(Protocol):
    """Durable record storage behind one backup image.

    A backend owns the bytes of a single database image at segment
    granularity.  The :class:`~repro.storage.backup.BackupImage` keeps
    all checkpointing *metadata* (flush timestamps, presence bits,
    completion markers) and delegates the data plane here, so swapping
    the medium -- in-memory array, file, future remote object store --
    never touches checkpoint or recovery logic.
    """

    #: short registry name ("memory", "file", ...)
    name: str

    @property
    def values(self) -> np.ndarray:
        """A live array-like view of every record (compat surface)."""
        ...

    def write_segment(self, segment_index: int, data: np.ndarray) -> None:
        """Durably store one complete segment."""
        ...

    def write_prefix(self, segment_index: int, prefix: np.ndarray) -> None:
        """Physically land only a prefix of a segment (torn write)."""
        ...

    def read_segment(self, segment_index: int) -> np.ndarray:
        """An independent copy of one stored segment."""
        ...

    def snapshot(self) -> np.ndarray:
        """An independent copy of every record value."""
        ...

    def wipe(self) -> None:
        """Destroy the stored contents (media failure)."""
        ...

    def close(self) -> None:
        """Release any OS resources the backend holds."""
        ...


@runtime_checkable
class LogDevice(Protocol):
    """The write-ahead log as the simulator drives it.

    Satisfied by :class:`repro.wal.log.LogManager`; the simulator's own
    traffic is appends from the transaction manager and checkpointers,
    periodic group flushes, and the stable-record drain that feeds the
    committed-state oracle.
    """

    def flush(self) -> Any:
        """Force volatile tail records to stable storage."""
        ...

    def drain_newly_stable(self) -> Sequence[Any]:
        """Records that became stable since the previous drain."""
        ...

    def crash(self) -> None:
        """Lose the volatile tail (unless the tail is stable RAM)."""
        ...


@runtime_checkable
class BackupTarget(Protocol):
    """The checkpoint destination: alternating durable database images.

    Satisfied by :class:`repro.storage.backup.BackupStore` (the paper's
    ping-pong image pair).  A future sharded or replicated store plugs
    in here as long as it can hand out an image per checkpoint and
    survive crashes.
    """

    images: Sequence[Any]

    def image(self, index: int) -> Any:
        ...

    def acquire_image_for_checkpoint(self, checkpoint_id: int) -> Any:
        ...

    def latest_complete_image(self) -> Optional[Any]:
        ...

    def crash(self) -> None:
        ...

    def media_failure(self, index: int) -> Any:
        ...


@runtime_checkable
class CheckpointerPort(Protocol):
    """What the system/scheduler need from a checkpoint algorithm."""

    name: str
    history: List[Any]
    on_complete: Optional[Callable[[Any], None]]

    @property
    def active(self) -> bool:
        ...

    def start_checkpoint(self) -> None:
        ...

    def attach_transaction_manager(self, manager: Any) -> None:
        ...

    def crash(self) -> None:
        ...


@runtime_checkable
class WorkloadSource(Protocol):
    """Where transactions come from.

    Satisfied by :class:`repro.txn.workload.WorkloadGenerator` (seeded
    fixed-rate synthetic load) and
    :class:`repro.workload.source.ScheduledWorkloadSource` (open-system
    arrivals under a rate schedule); a trace-replay source satisfies it
    just as well.

    The schedule-aware surface: ``next_interarrival`` takes the current
    simulated time (time-varying sources sample the gap *from now*) and
    may return ``None`` to end the arrival stream; ``rate_at`` and
    ``expected_arrivals`` expose the offered-load curve so telemetry can
    compare offered against served without knowing the source's shape.
    """

    def next_interarrival(self, now: float) -> Optional[float]:
        """Seconds from ``now`` to the next arrival; None = stream over."""
        ...

    def make_transaction(self, now: float) -> Any:
        ...

    def rate_at(self, now: float) -> float:
        """Offered arrival rate at ``now``, transactions/second."""
        ...

    def expected_arrivals(self, start: float, end: float) -> float:
        """Expected arrivals offered in ``[start, end]``."""
        ...


@runtime_checkable
class FaultHook(Protocol):
    """The fault-injection seam threaded through the substrates.

    Satisfied by :class:`repro.faults.injector.FaultInjector` and its
    shared disabled instance ``NULL_INJECTOR``.  ``armed`` is the
    one-predicate guard every instrumented call site checks first.
    """

    @property
    def armed(self) -> bool:
        ...

    def on_system_crash(self) -> None:
        ...

    def trigger_timed_crash(self) -> None:
        ...


@runtime_checkable
class TelemetrySink(Protocol):
    """The quantitative observability seam.

    Satisfied by :class:`repro.obs.telemetry.Telemetry` and its shared
    disabled instance ``NULL_TELEMETRY``.  ``enabled`` is the
    one-predicate guard; ``registry`` carries counters/gauges/histograms
    when enabled.
    """

    @property
    def enabled(self) -> bool:
        ...

    @property
    def registry(self) -> Any:
        ...

    def snapshot(self) -> Dict[str, Any]:
        ...


class _DisabledTelemetry:
    """The engine layer's inert :class:`TelemetrySink`.

    Engine modules (e.g. :mod:`repro.sim.cpu_server`) default to this so
    they need no import from :mod:`repro.obs`; the builder always
    injects the real sink.
    """

    enabled = False
    registry = None

    def snapshot(self) -> None:
        return None


#: shared inert sink; safe to share because it never records anything
DISABLED_TELEMETRY = _DisabledTelemetry()


def missing_methods(component: Any, port: type) -> Iterable[str]:
    """Names required by ``port`` that ``component`` does not provide.

    A small structural-diagnostic helper for builder error messages and
    tests; empty means the component satisfies the port's surface (by
    name -- signatures are the caller's responsibility, as with any
    Protocol).
    """
    required = [name for name in getattr(port, "__protocol_attrs__", [])
                if not name.startswith("_")]
    if not required:  # pragma: no cover - older Pythons lack the attr
        required = [name for name in dir(port)
                    if not name.startswith("_")]
    return [name for name in sorted(required)
            if not hasattr(component, name)]
