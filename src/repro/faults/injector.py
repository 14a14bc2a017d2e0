"""The fault injector: the one handle every fault hook calls.

Instrumented components hold the run's one :class:`FaultInjector`, or
``None`` when no fault plan is armed, and guard each hook site with one
test::

    if self.faults is not None:
        delay, extra = self.faults.on_disk_request(self.name, words, service)

so a run without a fault plan pays exactly one attribute load plus a
predicate per hook -- no argument evaluation, no dict lookups, no
allocation.  The hook modules import this class for type checking
only, so the live server, which arms no plan, never loads
:mod:`repro.faults`.

The injector owns the plan's private RNG stream.  Draws happen in event
order, which the engine makes deterministic, so an armed run is a pure
function of ``(plan, system seed)`` -- the determinism contract
documented in ``docs/FAULTS.md``.

Crash triggers do not mutate the system themselves: they raise
:class:`~repro.errors.CrashError`, which unwinds the event loop to the
harness, and the harness then calls :meth:`SimulatedSystem.crash`.
Torn-write application happens *inside* the crash
(:meth:`FaultInjector.on_system_crash`): every segment write still in
flight lands a random prefix of its data in the backup image, without
updating the image's flush metadata -- a power loss mid-transfer.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import CrashError, MediaError
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .plan import FaultPlan


class FaultInjector:
    """Seeded executor of one :class:`~repro.faults.plan.FaultPlan`."""

    __slots__ = ("plan", "telemetry", "spans", "rng", "crash_fired",
                 "crash_trigger", "disk_writes", "log_flushes",
                 "io_errors", "io_retries", "io_exhausted",
                 "latency_spikes", "torn_segments", "backoff_time",
                 "_outstanding")

    def __init__(self, plan: FaultPlan, *,
                 telemetry: Telemetry = NULL_TELEMETRY,
                 spans: SpanRecorder = NULL_SPANS) -> None:
        self.plan = plan
        self.telemetry = telemetry
        #: span recorder (retry backoff windows); carries its own clock
        self.spans = spans
        self.rng = np.random.default_rng(plan.seed)
        #: whether a crash trigger already fired this run
        self.crash_fired = False
        #: the trigger that fired (``None`` until then)
        self.crash_trigger: Optional[str] = None
        # fault accounting (mirrored into telemetry when enabled)
        self.disk_writes = 0
        self.log_flushes = 0
        self.io_errors = 0
        self.io_retries = 0
        self.io_exhausted = 0
        self.latency_spikes = 0
        self.torn_segments = 0
        self.backoff_time = 0.0
        #: segment writes issued but not yet completed:
        #: (image_index, segment_index) -> (image, data, data_timestamp)
        self._outstanding: Dict[Tuple[int, int], Tuple[Any, Any, float]] = {}

    # ------------------------------------------------------------------
    # crash triggers
    # ------------------------------------------------------------------
    def _crash(self, trigger: str) -> None:
        if self.crash_fired:
            return
        self.crash_fired = True
        self.crash_trigger = trigger
        if self.telemetry.enabled:
            self.telemetry.registry.count("faults.crashes")
        raise CrashError(f"injected crash ({trigger})", trigger=trigger)

    def trigger_timed_crash(self) -> None:
        """Event callback for ``CrashSpec.at_time`` (scheduled by the
        system at construction; raises through the event loop)."""
        self._crash("time")

    def on_checkpoint_phase(self, phase: str, checkpoint_id: int,
                            progress: int) -> None:
        """A checkpoint reached ``phase`` with ``progress`` units done.

        Called from the checkpointers (begin marker written, N-th
        segment write completed, N-th segment painted, quiesce log
        force, end marker about to be written).
        """
        crash = self.plan.crash
        if crash is None or crash.at_phase != phase:
            return
        if checkpoint_id != crash.checkpoint_ordinal:
            return
        if phase in ("sweep", "paint") and progress != crash.after_flushes:
            return
        self._crash(f"phase:{phase}")

    def on_log_flush(self) -> None:
        """A non-empty log flush is about to move the tail to stable
        storage; crash *before* it does (the tail is lost)."""
        self.log_flushes += 1
        crash = self.plan.crash
        if crash is not None and crash.at_log_flush == self.log_flushes:
            self._crash("log_flush")

    # ------------------------------------------------------------------
    # disk-level faults
    # ------------------------------------------------------------------
    def on_disk_request(self, disk_name: str, words: int,
                        service: float) -> Tuple[float, float]:
        """One backup-disk request is being submitted.

        Returns ``(delay, extra_busy)``: seconds of added queue delay
        (latency spikes, retry backoffs) and seconds of added busy time
        (failed attempts re-occupying the disk).  May raise
        :class:`~repro.errors.CrashError` (write-count trigger) or
        :class:`~repro.errors.MediaError` (retries exhausted).
        """
        self.disk_writes += 1
        crash = self.plan.crash
        if crash is not None and crash.after_writes == self.disk_writes:
            self._crash("writes")
        io = self.plan.io
        if io.empty:
            return 0.0, 0.0
        delay = 0.0
        extra_busy = 0.0
        rng = self.rng
        telemetry = self.telemetry
        if io.latency_spike_rate and rng.random() < io.latency_spike_rate:
            self.latency_spikes += 1
            delay += io.latency_spike
            if telemetry.enabled:
                telemetry.registry.count("faults.io.latency_spikes")
                telemetry.registry.observe("faults.io.spike_delay",
                                           io.latency_spike)
        if io.error_rate:
            failures = 0
            while rng.random() < io.error_rate:
                failures += 1
                self.io_errors += 1
                if telemetry.enabled:
                    telemetry.registry.count("faults.io.errors")
                if failures > io.max_retries:
                    self.io_exhausted += 1
                    if telemetry.enabled:
                        telemetry.registry.count("faults.io.exhausted")
                    raise MediaError(
                        f"{disk_name}: request of {words} words failed "
                        f"{failures} times (retry budget {io.max_retries})",
                        disk=disk_name, attempts=failures)
                backoff = io.backoff_delay(failures - 1)
                self.io_retries += 1
                self.backoff_time += backoff
                if self.spans.enabled:
                    # The backoff window opens after whatever delay this
                    # request has already accumulated (spikes, earlier
                    # retries); the recorder's clock is the submit time.
                    self.spans.emit("fault.backoff", self.spans.now + delay,
                                    backoff, disk=disk_name, attempt=failures)
                delay += backoff
                extra_busy += service  # the aborted transfer's disk time
                if telemetry.enabled:
                    telemetry.registry.count("faults.io.retries")
                    telemetry.registry.observe("faults.io.backoff", backoff)
        return delay, extra_busy

    # ------------------------------------------------------------------
    # torn-write bookkeeping
    # ------------------------------------------------------------------
    def note_write_issued(self, image: Any, segment_index: int,
                          data: Any, data_timestamp: float) -> None:
        """A segment write left primary memory for ``image``."""
        self._outstanding[(image.index, segment_index)] = (
            image, data, data_timestamp)

    def note_write_completed(self, image_index: int,
                             segment_index: int) -> None:
        """The write landed fully; it can no longer be torn."""
        self._outstanding.pop((image_index, segment_index), None)

    def on_system_crash(self) -> None:
        """The lights went out: tear whatever was still in flight.

        With ``plan.torn_writes`` each outstanding segment write lands a
        seeded-random strict prefix of its data in the target image --
        and nothing else: flush timestamps and presence bits stay
        untouched, exactly as a disk that lost power mid-transfer never
        acknowledged the write.
        """
        self.crash_fired = True  # no further triggers may fire
        outstanding = self._outstanding
        if self.plan.torn_writes:
            for (_, segment_index), (image, data, _) in outstanding.items():
                words = len(data)
                if words < 2:
                    continue
                cut = int(self.rng.integers(1, words))
                image.tear_segment_prefix(segment_index, data[:cut])
                self.torn_segments += 1
                if self.telemetry.enabled:
                    self.telemetry.registry.count("faults.torn_writes")
                    self.telemetry.registry.observe("faults.torn_fraction",
                                                    cut / words)
        outstanding.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        """The fault ledger as a plain dict (report/JSON friendly)."""
        return {
            "disk_writes": self.disk_writes,
            "log_flushes": self.log_flushes,
            "io_errors": self.io_errors,
            "io_retries": self.io_retries,
            "io_exhausted": self.io_exhausted,
            "latency_spikes": self.latency_spikes,
            "torn_segments": self.torn_segments,
            "backoff_time": self.backoff_time,
            "crash_trigger": self.crash_trigger,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.plan.describe()})"
