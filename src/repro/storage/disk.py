"""A single disk, modelled as a simple server (paper Section 2.2).

A request transferring ``d`` words occupies the disk for
``T_seek + T_trans * d`` seconds.  The disk keeps a "free at" horizon so
queued requests serialize; utilisation statistics feed the experiment
reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import ConfigurationError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - a type only
    from ..faults.injector import FaultInjector


class Disk:
    """One backup/log disk with seek-plus-transfer service times."""

    def __init__(self, t_seek: float, t_trans: float, name: str = "disk",
                 *, telemetry: Telemetry = NULL_TELEMETRY,
                 metric_prefix: str = "disk",
                 faults: Optional[FaultInjector] = None) -> None:
        if t_seek < 0 or t_trans <= 0:
            raise ConfigurationError(
                f"invalid disk timing (t_seek={t_seek!r}, t_trans={t_trans!r})"
            )
        self.t_seek = t_seek
        self.t_trans = t_trans
        self.name = name
        self.free_at = 0.0
        self.busy_time = 0.0
        self.requests = 0
        self.words_transferred = 0
        #: shared across the disks of one array (one distribution per
        #: array, not one per spindle) -- see docs/OBSERVABILITY.md
        self.telemetry = telemetry
        self.metric_prefix = metric_prefix
        #: fault-injection handle; None = healthy disk
        self.faults = faults

    def service_time(self, words: int) -> float:
        """Seconds to serve one request of ``words`` words."""
        if words < 0:
            raise ConfigurationError(f"words must be >= 0, got {words!r}")
        return self.t_seek + self.t_trans * words

    def submit(self, now: float, words: int) -> float:
        """Enqueue a request at time ``now``; returns its completion time.

        Requests serialize: service starts at ``max(now, free_at)``.
        With an armed fault injector the request may suffer latency
        spikes and transient failures: failed attempts re-occupy the
        disk and add exponential-backoff delay, and exhausting the
        retry budget raises :class:`~repro.errors.MediaError`.
        """
        # Inline of ``max(now, free_at)`` + :meth:`service_time`: this is
        # called once per segment write and the two calls dominate it.
        free_at = self.free_at
        start = now if now > free_at else free_at
        if words < 0:
            raise ConfigurationError(f"words must be >= 0, got {words!r}")
        service = self.t_seek + self.t_trans * words
        if self.faults is not None:
            # May raise CrashError (write-count trigger) or MediaError.
            delay, extra_busy = self.faults.on_disk_request(
                self.name, words, service)
            start += delay
            service += extra_busy
        self.free_at = start + service
        self.busy_time += service
        self.requests += 1
        self.words_transferred += words
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            prefix = self.metric_prefix
            registry.count(prefix + ".requests")
            registry.count(prefix + ".words", words)
            registry.count(prefix + ".busy_time", service)
            registry.observe(prefix + ".service_time", service)
            registry.observe(prefix + ".queue_wait", start - now)
            registry.add_busy(prefix + ".busy", start, service)
        return self.free_at

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this disk spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.requests = 0
        self.words_transferred = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Disk({self.name}, free_at={self.free_at:.4f})"
