"""The backup disk array.

``N_bdisks`` identical disks serve checkpoint writes, recovery reads, and
log traffic.  Two views are provided, plus the checkpointers' write port
(:class:`SimulatedImageWriter`) over the first:

* :meth:`DiskArray.submit` -- discrete-event view: a request is assigned
  to the disk that frees up first (ideal load balancing, matching the
  paper's assumption that bandwidth scales linearly with disk count) and
  the completion time is returned for event scheduling.
* :meth:`DiskArray.series_time` -- closed-form view used by the analytic
  model and recovery-time estimates: the paper assumes "the time required
  to execute a series of I/O operations is inversely proportional to the
  number of disks that are available" (Section 2.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import ConfigurationError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..params import SystemParameters
from ..sim.ports import SchedulerPort
from .disk import Disk

if TYPE_CHECKING:  # pragma: no cover - a type only
    from ..faults.injector import FaultInjector


class DiskArray:
    """A bank of identical disks with ideal load balancing."""

    def __init__(self, params: SystemParameters, name: str = "backup",
                 *, telemetry: Telemetry = NULL_TELEMETRY,
                 faults: Optional[FaultInjector] = None) -> None:
        self.params = params
        self.name = name
        self.telemetry = telemetry
        #: shared fault handle; the per-spindle hooks live in the disks
        self.faults = faults
        self.disks: List[Disk] = [
            Disk(params.t_seek, params.t_trans, name=f"{name}-{i}",
                 telemetry=telemetry, metric_prefix=f"disk.{name}",
                 faults=faults)
            for i in range(params.n_bdisks)
        ]

    # -- discrete-event interface ------------------------------------------
    def submit(self, now: float, words: int) -> float:
        """Send one request to the earliest-free disk; returns completion."""
        # Manual argmin: every checkpoint segment write lands here, and
        # ``min(..., key=lambda)`` costs a lambda call per disk.
        disks = self.disks
        disk = disks[0]
        best_free = disk.free_at
        for candidate in disks:
            free_at = candidate.free_at
            if free_at < best_free:
                disk = candidate
                best_free = free_at
        if self.telemetry.enabled:
            # Array queue depth at submission: disks still busy now.
            self.telemetry.registry.observe(
                f"disk.{self.name}.queue_depth",
                sum(1 for d in self.disks if d.free_at > now))
        return disk.submit(now, words)

    @property
    def n_disks(self) -> int:
        return len(self.disks)

    @property
    def requests(self) -> int:
        return sum(disk.requests for disk in self.disks)

    @property
    def words_transferred(self) -> int:
        return sum(disk.words_transferred for disk in self.disks)

    @property
    def busy_time(self) -> float:
        return sum(disk.busy_time for disk in self.disks)

    def utilisation(self, elapsed: float) -> float:
        """Mean per-disk utilisation over ``elapsed`` seconds."""
        if elapsed <= 0 or not self.disks:
            return 0.0
        return self.busy_time / (elapsed * len(self.disks))

    def reset(self) -> None:
        for disk in self.disks:
            disk.reset()

    # -- closed-form interface (paper Section 2.3 simplification) -----------
    def request_time(self, words: int) -> float:
        """Service time of a single request on one disk."""
        return self.disks[0].service_time(words)

    def series_time(self, n_requests: int, words_per_request: int) -> float:
        """Time for ``n_requests`` equal requests spread over the array."""
        if n_requests < 0:
            raise ConfigurationError(f"n_requests must be >= 0 ({n_requests!r})")
        return n_requests * self.request_time(words_per_request) / self.n_disks

    def sequential_read_time(self, total_words: int, request_words: int) -> float:
        """Time to read ``total_words`` in ``request_words`` chunks."""
        if request_words <= 0:
            raise ConfigurationError(
                f"request_words must be positive ({request_words!r})"
            )
        full, remainder = divmod(total_words, request_words)
        time = self.series_time(full, request_words)
        if remainder:
            time += self.request_time(remainder) / self.n_disks
        return time


class SimulatedImageWriter:
    """The simulated :class:`~repro.sim.ports.ImageWriter`.

    A segment write occupies the earliest-free disk of ``array`` and
    completes as an event on ``engine``.  From issue to completion the
    write is in flight, so the fault injector may tear it at a crash.
    """

    def __init__(self, array: DiskArray, engine: SchedulerPort, *,
                 faults: Optional[FaultInjector] = None) -> None:
        self.array = array
        self.engine = engine
        self.faults = faults
        self._words = array.params.s_seg

    def write(self, image: Any, index: int, data: Any,
              data_timestamp: float, done: Callable[[], None]) -> None:
        faults = self.faults
        if faults is not None:
            faults.note_write_issued(image, index, data, data_timestamp)
            image_index = image.index

            def completed() -> None:
                faults.note_write_completed(image_index, index)
                done()
        else:
            completed = done
        engine = self.engine
        engine.schedule_at(self.array.submit(engine.now, self._words),
                           completed)
