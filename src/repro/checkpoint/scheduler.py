"""Checkpoint scheduling policy (paper Section 4).

The paper treats the *checkpoint duration* -- the time from the beginning
of one checkpoint to the beginning of the next -- as a tunable knob with
a computable minimum:

* **minimum duration** ("checkpoints taken as quickly as possible"): the
  next checkpoint starts the instant the previous one completes; the
  duration is whatever the disk bandwidth and dirtying rate dictate;
* **fixed interval**: checkpoints start every ``interval`` seconds.  When
  a checkpoint overruns the interval, the next one starts as soon as the
  overrunning one completes (durations never overlap).

Longer intervals amortize the checkpoint's cost over more transactions
(lower processor overhead) but leave more log to replay after a crash
(higher recovery time) -- the trade-off of Figure 4b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..sim.ports import SchedulerHandle, SchedulerPort


@dataclass
class CheckpointStats:
    """Summary of one completed checkpoint.

    It lives here, beside the scheduler its ``on_complete`` callback
    feeds, so a host that only paces checkpoints (the live one) imports
    no checkpointer; :mod:`repro.checkpoint.base` re-exports it.
    """

    checkpoint_id: int
    image: int
    began_at: float
    ended_at: float
    segments_flushed: int
    segments_skipped: int
    buffer_copies: int
    cou_copies: int
    words_written: int
    #: simulated seconds transactions stayed quiesced at begin (COU only)
    quiesce_time: float = 0.0
    #: summed per-segment waits for the WAL condition before flushing
    wal_wait_time: float = 0.0
    #: summed per-segment image-write latencies (issue to completion)
    io_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.ended_at - self.began_at


@dataclass(frozen=True)
class CheckpointPolicy:
    """When checkpoints run.

    Attributes:
        interval: seconds between checkpoint *starts*; ``None`` means the
            minimum-duration policy (back-to-back checkpoints).
        initial_delay: seconds before the very first checkpoint.
    """

    interval: Optional[float] = None
    initial_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ConfigurationError(
                f"interval must be positive or None, got {self.interval!r}"
            )
        if self.initial_delay < 0:
            raise ConfigurationError(
                f"initial_delay must be >= 0, got {self.initial_delay!r}"
            )

    @property
    def is_minimum_duration(self) -> bool:
        return self.interval is None


class CheckpointScheduler:
    """Drives a checkpointer according to a :class:`CheckpointPolicy`.

    Host-agnostic: ``checkpointer`` is anything satisfying
    :class:`~repro.sim.ports.CheckpointerPort` and ``engine`` anything
    satisfying :class:`~repro.sim.ports.SchedulerPort`, so the same
    policy logic paces simulated checkpoints (``EventEngine``) and live
    wall-clock ones (``LiveScheduler`` driving a ``LiveCheckpointer``).
    """

    def __init__(self, checkpointer, engine: SchedulerPort,
                 policy: CheckpointPolicy) -> None:
        self.checkpointer = checkpointer
        self.engine = engine
        self.policy = policy
        self._pending: Optional[SchedulerHandle] = None
        self._stopped = False
        checkpointer.on_complete = self._on_checkpoint_complete

    def start(self) -> None:
        """Arm the first checkpoint."""
        self._stopped = False
        self._schedule(self.policy.initial_delay)

    def stop(self) -> None:
        """Stop launching checkpoints (crash or end of measurement)."""
        self._stopped = True
        if self._pending is not None:
            self.engine.cancel(self._pending)
            self._pending = None

    # ------------------------------------------------------------------
    def _schedule(self, delay: float) -> None:
        if self._stopped:
            return
        self._pending = self.engine.schedule_after(
            max(0.0, delay), self._launch,
            label=f"checkpoint start ({self.checkpointer.name})",
        )

    def _launch(self) -> None:
        self._pending = None
        if self._stopped or self.checkpointer.active:
            return
        self.checkpointer.start_checkpoint()

    def _on_checkpoint_complete(self, stats: CheckpointStats) -> None:
        if self._stopped:
            return
        if self.policy.is_minimum_duration:
            # A checkpoint that found nothing to flush completes in zero
            # simulated time; without a floor the scheduler would relaunch
            # forever at the same instant.  Use the same physical floor as
            # the analytic model: one effective segment write.
            floor = (self.checkpointer.params.segment_io_time
                     / self.checkpointer.params.n_bdisks)
            elapsed = self.engine.now - stats.began_at
            self._schedule(max(0.0, floor - elapsed))
            return
        next_start = stats.began_at + self.policy.interval
        self._schedule(next_start - self.engine.now)
