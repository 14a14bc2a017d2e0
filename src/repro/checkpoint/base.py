"""Checkpointer machinery shared by all six algorithms.

A checkpoint is an ordered sweep over every segment of the database.  For
each segment the algorithm decides whether the backup image needs it
(partial scope: only if the segment was updated since this image last
flushed it; full scope: always) and, if so, produces the bytes to write
-- directly from the database (FLUSH variants), via a buffered copy (COPY
variants), or from a copy-on-update snapshot.

**The I/O pump.**  The sweep is paced by disk completions: at most
``io_depth`` segment writes are outstanding at once (default: one per
backup disk, which achieves the paper's "bandwidth scales with the number
of disks" while never holding more than ``io_depth`` segments locked --
the property Pu's algorithm is designed for).  Clean segments are
processed instantly; segments needing I/O occupy a pump slot from the
moment their data is secured until the image write completes.  This
pacing is what makes the simulated two-color boundary sweep through the
database at disk speed, exactly as the analytic restart model assumes.

**Data timestamps.**  An image write records the logical timestamp of the
data it contains (not the wall-clock write time), so the per-image
staleness test ``tau(S) > last flushed tau`` is exact -- see
:mod:`repro.storage.backup` for why ping-pong needs per-image staleness.

**Write-ahead rule.**  Every image write passes through
:meth:`LogManager.assert_wal`; an algorithm bug that would flush data
whose log records are not yet stable raises
:class:`~repro.errors.WALViolation` immediately instead of corrupting a
recovery somewhere down the line.  (Under a stable log tail the check is
trivially satisfied -- appends are stable instantly.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from ..cpu.accounting import CostLedger
from ..errors import CheckpointError, ConfigurationError
from ..mmdb.database import Database
from ..mmdb.locks import LockManager
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..params import SystemParameters
from ..sim.ports import ImageWriter, SchedulerPort
from ..sim.timestamps import TimestampAuthority
from ..storage.backup import BackupImage, BackupStore
from ..txn.manager import TransactionManager
from ..txn.transaction import Transaction
from ..wal.log import LogManager
from ..wal.records import BeginCheckpointRecord
from .scheduler import CheckpointStats

if TYPE_CHECKING:  # pragma: no cover - a type only
    from ..faults.injector import FaultInjector


class CheckpointScope(enum.Enum):
    """Full vs partial checkpointing (Section 3)."""

    FULL = "full"
    PARTIAL = "partial"


@dataclass
class CheckpointRun:
    """Mutable state of the checkpoint currently in progress."""

    checkpoint_id: int
    image: BackupImage
    began_at: float
    begin_marker: Optional[BeginCheckpointRecord] = None
    position: int = 0            # next segment index the sweep will process
    outstanding: int = 0         # pump slots in use
    segments_flushed: int = 0
    segments_skipped: int = 0
    buffer_copies: int = 0       # checkpointer copies into I/O buffers
    cou_copies: int = 0          # transaction-made copy-on-update snapshots
    words_written: int = 0
    finished: bool = False
    #: True while _begin work is still pending (e.g. a COU log force);
    #: the sweep starts only once the begin phase completes.
    deferred: bool = False
    # phase timing accumulators (see CheckpointStats)
    quiesce_time: float = 0.0
    wal_wait_time: float = 0.0
    io_time: float = 0.0
    # COU state
    tau_ch: int = 0              # tau(CH)
    watermark: int = -1          # highest segment index already secured
    #: root span handle for this checkpoint (-1 when spans are off)
    span: int = -1

    def hold_slot(self) -> None:
        self.outstanding += 1

    def release_slot(self) -> None:
        if self.outstanding <= 0:
            raise CheckpointError("pump slot released more times than held")
        self.outstanding -= 1


class BaseCheckpointer:
    """Common sweep/pump/bookkeeping logic; algorithms fill in hooks."""

    #: registry name, e.g. ``"FUZZYCOPY"`` (set by subclasses)
    name: str = "BASE"
    #: whether segment LSNs are maintained/checked (costs ``C_lsn``)
    uses_lsns: bool = False
    #: whether the algorithm is only safe with a stable-RAM log tail
    requires_stable_tail: bool = False
    #: whether the completed backup image is transaction-consistent
    transaction_consistent: bool = False
    #: whether the image is at least action-consistent (TC implies AC)
    action_consistent: bool = False

    def __init__(
        self,
        params: SystemParameters,
        database: Database,
        log: LogManager,
        locks: LockManager,
        ledger: CostLedger,
        engine: SchedulerPort,
        backup: BackupStore,
        writer: ImageWriter,
        authority: TimestampAuthority,
        *,
        scope: CheckpointScope = CheckpointScope.PARTIAL,
        io_depth: Optional[int] = None,
        quiesce_latency: bool = False,
        truncate_log: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
        faults: Optional[FaultInjector] = None,
        spans: SpanRecorder = NULL_SPANS,
    ) -> None:
        if self.requires_stable_tail and not params.stable_log_tail:
            raise ConfigurationError(
                f"{self.name} is only safe with a stable log tail "
                "(params.stable_log_tail=True); see Section 4 of the paper"
            )
        self.params = params
        self.database = database
        self.log = log
        self.locks = locks
        self.ledger = ledger
        self.engine = engine
        self.backup = backup
        #: where segment writes go (the only path to the backup disks)
        self.writer = writer
        self.authority = authority
        self.telemetry = telemetry
        #: fault-injection handle (phase-crash triggers; the writer keeps
        #: the torn-write bookkeeping); None when no plan is armed
        self.faults = faults
        #: span recorder (phase windows); :data:`NULL_SPANS` = off
        self.spans = spans
        self.scope = scope
        #: model the disk time of the begin-checkpoint log force (only the
        #: copy-on-update family quiesces transactions across it)
        self.quiesce_latency = quiesce_latency
        #: reclaim log space at checkpoint completion.  Disable when the
        #: full log must be retained -- e.g. to allow recovery from an
        #: archived (tape) checkpoint older than the latest one.
        self.truncate_log = truncate_log
        self.io_depth = io_depth if io_depth is not None else params.n_bdisks
        if self.io_depth < 1:
            raise ConfigurationError(f"io_depth must be >= 1, got {io_depth!r}")
        self.txn_manager: Optional[TransactionManager] = None
        self.current: Optional[CheckpointRun] = None
        self.history: List[CheckpointStats] = []
        self.on_complete: Optional[Callable[[CheckpointStats], None]] = None
        self._next_checkpoint_id = 1
        #: lock owner token for this checkpointer
        self._owner = f"checkpointer:{self.name}"

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_transaction_manager(self, manager: TransactionManager) -> None:
        """Connect the transaction manager (hooks + active-txn lists)."""
        self.txn_manager = manager
        manager.set_coordinator(self)

    # ------------------------------------------------------------------
    # coordinator protocol (overridden by 2C / COU)
    # ------------------------------------------------------------------
    def guard_access(self, txn: Transaction, index: int) -> None:
        """Per-record access guard; default: no restrictions."""
    guard_access._noop = True  # type: ignore[attr-defined]

    def before_install(self, txn: Transaction, index: int) -> None:
        """Pre-overwrite hook; default: nothing to preserve."""
    before_install._noop = True  # type: ignore[attr-defined]

    @property
    def active(self) -> bool:
        """Whether a checkpoint is currently in progress."""
        return self.current is not None and not self.current.finished

    # ------------------------------------------------------------------
    # checkpoint lifecycle
    # ------------------------------------------------------------------
    def start_checkpoint(self) -> CheckpointRun:
        """Begin the next checkpoint (markers, then the paced sweep)."""
        if self.active:
            raise CheckpointError(
                f"{self.name}: checkpoint {self.current.checkpoint_id} "
                "is still in progress"
            )
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        image = self.backup.acquire_image_for_checkpoint(checkpoint_id)
        run = CheckpointRun(checkpoint_id=checkpoint_id, image=image,
                            began_at=self.engine.now)
        self.current = run
        if self.spans.enabled:
            run.span = self.spans.begin(
                "ckpt", checkpoint_id=checkpoint_id, algorithm=self.name,
                image=image.index)
        self._begin(run)
        if not run.deferred:
            self._advance(run)
        return run

    def _begin(self, run: CheckpointRun) -> None:
        """Default begin: write the begin-checkpoint marker (Section 3.1)."""
        self._write_begin_marker(run)

    def _write_begin_marker(self, run: CheckpointRun,
                            timestamp: int = 0) -> None:
        active = (self.txn_manager.active_transaction_ids()
                  if self.txn_manager is not None else [])
        run.begin_marker = self.log.append_begin_checkpoint(
            checkpoint_id=run.checkpoint_id,
            timestamp=timestamp,
            active_txns=active,
            image=run.image.index,
        )
        if self.spans.enabled:
            self.spans.emit("ckpt.begin", self.engine.now, 0.0,
                            parent=run.span,
                            checkpoint_id=run.checkpoint_id)
        if self.faults is not None:
            self.faults.on_checkpoint_phase("begin", run.checkpoint_id, 0)

    def _advance(self, run: CheckpointRun) -> None:
        """Drive the sweep: process segments while pump slots are free."""
        if run is not self.current or run.finished:
            return
        n = self.database.n_segments
        while run.position < n and run.outstanding < self.io_depth:
            index = run.position
            run.position += 1
            self._process_segment(run, index)
        if run.position >= n and run.outstanding == 0:
            self._finish(run)

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        """Handle one segment of the sweep (algorithm-specific)."""
        raise NotImplementedError

    def _finish(self, run: CheckpointRun) -> None:
        if self.faults is not None:
            # "end" fires with every segment secured but the end marker
            # not yet logged: the checkpoint must be unusable to recovery.
            self.faults.on_checkpoint_phase("end", run.checkpoint_id,
                                            run.segments_flushed)
        if self.spans.enabled:
            self.spans.emit("ckpt.end", self.engine.now, 0.0,
                            parent=run.span, checkpoint_id=run.checkpoint_id)
        run.finished = True
        self._end(run)
        begin_lsn = run.begin_marker.lsn if run.begin_marker is not None else 0
        run.image.complete_checkpoint(run.checkpoint_id,
                                      began_at=run.began_at,
                                      begin_lsn=begin_lsn)
        self.log.append_end_checkpoint(run.checkpoint_id, run.image.index)
        self._force_log_flush()
        if self.truncate_log:
            # Recovery replays from the begin marker of whichever complete
            # image it ends up using.  Normally that is the checkpoint
            # that just finished -- but if *this* image is later lost to a
            # media failure, recovery falls back to the sibling, so the
            # safe truncation point is the OLDER of the two images' begin
            # markers.  (Our transactions write all their log records at
            # commit, so the FUZZYCOPY active-transaction extension never
            # reaches back before a marker.)
            begin_lsns = [image.completed_begin_lsn
                          for image in self.backup.images
                          if image.is_complete]
            if len(begin_lsns) == 2 and min(begin_lsns) > 0:
                self.log.truncate_stable_before(min(begin_lsns))
        stats = CheckpointStats(
            checkpoint_id=run.checkpoint_id,
            image=run.image.index,
            began_at=run.began_at,
            ended_at=self.engine.now,
            segments_flushed=run.segments_flushed,
            segments_skipped=run.segments_skipped,
            buffer_copies=run.buffer_copies,
            cou_copies=run.cou_copies,
            words_written=run.words_written,
            quiesce_time=run.quiesce_time,
            wal_wait_time=run.wal_wait_time,
            io_time=run.io_time,
        )
        self.history.append(stats)
        self.current = None
        if self.spans.enabled:
            self.spans.end(run.span,
                           segments_flushed=stats.segments_flushed,
                           segments_skipped=stats.segments_skipped,
                           words_written=stats.words_written)
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            registry.count("ckpt.completed")
            registry.count("ckpt.segments_flushed", stats.segments_flushed)
            registry.count("ckpt.segments_skipped", stats.segments_skipped)
            registry.count("ckpt.buffer_copies", stats.buffer_copies)
            registry.count("ckpt.cou_copies", stats.cou_copies)
            registry.count("ckpt.words_written", stats.words_written)
            registry.observe("ckpt.duration", stats.duration)
            registry.observe("ckpt.quiesce_time", stats.quiesce_time)
            registry.observe("ckpt.wal_wait_time", stats.wal_wait_time)
            registry.observe("ckpt.io_time", stats.io_time)
        if self.on_complete is not None:
            self.on_complete(stats)

    def _end(self, run: CheckpointRun) -> None:
        """Algorithm-specific completion work (default: none)."""

    def _force_log_flush(self) -> None:
        """Flush the log tail, charging the I/O initiation if needed."""
        result = self.log.flush()
        if result.records:
            self.ledger.charge_io(synchronous=False)

    def crash(self) -> None:
        """A system failure wipes the checkpointer's volatile state."""
        self.current = None

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _charge_scope_check(self) -> None:
        """Partial checkpoints test each segment's dirty state."""
        if self.scope is CheckpointScope.PARTIAL:
            self.ledger.charge_dirty_check(synchronous=False)

    def _image_needs(self, run: CheckpointRun, index: int,
                     data_timestamp: float) -> bool:
        """The flush decision for data stamped ``data_timestamp``."""
        if self.scope is CheckpointScope.FULL:
            return True
        return run.image.needs_segment(index, data_timestamp)

    def _issue_write(
        self,
        run: CheckpointRun,
        index: int,
        data: np.ndarray,
        data_timestamp: float,
        *,
        reflected_lsn: int = 0,
        on_written: Optional[Callable[[], None]] = None,
    ) -> None:
        """Submit one segment write; the caller already holds a pump slot.

        ``reflected_lsn`` is re-asserted against the stable log right
        before the bytes leave primary memory (the WAL invariant check).
        """
        if not self.log.is_stable(reflected_lsn):
            # Build the context string only on the failure path: the
            # happy path runs once per segment write.
            self.log.assert_wal(reflected_lsn,
                                context=f"{self.name} segment {index}")
        self.ledger.charge_io_async()
        issued_at = self.engine.now
        io_span = (self.spans.begin("ckpt.io", parent=run.span, segment=index)
                   if self.spans.enabled else -1)
        self.writer.write(
            run.image, index, data, data_timestamp,
            lambda: self._write_done(run, index, data, data_timestamp,
                                     on_written, issued_at, io_span),
        )

    def _write_done(
        self,
        run: CheckpointRun,
        index: int,
        data: np.ndarray,
        data_timestamp: float,
        on_written: Optional[Callable[[], None]],
        issued_at: float = 0.0,
        io_span: int = -1,
    ) -> None:
        if io_span >= 0:
            self.spans.end(io_span)
        if run is not self.current:
            return  # a crash abandoned this run; the write never completed
        if self.telemetry.enabled:
            # Phase accumulators (io_time, wal_wait_time) are collected
            # only under telemetry: the clock reads are hot enough to
            # show up in the disabled path's event loop otherwise.
            latency = self.engine.now - issued_at
            run.io_time += latency
            self.telemetry.registry.observe("ckpt.write_latency", latency)
        run.image.write_segment(index, data, data_timestamp)
        run.segments_flushed += 1
        run.words_written += self.params.s_seg
        if self.faults is not None:
            # "sweep" fires with the N-th segment write fully durable in
            # the image but later segments (and the end marker) lost.
            self.faults.on_checkpoint_phase("sweep", run.checkpoint_id,
                                            run.segments_flushed)
        self._maintain_dirty_bit(index)
        if on_written is not None:
            on_written()
        run.release_slot()
        self._advance(run)

    def _buffer_freed(self) -> None:
        """Charge the checkpoint buffer's deallocation (write completed)."""
        self.ledger.charge_alloc_async()

    def _maintain_dirty_bit(self, index: int) -> None:
        """Clear the paper's dirty bit once *both* images are fresh."""
        table = self.database.table
        timestamp = table.timestamp[index]
        for image in self.backup.images:
            if image.needs_segment(index, timestamp):
                return
        table.dirty[index] = False

    def _flush_via_buffer(
        self,
        run: CheckpointRun,
        index: int,
        *,
        reflected_lsn: int,
        on_written: Optional[Callable[[], None]] = None,
    ) -> None:
        """COPY-style path: buffer the segment, await WAL, then write.

        Charges the buffer allocation, the copy (one instruction per
        word), and -- when the algorithm uses LSNs -- the stability check.
        Holds a pump slot from the copy until the image write completes,
        which is what bounds checkpointer buffer memory to
        ``io_depth`` segments.
        """
        database = self.database
        data = database.segment_values(index).copy()
        data_timestamp = float(database.table.timestamp[index])
        run.hold_slot()
        run.buffer_copies += 1
        buffered_at = self.engine.now if self.telemetry.enabled else 0.0
        wal_span = (self.spans.begin("ckpt.wal_wait", parent=run.span,
                                     segment=index)
                    if self.spans.enabled else -1)
        self.ledger.charge_segment_buffer(self.params.s_seg,
                                          with_lsn_check=self.uses_lsns)

        if on_written is None:
            # Common case (plain sweep): a cached bound method instead of
            # allocating a fresh closure per buffered segment.
            written: Callable[[], None] = self._buffer_freed
        else:
            extra = on_written

            def written() -> None:
                self.ledger.charge_alloc_async()  # buffer free
                extra()

        if self.log.is_stable(reflected_lsn):
            # Fast path: no WAL wait.  The records this copy reflects are
            # already durable, so the write is issued immediately -- no
            # continuation closure, no waiter heap traffic.
            if self.telemetry.enabled:
                # a zero-width wait still counts one observation
                run.wal_wait_time += self.engine.now - buffered_at
                self.telemetry.registry.observe(
                    "ckpt.wal_wait", self.engine.now - buffered_at)
            if wal_span >= 0:
                self.spans.end(wal_span)
            self._issue_write(run, index, data, data_timestamp,
                              reflected_lsn=reflected_lsn, on_written=written)
            return

        def stable() -> None:
            if run is not self.current:
                return  # crash while waiting for the log flush
            if self.telemetry.enabled:
                wal_wait = self.engine.now - buffered_at
                run.wal_wait_time += wal_wait
                self.telemetry.registry.observe("ckpt.wal_wait", wal_wait)
            if wal_span >= 0:
                self.spans.end(wal_span)
            self._issue_write(run, index, data, data_timestamp,
                              reflected_lsn=reflected_lsn, on_written=written)

        self.log.when_stable(reflected_lsn, stable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "idle"
        return f"{type(self).__name__}({self.name}, {state})"
