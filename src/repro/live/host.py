"""The assembled live MMDBMS: kernel components on the wall-clock host.

:class:`LiveHost` wires the *same* kernel classes the simulator uses --
:class:`~repro.mmdb.database.Database`, the log manager (as
:class:`~repro.live.wal.DurableLog`),
:class:`~repro.checkpoint.scheduler.CheckpointScheduler`,
:class:`~repro.sim.oracle.CommittedStateOracle`,
:class:`~repro.obs.spans.SpanRecorder` -- to the live port
implementations (:class:`~repro.live.clock.WallClock`,
:class:`~repro.live.scheduler.LiveScheduler`).  The one component with
no simulated counterpart is :class:`LiveCheckpointer`: the simulated
checkpointers model disk time event by event, while the live one spends
real time writing a real image, so it reimplements the *protocol* (an
action-consistent snapshot installed atomically, then log truncation)
against :class:`~repro.live.store.ImageStore`.  It still satisfies
:class:`~repro.sim.ports.CheckpointerPort`, so the kernel's checkpoint
scheduler paces it unmodified.

Concurrency model: every kernel mutation happens on the dispatcher
thread (see :class:`LiveScheduler`).  Socket workers enqueue operations
and wait; the checkpoint image writer runs on its own thread but touches
only its private snapshot copy and the image store, re-entering the
dispatcher to finish.  The durability contract is the simulator's WAL
rule made physical: a transaction is acknowledged only after the group
flush that fsynced its commit record, and a checkpoint truncates the log
only after its image rename is durable.  A commit asks for that flush
itself (:meth:`LiveHost._request_flush`); the periodic tick only bounds
how long a record nobody waits on stays volatile.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.base import CheckpointStats
from ..checkpoint.scheduler import CheckpointPolicy, CheckpointScheduler
from ..errors import ConfigurationError, InvalidStateError
from ..mmdb.database import Database
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..params import SystemParameters
from ..recovery.replay import RedoApplier
from ..sim.oracle import CommittedStateOracle, RecordMismatch
from ..wal.records import CommitRecord
from .clock import WallClock
from .scheduler import LiveScheduler
from .store import ImageStore
from .wal import DurableLog, gc_paused

__all__ = ["LiveConfig", "LiveCheckpointer", "LiveHost", "RecoveryInfo"]

#: bisection key for the LSN-ordered recovered log
_record_lsn = attrgetter("lsn")


@dataclass(frozen=True)
class LiveConfig:
    """Everything that defines one live service instance."""

    #: directory holding ``wal.jsonl`` and ``checkpoint.npz``
    data_dir: str
    #: :meth:`SystemParameters.scaled_down` divisor (database sizing)
    scale: int = 2048
    #: seconds between checkpoint starts; None disables checkpointing
    checkpoint_interval: Optional[float] = 2.0
    #: seconds between periodic WAL flushes: the longest a record nobody
    #: waits on (a checkpoint's begin marker) stays volatile.  A commit
    #: does not wait for it -- it asks for its own group flush
    flush_interval: float = 0.005
    #: fsync the WAL file on every group flush (off only in tests)
    fsync: bool = True
    #: record txn/ckpt spans for the stall-attribution report
    spans: bool = True

    def __post_init__(self) -> None:
        if self.flush_interval <= 0:
            raise ConfigurationError("flush_interval must be positive, got "
                                     f"{self.flush_interval!r}")


class RecoveryInfo(NamedTuple):
    """What restart found on disk and what REDO did with it."""

    #: checkpoint id of the image recovery started from (None: cold start)
    checkpoint_id: Optional[int]
    #: LSN horizon of that image (0 on a cold start)
    base_lsn: int
    #: durable log records read from the WAL file
    records_scanned: int
    #: committed transactions whose effects REDO re-applied
    transactions_replayed: int
    #: update records dropped (commit never became durable)
    updates_dropped: int
    #: whether a torn final WAL line (crash mid-flush) was discarded
    torn_tail: bool

    def as_dict(self) -> dict:
        return {
            "checkpoint_id": self.checkpoint_id,
            "base_lsn": self.base_lsn,
            "records_scanned": self.records_scanned,
            "transactions_replayed": self.transactions_replayed,
            "updates_dropped": self.updates_dropped,
            "torn_tail": self.torn_tail,
        }


class CommitResult(NamedTuple):
    """Acknowledgement of one durably committed transaction."""

    txn_id: int
    commit_lsn: int
    #: seconds from submission to durable acknowledgement
    latency: float


class LiveCheckpointer:
    """Action-consistent atomic-rename checkpoints on real time.

    Satisfies :class:`~repro.sim.ports.CheckpointerPort`.  One
    checkpoint is four steps:

    1. *(dispatcher)* group-flush the WAL, record the stable horizon
       ``base_lsn``, append the begin marker, and copy the value array.
       Because the dispatcher serialises transactions, the copy is
       action-consistent: it reflects exactly the committed, durable
       state at ``base_lsn`` (transactions are installed atomically with
       their commit append).
    2. *(writer thread)* write the copy to the image store -- temp file,
       fsync, atomic rename.  Transaction processing continues
       unblocked; only step 1 sits in the dispatch stream.
    3. *(dispatcher)* append and flush the end marker.
    4. *(dispatcher)* truncate the durable log below ``base_lsn + 1``.

    A SIGKILL anywhere leaves a recoverable disk state: before the
    rename the old image plus the untruncated log recover; after it the
    new image plus the (possibly still untruncated) log recover, because
    value REDO records are idempotent.  A *failed* image write (ENOSPC,
    EIO) is the same state reached without dying: steps 3 and 4 are
    skipped, the failure is counted in ``checkpoints_failed`` and kept
    in ``host.scheduler.errors``, and the checkpointer is idle again for
    the next attempt.
    """

    name = "LIVECOPY"

    def __init__(self, host: "LiveHost") -> None:
        self.host = host
        self.params = host.params
        self.history: List[CheckpointStats] = []
        self.on_complete: Optional[Callable[[CheckpointStats], None]] = None
        self.checkpoints_started = 0
        self.checkpoints_failed = 0
        self._active = False
        #: (phase, seconds) the writer parks at, for crash tests
        self._hold: Optional[Tuple[str, float]] = None

    # -- CheckpointerPort ----------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def attach_transaction_manager(self, manager) -> None:
        """No quiesce protocol: the dispatcher already serialises."""

    def crash(self) -> None:
        self._active = False

    # -- crash-test hook -----------------------------------------------------
    def arm_hold(self, phase: str, seconds: float) -> None:
        """Make the next checkpoint's writer sleep at ``phase``.

        ``phase`` is ``"pre-install"`` (image written, rename pending)
        or ``"post-install"`` (renamed, end marker / truncation
        pending).  The live-smoke tests arm a hold, start a checkpoint,
        and SIGKILL the process inside the window.
        """
        if phase not in ("pre-install", "post-install"):
            raise InvalidStateError(f"unknown hold phase {phase!r}")
        self._hold = (phase, seconds)

    # -- the checkpoint ------------------------------------------------------
    def start_checkpoint(self) -> None:
        """Begin a checkpoint (dispatcher thread only)."""
        if self._active:
            raise InvalidStateError("a checkpoint is already in progress")
        host = self.host
        self._active = True
        self.checkpoints_started += 1
        checkpoint_id = self.checkpoints_started
        began_at = host.clock.now
        spans = host.spans
        root = spans.begin("ckpt", algorithm=self.name,
                           checkpoint_id=checkpoint_id)
        host.flush_log()
        base_lsn = host.log.stable_lsn
        host.log.append_begin_checkpoint(
            checkpoint_id, timestamp=began_at, active_txns=(), image=0)
        snapshot = host.database.values_snapshot()
        if spans.enabled:
            spans.emit("ckpt.snapshot", began_at, host.clock.now - began_at,
                       parent=root, records=int(snapshot.size))
        hold = self._hold
        self._hold = None

        def failed(exc: Exception) -> None:
            # (dispatcher) Nothing to undo: the image on disk plus the
            # untruncated log still recover every acked commit.
            spans.end(root, error=repr(exc))
            self._active = False
            self.checkpoints_failed += 1
            host.scheduler.errors.append(exc)
            if self.on_complete is not None:
                # Not in ``history``; the pacing only needs ``began_at``.
                self.on_complete(CheckpointStats(
                    checkpoint_id=checkpoint_id, image=0,
                    began_at=began_at, ended_at=host.clock.now,
                    segments_flushed=0, segments_skipped=0,
                    buffer_copies=0, cou_copies=0, words_written=0))

        def writer() -> None:
            write_began = host.clock.now
            try:
                host.store.install(checkpoint_id, base_lsn, snapshot,
                                   hold=self._maybe_hold_for(hold))
            except Exception as exc:  # thread boundary: report, don't die
                host.scheduler.submit(partial(failed, exc))
                return
            write_ended = host.clock.now

            def finish() -> None:
                if spans.enabled:
                    spans.emit("ckpt.install", write_began,
                               write_ended - write_began, parent=root,
                               checkpoint_id=checkpoint_id)
                host.log.append_end_checkpoint(checkpoint_id, image=0)
                host.flush_log()
                truncate_began = host.clock.now
                reclaimed = host.log.truncate_stable_before(base_lsn + 1)
                ended_at = host.clock.now
                if spans.enabled:
                    spans.emit("ckpt.truncate", truncate_began,
                               ended_at - truncate_began, parent=root,
                               words_reclaimed=reclaimed)
                spans.end(root, base_lsn=base_lsn)
                stats = CheckpointStats(
                    checkpoint_id=checkpoint_id, image=0,
                    began_at=began_at, ended_at=ended_at,
                    segments_flushed=host.database.n_segments,
                    segments_skipped=0, buffer_copies=0, cou_copies=0,
                    words_written=int(snapshot.size) * self.params.s_rec,
                    io_time=write_ended - write_began)
                self._active = False
                self.history.append(stats)
                if self.on_complete is not None:
                    self.on_complete(stats)

            host.scheduler.submit(finish)

        threading.Thread(target=writer, name="ckpt-writer",
                         daemon=True).start()

    def _maybe_hold_for(self, hold: Optional[Tuple[str, float]]):
        if hold is None:
            return None

        def parked(phase: str) -> None:
            if hold[0] == phase:
                time.sleep(hold[1])

        return parked


class LiveHost:
    """The live service: durable WAL + database + paced checkpoints."""

    name = "live"

    def __init__(self, config: LiveConfig,
                 params: Optional[SystemParameters] = None) -> None:
        self.config = config
        self.params = (params if params is not None
                       else SystemParameters.scaled_down(config.scale))
        self.clock = WallClock()
        self.scheduler = LiveScheduler(self.clock)
        self.spans = (SpanRecorder(enabled=True, clock=self.clock)
                      if config.spans else NULL_SPANS)
        self.database = Database(self.params)
        self.store = ImageStore(config.data_dir, fsync=config.fsync)
        self.log = DurableLog(self.params, self.wal_path,
                              fsync=config.fsync, spans=self.spans)
        self.oracle = CommittedStateOracle(self.params)
        self.checkpointer = LiveCheckpointer(self)
        self.checkpoint_scheduler: Optional[CheckpointScheduler] = None
        if config.checkpoint_interval is not None:
            self.checkpoint_scheduler = CheckpointScheduler(
                self.checkpointer, self.scheduler,
                CheckpointPolicy(interval=config.checkpoint_interval,
                                 initial_delay=config.checkpoint_interval))
        self._next_txn_id = 1
        self.commits = 0
        #: a commit-requested group flush is queued on the dispatcher
        self._flush_requested = False
        self._stopping = False
        self._started = False
        #: where restart spent its time (set by :meth:`recover`); kept
        #: out of :class:`RecoveryInfo`, which must be identical for
        #: every restart from the same disk state
        self.recovery_timing: dict = {}

    @property
    def wal_path(self) -> Path:
        return Path(self.config.data_dir) / "wal.jsonl"

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> RecoveryInfo:
        """Recover from disk, then start dispatching and checkpointing."""
        if self._started:
            raise InvalidStateError("host already started")
        recovery = self.recover()
        self._started = True
        self.scheduler.start()
        self.scheduler.schedule_after(self.config.flush_interval,
                                      self._flush_tick, label="wal flush")
        if self.checkpoint_scheduler is not None:
            self.checkpoint_scheduler.start()
        return recovery

    def stop(self) -> None:
        """Flush, stop pacing, stop the dispatcher, release the WAL file."""
        if not self._started:
            return
        self._stopping = True
        if self.checkpoint_scheduler is not None:
            self.checkpoint_scheduler.stop()
        try:
            self.scheduler.call(self.flush_log)
        finally:
            # a log that can no longer flush says so (WALFailedError),
            # but the dispatcher and the file are released all the same
            self.scheduler.stop()
            self.log.close()
            self._started = False

    # -- recovery ------------------------------------------------------------
    def recover(self) -> RecoveryInfo:
        """Rebuild state from the image + durable WAL (restart + REDO).

        Runs before the dispatcher starts, so it owns all state (and
        pauses the cyclic GC: see :func:`~repro.live.wal.gc_paused`).
        The WAL is not read here: opening the :class:`DurableLog`
        already decoded it once to repair a torn tail, and its
        ``recovered_records`` are consumed as they are, with no pass of
        their own: the log is LSN-ordered, so the replay start is a
        bisection.  The oracle is seeded from the same disk artifacts
        and replays the same records through its *own* applier, which
        keeps the verification independent of this method's
        bookkeeping.
        """
        with gc_paused():
            began = time.perf_counter()
            log = self.log
            records = log.recovered_records
            image = self.store.load()
            image_loaded = time.perf_counter()
            checkpoint_id: Optional[int] = None
            base_lsn = 0
            base = np.zeros(self.params.n_records, dtype=np.int64)
            if image is not None:
                checkpoint_id = image.checkpoint_id
                base_lsn = image.base_lsn
                base = image.values.astype(np.int64, copy=True)
                self.checkpointer.checkpoints_started = checkpoint_id
            # Records at or below the image's horizon are already reflected
            # in it; value REDO is idempotent, so replaying them anyway
            # would also be correct -- skipping is just less work.
            replay = records[bisect_right(records, base_lsn, key=_record_lsn):]
            redo_began = time.perf_counter()
            self.oracle.seed_values(base)
            self.oracle.feed(replay)
            applier = RedoApplier(base)
            applier.feed(replay)
            counts = applier.finish()
            redo_ended = time.perf_counter()
            self.database.load_values(base)
            # Transaction ids are allocated in LSN order on the dispatcher,
            # so the last record that carries one carries the largest.
            for record in reversed(records):
                txn_id = getattr(record, "txn_id", None)
                if txn_id is not None:
                    self._next_txn_id = txn_id + 1
                    break
            n_records = len(records)
            log.hydrate(records)
            total = log.scan_seconds + (time.perf_counter() - began)
            self.recovery_timing = {
                "wal_bytes": log.scanned_bytes,
                "records": n_records,
                "repaired_bytes": log.repaired_bytes,
                "scan_s": log.scan_seconds,
                "image_load_s": image_loaded - began,
                "redo_s": redo_ended - redo_began,
                "total_s": total,
                "records_per_s": n_records / total,
            }
            return RecoveryInfo(
                checkpoint_id=checkpoint_id, base_lsn=base_lsn,
                records_scanned=n_records,
                transactions_replayed=counts.transactions_committed,
                updates_dropped=counts.updates_dropped,
                # the open-time repair already cut the tear off the file
                torn_tail=log.repaired_bytes > 0)

    # -- transaction path ----------------------------------------------------
    def submit(self, updates: Sequence[Tuple[int, int]],
               timeout: float = 30.0) -> CommitResult:
        """Durably commit one transaction writing ``(record_id, value)``
        pairs.  Callable from any thread; blocks until the commit record
        is fsynced, then returns the acknowledgement.  The transaction
        asks for the group flush itself (:meth:`_request_flush`), so it
        shares one write + fsync with whatever else was waiting, and
        waits for no timer.  A log that has failed a flush rejects the
        transaction at once with :class:`~repro.errors.WALFailedError`.
        """
        if not updates:
            raise InvalidStateError("a transaction must write something")
        submitted_at = self.clock.now
        done = threading.Event()
        box: List = [None, None]

        def execute() -> None:
            started_at = self.clock.now
            try:
                txn_id, commit = self._log_and_install(updates, started_at)
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                box[1] = exc
                done.set()
                return
            executed_at = self.clock.now

            def acknowledged() -> None:
                acked_at = self.clock.now
                spans = self.spans
                if spans.enabled:
                    root = spans.emit("txn", submitted_at,
                                      acked_at - submitted_at,
                                      outcome="commit", txn_id=txn_id)
                    # Queue wait behind the dispatcher: the live
                    # analogue of a lock wait (during a checkpoint's
                    # synchronous phase it *is* checkpoint-induced, and
                    # attribution splits it by overlap exactly as in
                    # the simulator).
                    spans.emit("txn.lock_wait", submitted_at,
                               started_at - submitted_at, parent=root)
                    spans.emit("txn.cpu", started_at,
                               executed_at - started_at, parent=root)
                self.commits += 1
                box[0] = CommitResult(txn_id=txn_id, commit_lsn=commit.lsn,
                                      latency=acked_at - submitted_at)
                done.set()

            self.log.when_stable(commit.lsn, acknowledged)
            self._request_flush()

        self.scheduler.submit(execute)
        if not done.wait(timeout):
            raise TimeoutError(
                f"commit not acknowledged within {timeout}s")
        if box[1] is not None:
            raise box[1]
        return box[0]

    def _log_and_install(self, updates: Sequence[Tuple[int, int]],
                         timestamp: float) -> Tuple[int, CommitRecord]:
        """Validate, log, install and commit-mark one transaction
        (dispatcher thread only); a constant number of calls whatever
        its size.

        The whole transaction is validated before its first record is
        logged -- every id a record's, every value an int64 -- so a
        rejected one raises with nothing logged, nothing installed and
        no transaction id spent.  So does one that arrives after a
        failed flush: it could never be acknowledged.
        """
        self.log.raise_if_failed()
        record_ids = np.array([record_id for record_id, _ in updates],
                              dtype=np.int64)
        values = np.array([value for _, value in updates], dtype=np.int64)
        self.database.check_record_ids(record_ids)
        txn_id = self._next_txn_id
        self._next_txn_id = txn_id + 1
        log = self.log
        first_lsn = log.last_lsn + 1
        # logged from the arrays, so the log holds what is installed
        log.append_updates(txn_id, zip(record_ids.tolist(), values.tolist()))
        self.database.install_records(record_ids, values,
                                      timestamp=timestamp,
                                      first_lsn=first_lsn)
        return txn_id, log.append_commit(txn_id)

    def read(self, record_id: int) -> int:
        """Read one record's current value (dispatcher-serialised)."""
        return self.scheduler.call(
            lambda: self.database.read_record(record_id))

    # -- internals -----------------------------------------------------------
    def flush_log(self) -> None:
        """Group flush + oracle drain (dispatcher thread only)."""
        self.log.flush()
        self.oracle.feed(self.log.drain_newly_stable())

    def _request_flush(self) -> None:
        """Ask for a group flush on behalf of a waiting commit
        (dispatcher thread only).

        The first commit to ask queues one flush callback, which runs
        behind every callback already ready -- so each transaction that
        was waiting to execute joins the batch -- and whatever arrives
        while that flush is fsyncing asks for the next one.  The batch
        follows the load: no delay, no size threshold.
        """
        if not self._flush_requested:
            self._flush_requested = True
            self.scheduler.submit(self._requested_flush)

    def _requested_flush(self) -> None:
        # cleared first: a flush that raises must not wedge the trigger
        self._flush_requested = False
        self.flush_log()

    def _flush_tick(self) -> None:
        """The periodic flush: the upper bound on how long a record
        nobody is waiting on stays volatile."""
        self.flush_log()
        if not self._stopping:
            self.scheduler.schedule_after(self.config.flush_interval,
                                          self._flush_tick,
                                          label="wal flush")

    # -- verification --------------------------------------------------------
    def verify(self, limit: int = 10) -> List[RecordMismatch]:
        """Oracle vs. database, quiesced through the dispatcher.

        Flushes first so in-flight (installed but not yet durable)
        updates reach the oracle before the comparison -- the live
        analogue of the simulator's drain-before-verify.
        """
        def check() -> List[RecordMismatch]:
            self.flush_log()
            return self.oracle.mismatch_report(
                self.database.values_snapshot(), limit=limit)

        if self._started:
            return self.scheduler.call(check)
        return self.oracle.mismatch_report(self.database.values_snapshot(),
                                           limit=limit)

    def spans_snapshot(self) -> List[dict]:
        """The span list, snapshotted on the dispatcher (race-free)."""
        if not self.spans.enabled:
            return []
        if self._started:
            return self.scheduler.call(self.spans.snapshot)
        return self.spans.snapshot()

    def stats(self) -> dict:
        return {
            "commits": self.commits,
            "checkpoints_completed": len(self.checkpointer.history),
            "checkpoints_failed": self.checkpointer.checkpoints_failed,
            "checkpoint_active": self.checkpointer.active,
            "stable_lsn": self.log.stable_lsn,
            "wal_flushes": self.log.flush_count,
            "wal_fsyncs": self.log.fsync_count,
            "now": self.clock.now,
            "n_records": self.params.n_records,
            "recovery_timing": self.recovery_timing,
        }
