"""The assembled live MMDBMS: kernel components on the wall-clock host.

:class:`LiveHost` wires the *same* kernel classes the simulator uses --
:class:`~repro.mmdb.database.Database`, the log manager (as
:class:`~repro.live.wal.DurableLog`),
:class:`~repro.checkpoint.scheduler.CheckpointScheduler`,
:class:`~repro.recovery.replay.RedoApplier`,
:class:`~repro.obs.spans.SpanRecorder` -- to the live port
implementations (:class:`~repro.live.clock.WallClock`,
:class:`~repro.live.scheduler.LiveScheduler`, or a scheduler handed
in).  The one component with no simulated counterpart is
:class:`LiveCheckpointer`: the simulated checkpointers model disk time
event by event, while the live one spends real time writing a real
image, so it reimplements the *protocol* (an action-consistent snapshot
installed atomically, then log truncation) against
:class:`~repro.live.store.ImageStore`.  It still satisfies
:class:`~repro.sim.ports.CheckpointerPort`, so the kernel's checkpoint
scheduler paces it unmodified.

The host keeps no second copy of the database: :meth:`LiveHost.verify`
checks it against the state rebuilt from the image and WAL files.
Restart (:meth:`LiveHost.recover`, which opens the log) reads each file
once and holds neither whole: the image is loaded into the array that
becomes the database's, then the WAL is streamed a frame at a time into
REDO, so its peak memory does not grow with the log.

Concurrency model: every kernel mutation happens in a scheduler
callback (see :class:`LiveScheduler`, whose one dispatcher thread also
reads and answers the server's sockets); the host holds no thread.  Its
cores, :meth:`LiveHost.commit` and :meth:`LiveHost.fetch`, take a
callback that gets the outcome, and the server calls them on the
dispatcher itself; only a blocking caller (``submit``, ``read``, and
the tests) goes through the scheduler's ``wait``.  The checkpoint image
writer is ``offload``-ed but touches only its private snapshot copy and
the image store, re-entering the dispatcher to finish.  The durability
contract is the simulator's WAL rule made physical: a transaction is
acknowledged only after the group flush that fsynced its commit record,
a read answers only with a value whose segment's log records are
stable, and a checkpoint truncates the log only after its image rename
is durable.  A commit or read that has to wait asks for that flush
itself (:meth:`LiveHost._request_flush`); the periodic tick only bounds
how long a record nobody waits on stays volatile.
"""

from __future__ import annotations

import time
import traceback
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.scheduler import (CheckpointPolicy, CheckpointScheduler,
                                    CheckpointStats)
from ..errors import (AddressError, ConfigurationError, InvalidStateError,
                      WALFormatError)
from ..mmdb.database import Database
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..params import SystemParameters
from ..recovery.replay import RecordMismatch, RedoApplier, ReplayCounts
from ..wal.records import CommitRecord, LogRecord, log_updates
from .files import Files
from .scheduler import LiveScheduler
from .store import ImageStore, StoredImage
from .wal import DurableLog, gc_paused, read_wal

__all__ = ["LiveConfig", "LiveCheckpointer", "LiveHost", "RecoveryInfo",
           "transaction_columns"]

#: bisection key for an LSN-ordered batch of log records
_record_lsn = attrgetter("lsn")


@dataclass(frozen=True)
class LiveConfig:
    """Everything that defines one live service instance."""

    #: directory holding ``wal.log`` (the framed WAL) and
    #: ``checkpoint.npz``
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
    #: durable log records read from the WAL file (one per update,
    #: outcome and marker, however the updates were framed)
    records_scanned: int
    #: committed transactions whose effects REDO re-applied
    transactions_replayed: int
    #: update records dropped (commit never became durable)
    updates_dropped: int
    #: whether a torn final WAL frame (crash mid-flush) was discarded
    torn_tail: bool

    def as_dict(self) -> dict:
        return self._asdict()


class CommitResult(NamedTuple):
    """Acknowledgement of one durably committed transaction."""

    txn_id: int
    commit_lsn: int
    #: seconds from submission to durable acknowledgement
    latency: float


def transaction_columns(updates: Sequence[Tuple[int, int]]
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """A transaction's ``(record_id, value)`` pairs as two little-endian
    int64 columns, from one conversion.

    Only ``int`` is taken: a float, a string or a bool is refused
    (``TypeError``) rather than coerced, and so is anything but pairs; a
    value outside int64 raises ``OverflowError``, and no pairs at all
    ``InvalidStateError``.
    """
    if not updates:
        raise InvalidStateError("a transaction must write something")
    pairs = None
    if set(map(type, chain.from_iterable(updates))) == {int}:
        pairs = np.array(updates, dtype="<i8")
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise TypeError("a transaction is [record, value] pairs of integers")
    return pairs[:, 0], pairs[:, 1]


class _Replay:
    """REDO from a checkpoint image: the image's values (zeros before
    the first checkpoint), uncopied, into which :meth:`feed` replays
    durable records, a batch at a time in LSN order, skipping those at
    or below the image's ``base_lsn``.  The batched
    :meth:`RedoApplier.feed` replays them; ``reference=True`` takes the
    per-record :meth:`RedoApplier.feed_each`."""

    def __init__(self, image: Optional[StoredImage], n_records: int, *,
                 reference: bool = False) -> None:
        if image is None:
            self.values, self.base_lsn = np.zeros(n_records, np.int64), 0
        else:
            self.values = np.require(image.values, np.int64, ["C", "W"])
            self.base_lsn = image.base_lsn
        self.applier = RedoApplier(self.values)
        self._feed = (self.applier.feed_each if reference
                      else self.applier.feed)

    def feed(self, records: Sequence[LogRecord]) -> None:
        replay = records[bisect_right(records, self.base_lsn,
                                      key=_record_lsn):]
        if replay:
            self._feed(replay)


def replay_durable(image: Optional[StoredImage],
                   records: Sequence[LogRecord], n_records: int, *,
                   reference: bool = False
                   ) -> Tuple[np.ndarray, ReplayCounts]:
    """What a restart from ``image`` and the durable ``records`` (in
    LSN order) holds, with the replay's counts: the image's values with
    every record above its ``base_lsn`` replayed into them, in one
    batch.  :meth:`LiveHost.recover` replays the same way a frame at a
    time; ``reference=True`` takes the per-record
    :meth:`RedoApplier.feed_each`, so :meth:`LiveHost.verify` does not
    share the path it checks.
    """
    replay = _Replay(image, n_records, reference=reference)
    replay.feed(records)
    return replay.values, replay.applier.finish()


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
    2. *(offloaded)* write the copy to the image store -- temp file,
       fsync, atomic rename.  Transaction processing continues
       unblocked; only step 1 sits in the dispatch stream.
    3. *(dispatcher)* append and flush the end marker.
    4. *(dispatcher)* truncate the durable log below ``base_lsn + 1``.

    A SIGKILL anywhere leaves a recoverable disk state: before the
    rename the old image plus the untruncated log recover; after it the
    new image plus the (possibly still untruncated) log recover, because
    value REDO records are idempotent.  A *failed* image write (ENOSPC,
    EIO) is the same state reached without dying: steps 3 and 4 are
    skipped, the failure is counted in ``checkpoints_failed``, the
    latest one is kept in ``last_failure`` with its traceback frames
    cleared (so no failed checkpoint keeps its snapshot alive), and the
    checkpointer is idle again for the next attempt.  A failed step 3
    or 4 counts the same way; the log then keeps appending to its old
    file, or is fail-stop if its rewrite failed at or after the rename
    (see :meth:`DurableLog.truncate_stable_before
    <repro.live.wal.DurableLog.truncate_stable_before>`).
    """

    name = "LIVECOPY"

    def __init__(self, host: "LiveHost") -> None:
        self.host = host
        self.params = host.params
        self.history: List[CheckpointStats] = []
        self.on_complete: Optional[Callable[[CheckpointStats], None]] = None
        self.checkpoints_started = 0
        self.checkpoints_failed = 0
        #: the latest failed checkpoint's exception, frames cleared
        self.last_failure: Optional[BaseException] = None
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
        host.log.flush()
        base_lsn = host.log.stable_lsn
        host.log.append_begin_checkpoint(
            checkpoint_id, timestamp=began_at, active_txns=(), image=0)
        # The writer takes the snapshot out of this list, so no frame of
        # this checkpoint that outlives the install holds it.
        snapshot = [host.database.values_snapshot()]
        records = int(snapshot[0].size)
        if spans.enabled:
            spans.emit("ckpt.snapshot", began_at, host.clock.now - began_at,
                       parent=root, records=records)
        hold = self._hold
        self._hold = None

        def failed(exc: Exception) -> None:
            # (dispatcher) Nothing to undo: the image on disk plus the
            # untruncated log still recover every acked commit.
            spans.end(root, error=repr(exc))
            self._active = False
            self.checkpoints_failed += 1
            # Keep the error, not the store's copy of the snapshot that
            # its frames (and those of any error it was raised over) hold.
            error: Optional[BaseException] = exc
            while error is not None:
                traceback.clear_frames(error.__traceback__)
                error = error.__context__
            self.last_failure = exc
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
                host.store.install(checkpoint_id, base_lsn, snapshot.pop(),
                                   hold=self._maybe_hold_for(hold))
            except Exception as exc:  # off the dispatcher: report it
                host.scheduler.submit(partial(failed, exc))
                return
            write_ended = host.clock.now

            def finish() -> None:
                if spans.enabled:
                    spans.emit("ckpt.install", write_began,
                               write_ended - write_began, parent=root,
                               checkpoint_id=checkpoint_id)
                host.log.append_end_checkpoint(checkpoint_id, image=0)
                try:
                    host.log.flush()
                    truncate_began = host.clock.now
                    reclaimed = host.log.truncate_stable_before(base_lsn + 1)
                except Exception as exc:
                    failed(exc)
                    return
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
                    words_written=records * self.params.s_rec,
                    io_time=write_ended - write_began)
                self._active = False
                self.history.append(stats)
                if self.on_complete is not None:
                    self.on_complete(stats)

            host.scheduler.submit(finish)

        host.scheduler.offload(writer, label="ckpt-writer")

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
                 params: Optional[SystemParameters] = None,
                 files: Optional[Files] = None,
                 scheduler: Optional[LiveScheduler] = None) -> None:
        #: the filesystem port (tests hand in an in-memory one)
        self.files = files if files is not None else Files(config.fsync)
        legacy = Path(config.data_dir) / "wal.jsonl"
        if self.files.exists(legacy):
            raise WALFormatError(
                f"{legacy} is a JSON-line WAL of an earlier version; this "
                "version reads only the framed wal.log, and starting "
                "without that file would lose every commit it holds")
        self.config = config
        self.params = (params if params is not None
                       else SystemParameters.scaled_down(config.scale))
        #: runs every kernel callback (tests hand in an event engine)
        self.scheduler = scheduler if scheduler is not None else LiveScheduler()
        self.clock = self.scheduler.clock
        self.spans = (SpanRecorder(enabled=True, clock=self.clock)
                      if config.spans else NULL_SPANS)
        self.database = Database(self.params)
        self.store = ImageStore(config.data_dir, files=self.files)
        #: the WAL, opened by :meth:`recover` (which :meth:`start` runs)
        self.log: Optional[DurableLog] = None
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
        return Path(self.config.data_dir) / "wal.log"

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
            self.scheduler.call(self.log.flush)
        finally:
            # a log that can no longer flush says so (WALFailedError),
            # but the dispatcher and the file are released all the same
            self.scheduler.stop()
            self.log.close()
            self._started = False

    # -- recovery ------------------------------------------------------------
    def recover(self) -> RecoveryInfo:
        """Rebuild state from the image + durable WAL (restart + REDO),
        in one pass over each file, and open the log.

        Runs before the dispatcher starts, so it owns all state (and
        pauses the cyclic GC: see :func:`~repro.live.wal.gc_paused`).
        The image is loaded first.  Then the :class:`DurableLog` is
        opened, and its open-time scan -- the one read of the WAL file,
        which repairs a torn tail before anything can be appended --
        hands each whole frame's records straight to REDO (those above
        the image's ``base_lsn``, see :func:`replay_durable`) and keeps
        none of them.  So restart holds the image's values, one frame
        and REDO's buffers, never the whole file or its decoded records.
        :meth:`DurableLog.hydrate <repro.live.wal.DurableLog.hydrate>`
        then resumes the log's stable horizon after the file's last
        frame.
        """
        if self.log is not None:
            raise InvalidStateError("the host has already recovered")
        with gc_paused():
            began = time.perf_counter()
            image = self.store.load()
            image_loaded = time.perf_counter()
            replay = _Replay(image, self.params.n_records)
            n_records = 0
            last_txn_id: Optional[int] = None
            redo_seconds = 0.0

            def redo(records: List[LogRecord]) -> None:
                nonlocal n_records, last_txn_id, redo_seconds
                started = time.perf_counter()
                n_records += log_updates(records)
                # Transaction ids are allocated in LSN order on the
                # dispatcher, so the last record that carries one
                # carries the largest.
                for record in reversed(records):
                    txn_id = getattr(record, "txn_id", None)
                    if txn_id is not None:
                        last_txn_id = txn_id
                        break
                replay.feed(records)
                redo_seconds += time.perf_counter() - started

            self.log = log = DurableLog(self.params, self.wal_path,
                                        files=self.files, spans=self.spans,
                                        on_frame=redo)
            counts = replay.applier.finish()
            self.database.load_values(replay.values)
            checkpoint_id: Optional[int] = None
            if image is not None:
                checkpoint_id = image.checkpoint_id
                self.checkpointer.checkpoints_started = checkpoint_id
            if last_txn_id is not None:
                self._next_txn_id = last_txn_id + 1
            log.hydrate()
            total = time.perf_counter() - began
            self.recovery_timing = {
                "wal_bytes": log.scanned_bytes,
                "records": n_records,
                "repaired_bytes": log.repaired_bytes,
                "scan_s": log.scan_seconds - redo_seconds,
                "image_load_s": image_loaded - began,
                "redo_s": redo_seconds,
                "total_s": total,
                "records_per_s": n_records / total,
            }
            return RecoveryInfo(
                checkpoint_id=checkpoint_id, base_lsn=replay.base_lsn,
                records_scanned=n_records,
                transactions_replayed=counts.transactions_committed,
                updates_dropped=counts.updates_dropped,
                # the open-time repair already cut the tear off the file
                torn_tail=log.repaired_bytes > 0)

    # -- transaction path ----------------------------------------------------
    def submit(self, updates: Sequence[Tuple[int, int]],
               timeout: float = 30.0) -> CommitResult:
        """Durably commit one transaction writing ``(record_id, value)``
        pairs: :meth:`commit`, blocking until it calls back.  The pairs
        become its two int64 columns on the calling thread; anything but
        integer pairs raises ``TypeError`` (a value outside int64
        ``OverflowError``) before the dispatcher sees it."""
        record_ids, values = transaction_columns(updates)
        return self.scheduler.wait(partial(self.commit, record_ids, values),
                                   timeout)

    def commit(self, record_ids: np.ndarray, values: np.ndarray,
               on_done: Callable[[object], None]) -> None:
        """Commit one transaction given as its two int64 columns, from
        any thread; ``on_done`` later gets the :class:`CommitResult`
        once the commit record is fsynced, or the refusing exception.
        The transaction asks for the group flush itself
        (:meth:`_request_flush`), so it shares one write + fsync with
        whatever else was waiting.  A log that has failed a flush
        refuses it with :class:`~repro.errors.WALFailedError`, and so
        does the flush that fails while it waits (chained to the
        flush's error)."""
        submitted_at = self.clock.now

        def execute() -> None:
            started_at = self.clock.now
            try:
                txn_id, commit = self._log_and_install(record_ids, values,
                                                       started_at)
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                on_done(exc)
                return
            executed_at = self.clock.now

            def settled(failure: Optional[BaseException] = None) -> None:
                if failure is not None:
                    # the flush carrying the commit failed: never acked
                    on_done(failure)
                    return
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
                on_done(CommitResult(txn_id=txn_id, commit_lsn=commit.lsn,
                                     latency=acked_at - submitted_at))

            self.log.when_stable(commit.lsn, settled, settled)
            self._request_flush()

        self.scheduler.submit(execute)

    def _log_and_install(self, record_ids: np.ndarray, values: np.ndarray,
                         timestamp: float) -> Tuple[int, CommitRecord]:
        """Validate, log, install and commit-mark one transaction given
        as its two int64 columns (dispatcher thread only): one log
        record for its updates and one for its commit, whatever its
        size.

        The whole transaction is validated before anything is logged --
        every id a record's -- so a rejected one raises with nothing
        logged, nothing installed and no transaction id spent.  So does
        one that arrives after a failed flush: it could never be
        acknowledged.
        """
        self.log.raise_if_failed()
        self.database.check_record_ids(record_ids)
        txn_id = self._next_txn_id
        self._next_txn_id = txn_id + 1
        log = self.log
        first_lsn = log.last_lsn + 1
        # logged from the arrays, so the log holds what is installed
        log.append_update_run(txn_id, record_ids.tobytes(), values.tobytes())
        self.database.install_records(record_ids, values,
                                      timestamp=timestamp,
                                      first_lsn=first_lsn)
        return txn_id, log.append_commit(txn_id)

    def read(self, record_id: int, timeout: float = 30.0) -> int:
        """Read one record's value: :meth:`fetch`, blocking until it
        calls back."""
        return self.scheduler.wait(partial(self.fetch, record_id), timeout)

    def fetch(self, record_id: int,
              on_done: Callable[[object], None]) -> None:
        """Read one record from any thread; ``on_done`` later gets its
        value, or the exception that refused the read.

        A value is handed out only once no crash can take it back: when
        the LSN its segment carries (``table.lsn``, the last update
        installed there) is stable.  Otherwise the read waits for that
        LSN (:meth:`~repro.wal.log.LogManager.when_stable`) and asks for
        the group flush itself, as a commit does.  A transaction's
        update run and commit record are appended in one callback and a
        flush takes the whole tail, so a stable run means a stable
        commit.  The read answers with the value it looked up; a later
        commit to the record does not change it.  Segment granularity
        only errs toward waiting.  A read that needs a flush from a
        log that has failed one, or that waits on the flush that fails,
        gets :class:`~repro.errors.WALFailedError`.
        """
        def lookup() -> None:
            database, log = self.database, self.log
            try:
                lsn = int(database.table.lsn[
                    database.segment_index_of(record_id)])
            except AddressError as exc:
                on_done(exc)
                return
            value = database.read_record(record_id)
            if lsn <= log.stable_lsn:
                on_done(value)
            elif log.failure is not None:
                on_done(log.failed_error())
            else:
                log.when_stable(lsn, partial(on_done, value), on_done)
                self._request_flush()

        self.scheduler.submit(lookup)

    # -- internals -----------------------------------------------------------
    def _request_flush(self) -> None:
        """Ask for a group flush on behalf of a waiting commit or read
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
        self.log.flush()

    def _flush_tick(self) -> None:
        """The periodic flush: the upper bound on how long a record
        nobody is waiting on stays volatile."""
        self.log.flush()
        if not self._stopping:
            self.scheduler.schedule_after(self.config.flush_interval,
                                          self._flush_tick,
                                          label="wal flush")

    # -- verification --------------------------------------------------------
    def verify(self, limit: int = 10) -> List[RecordMismatch]:
        """The database against the durable state rebuilt from the files.

        On the dispatcher: flush, replay the current image
        (:meth:`ImageStore.read <repro.live.store.ImageStore.read>`)
        and the WAL file, read afresh, through the reference loop
        (:func:`replay_durable`), and return up to ``limit`` records
        where the database differs (``expected`` is the files' value).
        A damaged log raises its typed error instead.  Safe while a
        checkpoint is in flight: the image is renamed atomically, and
        the log is truncated only on the dispatcher.
        """
        def check() -> List[RecordMismatch]:
            self.log.flush()
            records, _ = read_wal(self.wal_path, self.files)
            durable, _ = replay_durable(self.store.read(), records,
                                        self.params.n_records, reference=True)
            database = self.database
            return [RecordMismatch(r, int(durable[r]), database.read_record(r))
                    for r in database.differing_records(durable, limit)]

        return self.scheduler.call(check)

    def spans_snapshot(self) -> List[dict]:
        """The span list, snapshotted on the dispatcher (race-free)."""
        if not self.spans.enabled:
            return []
        return self.scheduler.call(self.spans.snapshot)

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
