"""The log manager: volatile tail, stable portion, group flush, WAL waits.

Responsibilities:

* append REDO/commit/abort/checkpoint records, assigning LSNs -- a
  transaction's value updates as one :class:`UpdateRun` on both hosts
  (one LSN per update), logical updates one record each;
* move the tail to stable storage on :meth:`flush` (group commit -- the
  simulator schedules flushes periodically and charges one ``C_io`` per
  flush plus the disk transfer time);
* under a **stable log tail** (Section 4), every appended record is stable
  immediately: battery-backed RAM survives the crash, so the write-ahead
  rule holds trivially and FASTFUZZY becomes safe;
* notify waiters when a given LSN becomes stable -- the mechanism
  FUZZYCOPY/2C/COU-COPY checkpointers use to delay flushing a buffered
  segment until its updates' log records are on the log disks;
* expose the stable record sequence and its volume in words for recovery
  (a log whose stable records live only in its file, the live
  :class:`~repro.live.wal.DurableLog`, refuses to).

Whatever the records' shape, the counts a flush or a crash reports --
:class:`FlushResult`, ``wal.flush.records``, the ``wal.flush`` span --
are one per update, outcome and marker.

A crash (:meth:`crash`) discards the volatile tail; with a stable tail it
is retained.  Recovery then reads :meth:`stable_records`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..errors import InvalidStateError, WALViolation
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..params import SystemParameters
from .lsn import LSNAllocator
from .records import (
    AbortRecord,
    BeginCheckpointRecord,
    CommitRecord,
    EndCheckpointRecord,
    LogicalUpdateRecord,
    LogRecord,
    MediaFailureRecord,
    MediaRestoreRecord,
    UpdateRecord,
    UpdateRun,
)

if TYPE_CHECKING:  # pragma: no cover - a type only
    from ..faults.injector import FaultInjector

StableCallback = Callable[[], None]
#: what a stability waiter runs instead if the log fails first
FailureCallback = Callable[[BaseException], None]

#: bisection key for the LSN-ordered stable log
_record_lsn = attrgetter("lsn")


class FlushResult(NamedTuple):
    """Outcome of one group flush."""

    #: records made stable, a run counted as its updates
    records: int
    words: int
    stable_lsn: int


class LogManager:
    """REDO-only log with a volatile (or stable-RAM) tail."""

    def __init__(self, params: SystemParameters, *,
                 telemetry: Telemetry = NULL_TELEMETRY,
                 faults: Optional[FaultInjector] = None,
                 spans: SpanRecorder = NULL_SPANS) -> None:
        self.params = params
        self.telemetry = telemetry
        #: fault-injection handle (lost-tail crash at the N-th flush)
        self.faults = faults
        #: span recorder (group-flush events); the recorder carries the
        #: clock, since the log itself holds no engine reference
        self.spans = spans
        self.stable_tail = params.stable_log_tail
        self._allocator = LSNAllocator()
        self._tail: List[LogRecord] = []
        #: the stable log, in LSN order; None on a log whose stable
        #: records live only in its file (see :meth:`_stable_log`)
        self._stable: Optional[List[LogRecord]] = []
        self._stable_lsn = 0
        self._waiters: List[Tuple[int, int, StableCallback,
                                  Optional[FailureCallback]]] = []
        self._waiter_seq = 0
        self.flush_count = 0
        self.words_appended = 0
        self.words_flushed = 0
        #: running word count of the volatile tail, so group flushes do
        #: not re-sum the whole tail (``tail_words`` is O(1))
        self._tail_words = 0
        #: running update count of the volatile tail (a run counts each
        #: of its updates, every other record one): what a flush reports
        self._tail_updates = 0
        # Per-type record sizes are layout constants (only the begin
        # marker varies, with its active-transaction list); precomputing
        # them keeps the append hot path free of size_words dispatch.
        self._update_words = params.s_rec + params.s_log_header
        self._logical_words = 1 + params.s_log_header
        self._outcome_words = params.s_log_commit
        self._words_by_type = {
            UpdateRecord: self._update_words,
            LogicalUpdateRecord: self._logical_words,
            CommitRecord: self._outcome_words,
            AbortRecord: self._outcome_words,
            EndCheckpointRecord: self._outcome_words,
            MediaFailureRecord: self._outcome_words,
            MediaRestoreRecord: self._outcome_words,
        }
        #: records newly made stable since the last drain (the simulator
        #: oracle's hook); None on a log that keeps none
        self._newly_stable: Optional[List[LogRecord]] = []

    # -- sizing -------------------------------------------------------------
    def record_size_words(self, record: LogRecord) -> int:
        """Size of ``record`` in words under the configured layout."""
        words = self._words_by_type.get(type(record))
        if words is not None:
            return words
        # Begin markers (variable-length active list) and any record
        # subclass fall through to the polymorphic path.
        return record.size_words(
            record_words=self.params.s_rec,
            header_words=self.params.s_log_header,
            commit_words=self.params.s_log_commit,
        )

    # -- appends --------------------------------------------------------------
    def _admit(self, record: LogRecord, words: int, updates: int = 1) -> None:
        """Account for a freshly-built record of ``words`` words (``updates``
        appends: a run counts each of its updates) and place it in the
        tail (or straight into the stable log under a stable-RAM tail)."""
        self.words_appended += words
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            registry.count("wal.appends", updates)
            registry.count("wal.words_appended", words)
        if self.stable_tail:
            # Stable RAM: the record is durable the moment it is written.
            self._stable.append(record)
            self._stable_lsn = record.lsn
            self._newly_stable.append(record)
            self._fire_waiters()
        else:
            self._tail.append(record)
            self._tail_words += words
            self._tail_updates += updates

    def append_update_run(self, txn_id: int, record_ids: bytes,
                          values: bytes) -> UpdateRun:
        """Append one transaction's value updates as a single
        :class:`UpdateRun`; returns it.

        ``record_ids`` and ``values`` are equal-length little-endian
        int64 columns.  The run consumes one LSN per update, and its
        ``lsn`` is the last of them; words, appends and flushed records
        count each of its updates, as if each were its own record.
        """
        n = len(record_ids) >> 3
        if not n or len(record_ids) != n << 3 or len(values) != n << 3:
            raise InvalidStateError(
                f"a run needs equal, non-empty int64 columns, got "
                f"{len(record_ids)} and {len(values)} bytes")
        record = UpdateRun(self._allocator.allocate_many(n), txn_id,
                           record_ids, values)
        self._admit(record, n * self._update_words, n)
        return record

    def append_logical_updates(self, txn_id: int,
                               items: Iterable[Tuple[int, int]]) -> int:
        """Append one logical (transition) REDO record per ``(record_id,
        delta)``; returns the count."""
        allocate = self._allocator.allocate
        admit = self._admit
        words = self._logical_words
        n = 0
        for record_id, delta in items:
            admit(LogicalUpdateRecord(allocate(), txn_id, record_id, delta),
                  words)
            n += 1
        return n

    def append_commit(self, txn_id: int) -> CommitRecord:
        record = CommitRecord(self._allocator.allocate(), txn_id)
        self._admit(record, self._outcome_words)
        return record

    def append_abort(self, txn_id: int, reason: str = "aborted") -> AbortRecord:
        record = AbortRecord(lsn=self._allocator.allocate(), txn_id=txn_id,
                             reason=reason)
        self._admit(record, self._outcome_words)
        return record

    def append_begin_checkpoint(
        self, checkpoint_id: int, timestamp: float,
        active_txns: Iterable[int], image: int,
    ) -> BeginCheckpointRecord:
        record = BeginCheckpointRecord(
            lsn=self._allocator.allocate(), checkpoint_id=checkpoint_id,
            timestamp=timestamp, active_txns=tuple(active_txns), image=image)
        self._admit(record, self._outcome_words + len(record.active_txns))
        return record

    def append_end_checkpoint(self, checkpoint_id: int,
                              image: int) -> EndCheckpointRecord:
        record = EndCheckpointRecord(lsn=self._allocator.allocate(),
                                     checkpoint_id=checkpoint_id, image=image)
        self._admit(record, self._outcome_words)
        return record

    def append_media_failure(self, image: int) -> MediaFailureRecord:
        """Record that backup image ``image`` was lost (Section 2.7)."""
        record = MediaFailureRecord(lsn=self._allocator.allocate(), image=image)
        self._admit(record, self._outcome_words)
        return record

    def append_media_restore(self, image: int,
                             checkpoint_id: int) -> MediaRestoreRecord:
        """Record that ``image`` was rebuilt from an archived checkpoint."""
        record = MediaRestoreRecord(lsn=self._allocator.allocate(),
                                    image=image, checkpoint_id=checkpoint_id)
        self._admit(record, self._outcome_words)
        return record

    # -- flushing ----------------------------------------------------------------
    @property
    def stable_lsn(self) -> int:
        """Highest LSN guaranteed to survive a crash (0 if none)."""
        return self._stable_lsn

    @property
    def last_lsn(self) -> int:
        """Highest LSN allocated so far."""
        return self._allocator.last_allocated

    @property
    def tail_records(self) -> int:
        """Entries in the volatile tail: a run is one entry (a flush
        reports updates, outcomes and markers instead)."""
        return len(self._tail)

    @property
    def tail_words(self) -> int:
        return self._tail_words

    def flush(self) -> FlushResult:
        """Force the whole tail to stable storage (group flush)."""
        words = self._tail_words
        count = self._tail_updates
        if self._tail:
            if self.faults is not None:
                # A lost-tail crash fires BEFORE the tail reaches the
                # log disks: these records never become durable.
                self.faults.on_log_flush()
            if self.telemetry.enabled:
                registry = self.telemetry.registry
                registry.count("wal.flushes")
                registry.count("wal.words_flushed", words)
                registry.observe("wal.flush.records", count)
                registry.observe("wal.flush.words", words)
                # How far the stable horizon trailed the append horizon
                # the moment this flush caught it up.
                registry.observe("wal.flush.lsn_lag",
                                 self.last_lsn - self._stable_lsn)
                # Modelled one-request disk time of the flush itself.
                registry.observe("wal.flush.latency",
                                 self.params.t_seek
                                 + self.params.t_trans * words)
            if self.spans.enabled:
                # A point event: the flush is atomic in simulated time;
                # its modelled disk latency rides along as a field.
                self.spans.emit(
                    "wal.flush", self.spans.now, 0.0,
                    records=count, words=words,
                    latency=self.params.t_seek + self.params.t_trans * words)
            if self._stable is not None:
                self._stable.extend(self._tail)
            if self._newly_stable is not None:
                self._newly_stable.extend(self._tail)
            self._stable_lsn = self._tail[-1].lsn
            self._tail.clear()
            self._tail_words = 0
            self._tail_updates = 0
            self.words_flushed += words
            self.flush_count += 1
            self._fire_waiters()
        return FlushResult(records=count, words=words,
                           stable_lsn=self._stable_lsn)

    def is_stable(self, lsn: int) -> bool:
        """Whether the record with ``lsn`` has reached stable storage."""
        return lsn <= self._stable_lsn

    def when_stable(self, lsn: int, callback: StableCallback,
                    on_failure: Optional[FailureCallback] = None) -> None:
        """Invoke ``callback`` as soon as ``lsn`` is stable.

        If it already is, the callback runs immediately.  This is the WAL
        wait primitive the COPY-style checkpointers use before flushing a
        buffered segment image.  If the log fails for good first,
        ``on_failure`` runs instead, with the error; only a
        :class:`~repro.live.wal.DurableLog` can fail.
        """
        if self.is_stable(lsn):
            callback()
            return
        heapq.heappush(self._waiters,
                       (lsn, self._waiter_seq, callback, on_failure))
        self._waiter_seq += 1

    def _fire_waiters(self) -> None:
        waiters = self._waiters
        while waiters and waiters[0][0] <= self._stable_lsn:
            heapq.heappop(waiters)[2]()

    def assert_wal(self, segment_lsn: int, context: str) -> None:
        """Raise :class:`WALViolation` if flushing data stamped with
        ``segment_lsn`` would break the write-ahead rule."""
        if not self.is_stable(segment_lsn):
            raise WALViolation(
                f"{context}: segment reflects LSN {segment_lsn} but stable "
                f"LSN is only {self._stable_lsn}"
            )

    # -- crash & recovery interface ------------------------------------------------
    def crash(self) -> int:
        """Lose the volatile tail; returns the number of records lost
        (a run counts each of its updates).

        With a stable log tail nothing is lost (the tail *is* stable).
        Pending stability waiters are dropped -- the components holding
        them are volatile too.
        """
        lost = self._tail_updates
        self._tail.clear()
        self._tail_words = 0
        self._tail_updates = 0
        self._waiters.clear()
        return lost

    def _stable_log(self) -> List[LogRecord]:
        """The in-memory stable log; a log that keeps none (its file
        is the stable log) raises :class:`InvalidStateError`, so no
        caller reads an empty list in its place."""
        stable = self._stable
        if stable is None:
            raise InvalidStateError(
                "this log keeps no stable records in memory; its file "
                "holds them")
        return stable

    def stable_records(self) -> Sequence[LogRecord]:
        """The stable log, in LSN order (what recovery gets to read)."""
        return tuple(self._stable_log())

    def drain_newly_stable(self) -> List[LogRecord]:
        """Records made stable since the previous drain (oracle hook)."""
        drained = self._newly_stable
        if drained is None:
            raise InvalidStateError("this log keeps no newly-stable list")
        self._newly_stable = []
        return drained

    def stable_words_from(self, lsn: int) -> int:
        """Words of stable log at or after ``lsn`` (recovery read volume)."""
        stable = self._stable_log()
        # The stable log is LSN-ordered, so the suffix starts at a
        # bisection point rather than a full scan.
        lo = bisect_left(stable, lsn, key=_record_lsn)
        size = self.record_size_words
        return sum(size(record) for record in stable[lo:])

    def truncate_stable_before(self, lsn: int) -> int:
        """Discard stable records with LSN < ``lsn`` (log reclamation).

        Checkpointing bounds the log: once a checkpoint completes, records
        older than the *previous* completed checkpoint's begin marker are
        never needed again.  Returns the number of words reclaimed.

        The stable log is LSN-ordered, so the cut point is found by
        bisection and only the reclaimed prefix is ever touched -- the
        survivors are kept by one slice delete instead of a rebuild of
        the whole list on every checkpoint completion.  A record is
        keyed by its (last) LSN, so an :class:`UpdateRun` reaching
        ``lsn`` is kept whole.
        """
        stable = self._stable_log()
        cut = bisect_left(stable, lsn, key=_record_lsn)
        if cut == 0:
            return 0
        size = self.record_size_words
        reclaimed = sum(size(record) for record in stable[:cut])
        del stable[:cut]
        return reclaimed

    def find_last_completed_checkpoint(
        self,
    ) -> Optional[Tuple[BeginCheckpointRecord, EndCheckpointRecord]]:
        """Backward-scan for the most recently *completed, usable* checkpoint.

        Mirrors Section 3.3: scan backwards for an end-checkpoint marker,
        then for its matching begin marker.  An end marker on image ``i``
        is usable iff it postdates the last media failure of ``i``, or a
        later :class:`MediaRestoreRecord` rebuilt exactly that checkpoint
        from tape.  Returns None when no usable checkpoint exists
        (recovery must then replay from the log's beginning over an empty
        database).
        """
        stable = self._stable_log()
        last_fail: dict[int, int] = {}       # image -> LSN of newest failure
        resurrected: set[tuple[int, int]] = set()   # (image, checkpoint_id)
        for record in stable:
            if isinstance(record, MediaFailureRecord):
                last_fail[record.image] = record.lsn
        for record in stable:
            if isinstance(record, MediaRestoreRecord):
                if record.lsn > last_fail.get(record.image, -1):
                    resurrected.add((record.image, record.checkpoint_id))

        def usable(end: EndCheckpointRecord) -> bool:
            fail_lsn = last_fail.get(end.image)
            if fail_lsn is None or end.lsn > fail_lsn:
                return True
            return (end.image, end.checkpoint_id) in resurrected

        end: Optional[EndCheckpointRecord] = None
        for record in reversed(stable):
            if end is None and isinstance(record, EndCheckpointRecord):
                if usable(record):
                    end = record
                continue
            if end is not None and isinstance(record, BeginCheckpointRecord):
                if record.checkpoint_id == end.checkpoint_id:
                    return record, end
                if record.checkpoint_id < end.checkpoint_id:
                    break  # scanned past where the begin should have been
        if end is not None:
            # An end marker whose begin never appears: the log was
            # truncated past its own replay start.  Recovering as if no
            # checkpoint existed would silently lose the truncated
            # records, so fail loudly instead.
            raise InvalidStateError(
                f"begin marker for checkpoint {end.checkpoint_id} is "
                "missing from the log; it was truncated past its own end "
                "marker")
        return None
