"""REDO log replay semantics, shared by both hosts' recovery, the live
host's ``verify`` and the simulator's committed-state oracle.

Replay walks the log in LSN order with attempt-buffer semantics:

* an :class:`UpdateRecord` is *buffered* under its transaction id, and
  so is each update of an :class:`UpdateRun` (one transaction's updates
  logged as one record);
* a :class:`CommitRecord` applies the transaction's buffered updates;
* an :class:`AbortRecord` discards them (a two-color abort may be
  followed by a successful rerun of the same transaction id, whose later
  update records must still be applied -- which is why outcome *sets*
  are not enough and the buffer is);
* updates still buffered when the log ends belong to transactions whose
  commit never reached stable storage: they are dropped, exactly as the
  shadow-copy/REDO-only design intends.

:class:`RedoApplier` replays into an int64 array -- the database's value
array at recovery, the simulator oracle's expected state while the
system runs -- and can be fed incrementally, so that oracle digests each
group flush as it becomes stable.  :func:`replay_records` wraps it for
one-shot use.  A disagreement with the state it rebuilds is a
:class:`RecordMismatch`.

There are two ways through a batch, to the same array and the same
:class:`ReplayCounts` (which count a run as its updates, so a log holds
the same number of "records" whichever form its updates take).
:meth:`RedoApplier.feed_each` is the per-record loop above: it defines
replay and is the reference the other way is tested against.
:meth:`RedoApplier.feed` first takes the shape commit-time logging
writes on both hosts: one :class:`UpdateRun` per transaction, closed by
that transaction's commit or abort, with data-less markers (checkpoint
begin/end, media failure/restore) between runs and at most one unclosed
run at the end.  In such a stretch a transaction's updates sit right
before its outcome, so nothing needs buffering: a committed run is
written straight into the array, in log order, and an aborted run is
only counted.  Writing in log order *is* last-writer-wins -- exact,
whatever ids repeat, with no reliance on how numpy resolves a repeated
index.  The writes go through a ``memoryview`` of the array: an item
store there costs about half a numpy scalar store, and unlike numpy
columns (measured: ~10 numpy calls per batch, several microseconds each
inside a busy server) it has no fixed cost for a six-record group flush
to pay.  The unclosed run is buffered exactly as the loop would buffer
it.  From the first record that breaks the shape -- a logical record,
an :class:`UpdateRecord` decoded from a WAL file, a run of another
transaction than the outcome after it, a run of a transaction still
buffered from an earlier feed, a marker inside a run, a record id the
array does not have -- the rest of the batch goes through the loop,
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..wal.records import (
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

#: record kinds that carry no data to replay
_MARKERS = frozenset({BeginCheckpointRecord, EndCheckpointRecord,
                      MediaFailureRecord, MediaRestoreRecord})


class RecordMismatch(NamedTuple):
    """One record where a state disagrees with what the log rebuilds."""

    record_id: int
    expected: int
    actual: int

    def __str__(self) -> str:
        return (f"record {self.record_id}: expected {self.expected}, "
                f"recovered {self.actual}")


def _buffered(run: UpdateRun) -> List[Tuple[str, int, int]]:
    """A run's updates as attempt-buffer entries."""
    return [("value", record_id, value) for record_id, value in run.pairs()]


@dataclass
class ReplayCounts:
    """Statistics of one replay."""

    records_scanned: int = 0
    transactions_committed: int = 0
    attempts_aborted: int = 0
    updates_applied: int = 0
    updates_dropped: int = 0
    pending_at_end: int = field(default=0)


class RedoApplier:
    """Incremental REDO replay into ``target`` with per-transaction
    attempt buffers.

    Handles both value records (absolute after-images, idempotent) and
    logical records (deltas, added to the target's current value).
    """

    def __init__(self, target: np.ndarray) -> None:
        #: the int64 array replay writes, indexed by record id
        self.target = target
        # the same memory, written item by item without a numpy call
        self._cells = memoryview(target)
        # buffered entries: ("value", rid, value) or ("delta", rid, delta)
        self._pending: Dict[int, List[Tuple[str, int, int]]] = {}
        self.counts = ReplayCounts()

    def feed(self, records: Iterable[LogRecord]) -> None:
        """Consume records (must arrive in LSN order across feeds).

        Whole runs are written as they stand; from the first record
        that breaks that shape on, :meth:`feed_each` takes over (see the
        module docstring).
        """
        if not isinstance(records, (list, tuple)):
            records = list(records)
        done = self._feed_runs(records)
        if done < len(records):
            self.feed_each(records[done:])

    def feed_each(self, records: Iterable[LogRecord]) -> None:
        """The per-record reference loop (records in LSN order)."""
        # Exact-type tests dispatch an order of magnitude faster than the
        # isinstance chain this loop replaced; the record classes are
        # final in practice, and any subclass still lands on the
        # isinstance fallback below.
        pending = self._pending
        counts = self.counts
        scanned = 0
        for record in records:
            scanned += 1
            cls = type(record)
            if cls is UpdateRecord:
                bucket = pending.get(record.txn_id)
                if bucket is None:
                    bucket = pending[record.txn_id] = []
                bucket.append(("value", record.record_id, record.value))
            elif cls is CommitRecord:
                self._apply_commit(record.txn_id)
            elif cls is UpdateRun:
                bucket = pending.get(record.txn_id)
                if bucket is None:
                    bucket = pending[record.txn_id] = []
                bucket += _buffered(record)
                scanned += record.n_updates - 1
            elif cls is LogicalUpdateRecord:
                bucket = pending.get(record.txn_id)
                if bucket is None:
                    bucket = pending[record.txn_id] = []
                bucket.append(("delta", record.record_id, record.delta))
            elif cls is AbortRecord:
                dropped = pending.pop(record.txn_id, [])
                counts.updates_dropped += len(dropped)
                counts.attempts_aborted += 1
            elif isinstance(record, UpdateRecord):
                pending.setdefault(record.txn_id, []).append(
                    ("value", record.record_id, record.value))
            elif isinstance(record, LogicalUpdateRecord):
                pending.setdefault(record.txn_id, []).append(
                    ("delta", record.record_id, record.delta))
            elif isinstance(record, CommitRecord):
                self._apply_commit(record.txn_id)
            elif isinstance(record, AbortRecord):
                dropped = pending.pop(record.txn_id, [])
                counts.updates_dropped += len(dropped)
                counts.attempts_aborted += 1
            # checkpoint markers carry no data to replay
        counts.records_scanned += scanned

    def _apply_commit(self, txn_id: int) -> None:
        updates = self._pending.pop(txn_id, None)
        if updates:
            target = self.target
            for kind, record_id, operand in updates:
                if kind == "value":
                    target[record_id] = operand
                else:
                    target[record_id] += operand
            self.counts.updates_applied += len(updates)
        self.counts.transactions_committed += 1

    def _feed_runs(self, records: Sequence[LogRecord]) -> int:
        """Replay the longest prefix of ``records`` made of whole runs
        (and a final unclosed one); return its length."""
        pending = self._pending
        counts = self.counts
        done = 0
        scanned = 0
        # everything but the runs: the outcomes closing them, and
        # markers -- a handful per batch on either host
        for position in [position for position, record in enumerate(records)
                         if type(record) is not UpdateRun]:
            record = records[position]
            cls = type(record)
            if cls is CommitRecord or cls is AbortRecord:
                txn_id = record.txn_id
                if txn_id in pending or position - done > 1:
                    break
                written = 0
                if done < position:
                    run = records[done]
                    if run.txn_id != txn_id:
                        break
                    if cls is CommitRecord and not self._write_run(run):
                        break
                    written = run.n_updates
                if cls is CommitRecord:
                    counts.transactions_committed += 1
                    counts.updates_applied += written
                else:
                    counts.attempts_aborted += 1
                    counts.updates_dropped += written
                scanned += written + 1
            elif cls not in _MARKERS or done < position:
                break
            else:
                scanned += 1
            done = position + 1
        else:
            if len(records) - done == 1:
                run = records[done]
                if run.txn_id not in pending:
                    buffered = pending[run.txn_id] = _buffered(run)
                    scanned += len(buffered)
                    done = len(records)
        counts.records_scanned += scanned
        return done

    def _write_run(self, run: UpdateRun) -> bool:
        """Write a committed run into the array pair by pair, in log
        order; return False at the first record id the array refuses.

        Stopping part-way leaves nothing the loop will not redo: the
        updates already written are the run's own, which the loop,
        replaying from the run on, applies again at the commit that
        closes it -- the same values in the same order, and nothing in
        between.
        """
        cells = self._cells
        try:
            for record_id, value in run.pairs():
                cells[record_id] = value
        except IndexError:
            return False
        return True

    def finish(self) -> ReplayCounts:
        """Account for updates whose commit never became stable."""
        leftover = sum(len(v) for v in self._pending.values())
        self.counts.updates_dropped += leftover
        self.counts.pending_at_end = leftover
        return self.counts


def replay_records(records: Iterable[LogRecord],
                   target: np.ndarray) -> ReplayCounts:
    """One-shot replay of ``records`` (in LSN order) into ``target``."""
    applier = RedoApplier(target)
    applier.feed(records)
    return applier.finish()
