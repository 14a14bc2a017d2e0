"""Log record types.

The REDO-only log (Section 2.6) contains:

* :class:`UpdateRun` -- the new values of the records one transaction
  wrote, as a single record (REDO only; there are no UNDO records).
  Both hosts log a transaction's value updates this way, at commit;
* :class:`UpdateRecord` -- one such update on its own.  Neither host
  logs it: the WAL codec reads and writes it, and it is the per-record
  reference a run is defined by;
* :class:`CommitRecord` / :class:`AbortRecord` -- transaction outcomes.
  Recovery replays the updates of committed transactions only.  Abort
  records appear when the two-color algorithms kill a transaction whose
  updates already reached the log tail -- the "added log bulk of
  transactions aborted by the two-color constraints" the paper charges
  against recovery time;
* :class:`BeginCheckpointRecord` -- written when a checkpoint starts; it
  carries the list of transactions active at that moment (Section 3.1) and,
  for copy-on-update checkpoints, the checkpoint timestamp tau(CH);
* :class:`EndCheckpointRecord` -- written when a checkpoint completes, so
  the backward scan at recovery time can find the begin marker of the most
  recently *completed* checkpoint (Section 3.3, footnote).

Each record knows its size in words so log volume -- and hence recovery
time -- can be accounted exactly as the model does.

Records are named tuples: construction is a single C call, which
matters because every transaction builds at least two of them, its run
and its outcome (and one per update under logical logging).  They are
immutable and compare/hash by value, exactly as the frozen dataclasses
they replaced did.
:data:`LogRecord` remains as the union type annotation for "any log
record".
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple, Union

import numpy as np


class UpdateRecord(NamedTuple):
    """REDO record: transaction ``txn_id`` set ``record_id`` to ``value``."""

    lsn: int
    txn_id: int = 0
    record_id: int = 0
    value: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return record_words + header_words


class UpdateRun(NamedTuple):
    """REDO records of one transaction's value updates, as one record.

    ``record_ids`` and ``values`` are little-endian int64 columns, as
    ``bytes`` -- exactly what the WAL frame stores -- so the record stays
    immutable, hashable and comparable by value like the others.  The
    run stands for ``n`` update records with consecutive LSNs and
    consumes all ``n`` of them: ``lsn`` is the *last* one, so update
    ``i`` is ``UpdateRecord(lsn - n + 1 + i, txn_id, record_ids[i],
    values[i])``.  An LSN bisection over a log holding runs therefore
    finds the run covering an LSN, and keeps it rather than cutting it.
    """

    lsn: int
    txn_id: int = 0
    record_ids: bytes = b""
    values: bytes = b""

    @property
    def n_updates(self) -> int:
        return len(self.record_ids) >> 3

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """The run's ``(record_id, value)`` pairs, in log order."""
        return zip(np.frombuffer(self.record_ids, "<i8").tolist(),
                   np.frombuffer(self.values, "<i8").tolist())

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return self.n_updates * (record_words + header_words)


def log_updates(records) -> int:
    """Log records in ``records`` counted one per update: a run counts
    its updates, every other record one."""
    return sum(record.n_updates if type(record) is UpdateRun else 1
               for record in records)


class LogicalUpdateRecord(NamedTuple):
    """Logical (transition) REDO record: apply ``delta`` to ``record_id``.

    The paper notes that consistent backups "permit the use of logical
    logging" (also called transition or operation logging [Haer83a]).
    Unlike a value record, replaying a delta is *not* idempotent: it is
    only sound against a base state from exactly the log position replay
    starts at.  The reproduction uses this to demonstrate which
    checkpoint algorithms actually deliver that guarantee: copy-on-update
    checkpoints do (both scopes -- the per-image staleness rule keeps
    every image segment at its begin-marker state), while fuzzy and
    two-color backups silently corrupt (double-applied deltas) -- see
    tests/test_logical_logging.py.
    """

    lsn: int
    txn_id: int = 0
    record_id: int = 0
    delta: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        # A delta occupies one word instead of the record's full image.
        return 1 + header_words


class CommitRecord(NamedTuple):
    """Transaction ``txn_id`` committed."""

    lsn: int
    txn_id: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return commit_words


class AbortRecord(NamedTuple):
    """Transaction ``txn_id`` aborted (its update records must be skipped)."""

    lsn: int
    txn_id: int = 0
    reason: str = "aborted"

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return commit_words


class BeginCheckpointRecord(NamedTuple):
    """A checkpoint began.

    Attributes:
        checkpoint_id: monotonically increasing checkpoint number.
        timestamp: tau(CH) for copy-on-update checkpoints (simulated time).
        active_txns: ids of transactions active when the marker was written
            (needed by FUZZYCOPY recovery to extend the backward scan).
        image: which ping-pong backup image (0 or 1) this checkpoint writes.
    """

    lsn: int
    checkpoint_id: int = 0
    timestamp: float = 0.0
    active_txns: Tuple[int, ...] = ()
    image: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return commit_words + len(self.active_txns)


class EndCheckpointRecord(NamedTuple):
    """Checkpoint ``checkpoint_id`` completed; image ``image`` is whole."""

    lsn: int
    checkpoint_id: int = 0
    image: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return commit_words


class MediaRestoreRecord(NamedTuple):
    """Backup image ``image`` was rebuilt from an archival (tape) dump of
    checkpoint ``checkpoint_id``.

    Makes a tape restore visible to recovery: the restored checkpoint's
    *original* begin/end markers become usable again, so replay starts at
    the original begin marker -- exactly where the archived image's data
    is from.
    """

    lsn: int
    image: int = 0
    checkpoint_id: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return commit_words


class MediaFailureRecord(NamedTuple):
    """Backup image ``image`` was lost to a secondary-media failure.

    Paper Section 2.7 discusses secondary media failures in a MMDBMS.
    Recording the loss in the log lets the recovery-time backward scan
    skip checkpoints whose image no longer exists: a checkpoint on image
    ``image`` is only usable if its end marker appears *after* the most
    recent failure record for that image (the image was rewritten since).
    """

    lsn: int
    image: int = 0

    def size_words(self, record_words: int, header_words: int,
                   commit_words: int) -> int:
        return commit_words


#: any log record (the former shared base class, now a union: every
#: concrete record is a NamedTuple and tuples cannot share field bases)
LogRecord = Union[
    UpdateRecord,
    UpdateRun,
    LogicalUpdateRecord,
    CommitRecord,
    AbortRecord,
    BeginCheckpointRecord,
    EndCheckpointRecord,
    MediaRestoreRecord,
    MediaFailureRecord,
]
