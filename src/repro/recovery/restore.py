"""Rebuilding the primary database after a system failure.

The procedure (Section 3.3):

1. **Find the checkpoint.**  Scan the stable log backwards for the end
   marker of the most recently completed checkpoint, then its begin
   marker.  The ping-pong scheme guarantees the image that checkpoint
   wrote is complete and uncorrupted.  (If no checkpoint ever completed,
   recovery replays the whole log over an empty database.)
2. **Load the backup.**  Read every segment of that image into primary
   memory.  The time is the dominant recovery cost: the whole database
   moves through the backup disk array once.
3. **Replay the log** forward from the begin marker.  Only updates of
   *committed* transactions are applied (REDO-only: updates of
   transactions whose commit record never reached stable storage are
   skipped, as are explicitly aborted attempts).  Replay is idempotent --
   REDO records carry absolute values -- which is what makes fuzzy images
   recoverable.

For FUZZYCOPY the paper extends the backward scan to the start of the
oldest transaction active at the begin marker.  With commit-time logging
(all of a transaction's records enter the log at commit) active
transactions have no earlier records, so the extension is a no-op; the
code still honours the marker's active list for generality.

The returned :class:`RecoveryResult` carries the modelled I/O times so
experiments can report recovery time exactly as Section 4 does: backup
read plus log read, both through the ``N_bdisks``-way array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import RecoveryError
from ..mmdb.database import Database
from ..params import SystemParameters
from ..sim.timestamps import TimestampAuthority
from ..storage.array import DiskArray
from ..storage.backup import BackupStore
from ..wal.log import LogManager
from ..wal.records import UpdateRun
from .replay import replay_records


@dataclass(frozen=True)
class RecoveryResult:
    """What recovery did and how long the model says it took."""

    used_checkpoint_id: Optional[int]
    used_image: Optional[int]
    start_lsn: int
    records_scanned: int
    transactions_replayed: int
    updates_applied: int
    log_words_read: int
    backup_read_time: float
    log_read_time: float

    @property
    def total_time(self) -> float:
        """Modelled recovery time: backup read + log read (Section 4)."""
        return self.backup_read_time + self.log_read_time


class RecoveryManager:
    """Restores the primary database from backup image + stable log."""

    def __init__(
        self,
        params: SystemParameters,
        database: Database,
        log: LogManager,
        backup: BackupStore,
        array: DiskArray,
        authority: Optional[TimestampAuthority] = None,
    ) -> None:
        self.params = params
        self.database = database
        self.log = log
        self.backup = backup
        self.array = array
        self.authority = authority

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryResult:
        """Rebuild the primary database; returns the recovery summary."""
        self.database.wipe()
        marker = self.log.find_last_completed_checkpoint()
        if marker is None:
            checkpoint_id = None
            image_index = None
            start_lsn = 0
            backup_read_time = 0.0
        else:
            begin, _end = marker
            image = self.backup.image(begin.image)
            if image.completed_checkpoint_id is None:
                raise RecoveryError(
                    f"log says checkpoint {begin.checkpoint_id} completed on "
                    f"image {begin.image}, but the image holds no checkpoint"
                )
            self._load_image(image)
            checkpoint_id = begin.checkpoint_id
            image_index = begin.image
            start_lsn = self._replay_start_lsn(begin.lsn, begin.active_txns)
            backup_read_time = self.array.series_time(
                self.database.n_segments, self.params.s_seg)
        scanned, replayed, applied, words = self._replay_from(start_lsn)
        log_read_time = self._log_read_time(words)
        self._restamp_segments()
        return RecoveryResult(
            used_checkpoint_id=checkpoint_id,
            used_image=image_index,
            start_lsn=start_lsn,
            records_scanned=scanned,
            transactions_replayed=replayed,
            updates_applied=applied,
            log_words_read=words,
            backup_read_time=backup_read_time,
            log_read_time=log_read_time,
        )

    # ------------------------------------------------------------------
    def _load_image(self, image) -> None:
        database = self.database
        for index in range(database.n_segments):
            database.load_segment(index, image.read_segment(index))

    def _replay_start_lsn(self, begin_lsn: int, active_txns) -> int:
        """Begin-marker LSN, extended back past any active transaction.

        FUZZYCOPY recovery must start at the oldest record of any
        transaction active when the checkpoint began (Section 3.3).  A
        run starts at its first LSN, not at ``lsn`` (its last).
        """
        if not active_txns:
            return begin_lsn
        active = set(active_txns)
        earliest = begin_lsn
        for record in self.log.stable_records():
            if record.lsn >= begin_lsn:
                break
            txn_id = getattr(record, "txn_id", None)
            if txn_id in active:
                first = record.lsn
                if type(record) is UpdateRun:
                    first -= record.n_updates - 1
                earliest = min(earliest, first)
                break
        return earliest

    def _replay_from(self, start_lsn: int) -> tuple[int, int, int, int]:
        records = [r for r in self.log.stable_records() if r.lsn >= start_lsn]
        words = sum(self.log.record_size_words(r) for r in records)
        # straight into the value array the segments are views of
        counts = replay_records(records, self.database._values)
        return (counts.records_scanned, counts.transactions_committed,
                counts.updates_applied, words)

    def _log_read_time(self, words: int) -> float:
        """Sequential log read through the array, in segment-size chunks."""
        if words == 0:
            return 0.0
        return self.array.sequential_read_time(words, self.params.s_seg)

    def _restamp_segments(self) -> None:
        """Mark the rebuilt database fully dirty.

        The per-segment timestamps that told the checkpointer what each
        backup image already holds were volatile state; after a crash the
        safe assumption is that every image is stale everywhere, so the
        next checkpoint on each image flushes everything.  A fresh logical
        timestamp on every segment achieves exactly that.
        """
        table = self.database.table
        table.mark_all_dirty()
        if self.authority is not None:
            n = self.database.n_segments
            first = self.authority.reserve(n)
            table.timestamp[:] = np.arange(first, first + n,
                                           dtype=np.float64)
