"""Two-color (Pu-style) transaction-consistent checkpoints (Section 3.2.1).

Every segment carries a paint bit.  At checkpoint begin all segments are
white; the checkpointer sweeps the database, locking one segment at a
time, backing it up, and painting it black.  The consistency rule is
enforced on transactions: **no transaction may access both white and
black data** -- one that tries is aborted and rerun.  The completed
backup is therefore transaction-consistent: each transaction's updates
are either entirely reflected (it ran all-white, before the sweep passed
its segments) or entirely absent (all-black).

Two variants differ in how long the segment lock is held:

* **2CFLUSH** flushes the segment straight to the backup disks while
  holding the (shared) lock -- for the duration of the disk I/O *plus*
  any delay needed to satisfy the LSN write-ahead condition.  It never
  copies data in memory.
* **2CCOPY** copies the segment into an I/O buffer, paints and unlocks
  immediately, and flushes the buffer once the LSN condition allows.
  Copying costs one instruction per word but keeps lock hold times tiny.
"""

from __future__ import annotations

from ..errors import TwoColorViolation
from ..mmdb.locks import LockMode
from ..txn.transaction import Transaction
from .base import BaseCheckpointer, CheckpointRun


class _TwoColorBase(BaseCheckpointer):
    """Shared paint/guard logic for 2CFLUSH and 2CCOPY."""

    uses_lsns = True
    transaction_consistent = True

    def _begin(self, run: CheckpointRun) -> None:
        self.database.table.clear_paint()
        self._write_begin_marker(run)

    # -- the two-color restriction -----------------------------------------
    def guard_access(self, txn: Transaction, index: int) -> None:
        """Abort any transaction that mixes white and black data."""
        if not self.active:
            return
        txn.colors_seen.add(bool(self.database.table.painted_black[index]))
        if len(txn.colors_seen) == 2:
            raise TwoColorViolation(
                f"txn {txn.txn_id} touched both white and black data "
                f"(segment {index})"
            )

    # -- sweep helpers --------------------------------------------------------
    def _paint_black(self, index: int) -> None:
        self.database.table.painted_black[index] = True
        if self.telemetry.enabled:
            self.telemetry.registry.count("ckpt.segments_painted")
        if self.spans.enabled and self.current is not None:
            self.spans.emit("ckpt.paint", self.engine.now, 0.0,
                            parent=self.current.span, segment=index)
        if self.faults is not None and self.current is not None:
            # Crash with the database part-white, part-black: recovery
            # must fall back to the previous complete image.
            self.faults.on_checkpoint_phase(
                "paint", self.current.checkpoint_id, index)

    def _lock_shared(self, index: int) -> None:
        """Take the checkpointer's shared lock (always immediate here).

        Transactions hold locks only within a single simulated instant,
        so a shared request by the checkpointer can never block; the cost
        of the lock/unlock pair is charged by the caller.
        """
        acquired = self.locks.try_acquire(index, self._owner, LockMode.SHARED)
        if not acquired:  # pragma: no cover - unreachable with atomic txns
            self.locks.acquire_or_wait(index, self._owner, LockMode.SHARED)

    def crash(self) -> None:
        super().crash()
        self.database.table.clear_paint()


class TwoColorFlushCheckpointer(_TwoColorBase):
    """2CFLUSH: lock held across the disk write; no in-memory copying."""

    name = "2CFLUSH"

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        database = self.database
        table = database.table
        self._charge_scope_check()
        self.ledger.charge_lock(synchronous=False, operations=2)
        data_timestamp = float(table.timestamp[index])
        if not self._image_needs(run, index, data_timestamp):
            # Clean segment: "processing" is trivial, paint and move on.
            self._paint_black(index)
            run.segments_skipped += 1
            return
        self._lock_shared(index)
        run.hold_slot()
        # frozen by the lock until I/O completes
        data = database.segment_values(index).copy()
        reflected_lsn = int(table.lsn[index])
        self.ledger.charge_lsn(synchronous=False)
        wal_span = (self.spans.begin("ckpt.wal_wait", parent=run.span,
                                     segment=index)
                    if self.spans.enabled else -1)

        def written() -> None:
            self._paint_black(index)
            self.locks.release(index, self._owner)

        def stable() -> None:
            if run is not self.current:
                return  # crash while the lock waited on the log flush
            if wal_span >= 0:
                self.spans.end(wal_span)
            self._issue_write(run, index, data, data_timestamp,
                              reflected_lsn=reflected_lsn, on_written=written)

        self.log.when_stable(reflected_lsn, stable)


class TwoColorCopyCheckpointer(_TwoColorBase):
    """2CCOPY: copy to a buffer, unlock at once, flush when WAL allows."""

    name = "2CCOPY"

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        table = self.database.table
        self._charge_scope_check()
        self.ledger.charge_lock(synchronous=False, operations=2)
        if not self._image_needs(run, index, float(table.timestamp[index])):
            self._paint_black(index)
            run.segments_skipped += 1
            return
        self._lock_shared(index)
        # _flush_via_buffer copies synchronously, so the segment can be
        # painted and unlocked as soon as the call returns -- the whole
        # point of the COPY variant.
        self._flush_via_buffer(run, index, reflected_lsn=int(table.lsn[index]))
        self._paint_black(index)
        self.locks.release(index, self._owner)
