"""Copy-on-update transaction-consistent checkpoints (Section 3.2.2).

A COU checkpoint begins by briefly **quiescing** transaction processing:
with no transaction in flight, the database is in a transaction-
consistent state.  That state -- the *snapshot*, identified by the
checkpoint timestamp tau(CH) -- is what the checkpointer writes to the
backup image, while transactions immediately resume on the live database.

The snapshot is preserved lazily: when a transaction is about to update a
segment that the sweep has not reached yet (``S > CUR_SEG``) and that
still holds pure snapshot data (``tau(S) <= tau(CH)``), it first copies
the segment into a side buffer and hangs the copy off the segment's
old-copy pointer p(S) (Figure 3.2).  The checkpointer's sweep (Figure
3.3) then flushes the old copy when one exists and the live segment data
otherwise.  Unlike the two-color algorithms, COU **never aborts
transactions**; its costs are the quiesce at begin and the transaction-
side segment copies.

LSNs are never needed: everything the checkpointer writes predates
tau(CH), and the begin-checkpoint step force-flushes the log tail, so the
write-ahead rule holds by construction (the simulator still asserts it on
every write).

Variants: **COUFLUSH** keeps the segment locked across the disk write
when flushing live data; **COUCOPY** copies to an I/O buffer and unlocks
immediately.  Old copies live in private buffers and need no lock either
way.
"""

from __future__ import annotations

from ..errors import CheckpointError
from ..mmdb.locks import LockMode
from ..txn.transaction import Transaction
from .base import BaseCheckpointer, CheckpointRun


class _CopyOnUpdateBase(BaseCheckpointer):
    """Shared quiesce/snapshot logic for COUFLUSH and COUCOPY."""

    uses_lsns = False
    transaction_consistent = True

    def _begin(self, run: CheckpointRun) -> None:
        manager = self.txn_manager
        quiesce_span = (self.spans.begin("ckpt.quiesce", parent=run.span,
                                         checkpoint_id=run.checkpoint_id)
                        if self.spans.enabled else -1)
        if manager is not None:
            manager.quiesce()
        # Transactions execute atomically in simulated time, so the system
        # is transaction-consistent the moment the quiesce flag is up.
        run.tau_ch = self.authority.next()
        self._write_begin_marker(run, timestamp=run.tau_ch)
        run.watermark = -1
        # "...log begin-checkpoint record and flush log tail" (Figure 3.3):
        # after this point every pre-snapshot update is stable.  With
        # quiesce-latency modelling on, the force takes real disk time and
        # transactions stay quiesced across it -- the COU disadvantage the
        # paper names ("transaction processing must be temporarily
        # quiesced each time a checkpoint begins").
        pending_words = self.log.tail_words
        if self.quiesce_latency and pending_words:
            run.deferred = True
            delay = self.params.t_seek + self.params.t_trans * pending_words

            def force_complete() -> None:
                if run is not self.current:
                    return  # a crash abandoned the checkpoint mid-force
                if self.faults is not None:
                    # Crash while transactions are quiesced and the log
                    # force is still in flight: the begin marker may be
                    # volatile, so recovery must use the previous
                    # checkpoint.
                    self.faults.on_checkpoint_phase(
                        "quiesce", run.checkpoint_id, 0)
                run.quiesce_time = self.engine.now - run.began_at
                self._force_log_flush()
                if manager is not None:
                    manager.resume()
                if quiesce_span >= 0:
                    self.spans.end(quiesce_span, deferred=True)
                run.deferred = False
                self._advance(run)

            self.engine.schedule_after(delay, force_complete,
                                       label="COU quiesce log force")
            return
        self._force_log_flush()
        if manager is not None:
            manager.resume()
        if quiesce_span >= 0:
            self.spans.end(quiesce_span)

    # -- the transaction-side copy (Figure 3.2) --------------------------------
    def before_install(self, txn: Transaction, index: int) -> None:
        run = self.current
        if run is None or run.finished:
            return
        table = self.database.table
        not_yet_dumped = index > run.watermark
        pure_snapshot = table.timestamp[index] <= run.tau_ch
        if not_yet_dumped and pure_snapshot and index not in table.old_copies:
            self.database.save_old_copy(index)
            run.cou_copies += 1
            # The copying transaction pays: buffer allocation plus one
            # instruction per word moved -- synchronous overhead.
            self.ledger.charge_alloc(synchronous=True)
            self.ledger.charge_copy(self.params.s_seg, synchronous=True)

    # -- the sweep (Figure 3.3) ---------------------------------------------------
    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        self._charge_scope_check()
        # lock CUR_SEG (exclusive) -- freezes tau(S) for the tests below.
        # Transactions hold locks only within a single simulated instant,
        # so the acquisition can never block.
        self.ledger.charge_lock(synchronous=False, operations=2)
        if not self.locks.try_acquire(index, self._owner, LockMode.EXCLUSIVE):
            raise CheckpointError(
                f"{self.name}: segment {index} unexpectedly locked during sweep"
            )
        run.watermark = index
        if self.database.table.timestamp[index] > run.tau_ch:
            self._process_old_copy(run, index)
        else:
            self._process_live_segment(run, index)

    def _process_old_copy(self, run: CheckpointRun, index: int) -> None:
        """The segment was updated since tau(CH): flush its saved copy."""
        table = self.database.table
        data = table.old_copies.get(index)
        if data is None:
            raise CheckpointError(
                f"{self.name}: segment {index} updated after tau(CH) "
                "but carries no old copy -- the snapshot is broken"
            )
        data_timestamp = float(table.old_copy_timestamp[index])
        reflected_lsn = int(table.old_copy_lsn[index])
        self.locks.release(index, self._owner)
        needs = self._image_needs(run, index, data_timestamp)
        if not needs:
            # Dirty, but not since the previous checkpoint of this image:
            # the image already holds this data.  Drop the (wasted) copy.
            self._drop_old_copy(index)
            run.segments_skipped += 1
            return
        run.hold_slot()
        self._issue_write(
            run, index, data, data_timestamp, reflected_lsn=reflected_lsn,
            on_written=lambda: self._drop_old_copy(index))

    def _drop_old_copy(self, index: int) -> None:
        self.database.drop_old_copy(index)
        self.ledger.charge_alloc(synchronous=False)  # buffer free

    def _process_live_segment(self, run: CheckpointRun, index: int) -> None:
        """No update since tau(CH): the live data *is* snapshot data."""
        timestamp = float(self.database.table.timestamp[index])
        if not self._image_needs(run, index, timestamp):
            self.locks.release(index, self._owner)
            run.segments_skipped += 1
            return
        # Figure 3.3 re-locks shared for the flush; model it as a
        # downgrade plus the extra lock-pair cost.
        self.ledger.charge_lock(synchronous=False, operations=2)
        self.locks.downgrade(index, self._owner)
        self._flush_live_segment(run, index)

    def _flush_live_segment(self, run: CheckpointRun, index: int) -> None:
        raise NotImplementedError


class COUFlushCheckpointer(_CopyOnUpdateBase):
    """COUFLUSH: live segments flushed under the lock, no extra copy."""

    name = "COUFLUSH"

    def _flush_live_segment(self, run: CheckpointRun, index: int) -> None:
        database = self.database
        run.hold_slot()
        self._issue_write(
            run, index, database.segment_values(index).copy(),
            float(database.table.timestamp[index]),
            reflected_lsn=int(database.table.lsn[index]),
            on_written=lambda: self.locks.release(index, self._owner))


class COUCopyCheckpointer(_CopyOnUpdateBase):
    """COUCOPY: live segments buffered so the lock releases immediately."""

    name = "COUCOPY"

    def _flush_live_segment(self, run: CheckpointRun, index: int) -> None:
        self._flush_via_buffer(
            run, index, reflected_lsn=int(self.database.table.lsn[index]))
        self.locks.release(index, self._owner)
