"""Action-consistent checkpointing (extension; paper Section 3.2).

The paper considers three backup consistency levels -- fuzzy,
action-consistent (AC), and transaction-consistent (TC) -- but evaluates
only fuzzy and TC, remarking that "AC checkpoints may actually be more
practical in a real system" and that most fuzzy-vs-TC comparisons carry
over "with qualitatively similar results" to fuzzy-vs-AC.  This module
supplies the missing member of the family so that claim can be tested.

An AC backup must reflect every *action* (a single record write)
atomically, but may split a multi-action transaction across the
checkpoint boundary.  The implementation is the two-color sweep's
locking discipline without its color rule: the checkpointer takes the
segment lock while capturing the segment (so no action is ever torn),
but transactions are **never aborted** -- they may freely touch captured
and uncaptured data, which is exactly what makes the result AC rather
than TC.

Recovery is unchanged: REDO records carry full after-images, so replay
from the begin marker repairs the transaction-level inconsistency the
same way it repairs fuzziness.  The paper's other motivation for
consistent backups -- the option of *logical* logging -- would apply to
AC backups too; this reproduction logs values throughout.

Cost-wise the AC algorithms sit exactly between the families they bridge:
FUZZYCOPY's costs plus a lock pair per segment, or equivalently the 2C
algorithms' costs minus every rerun (see ``repro.model.overhead``).
"""

from __future__ import annotations

from ..mmdb.locks import LockMode
from .base import BaseCheckpointer, CheckpointRun


class _ActionConsistentBase(BaseCheckpointer):
    """Locked sweep, no paint bits, no aborts."""

    uses_lsns = True
    transaction_consistent = False
    action_consistent = True

    def _lock_shared(self, index: int) -> None:
        acquired = self.locks.try_acquire(index, self._owner, LockMode.SHARED)
        if not acquired:  # pragma: no cover - unreachable with atomic txns
            self.locks.acquire_or_wait(index, self._owner, LockMode.SHARED)


class ActionConsistentFlushCheckpointer(_ActionConsistentBase):
    """ACFLUSH: flush under the segment lock, no in-memory copy."""

    name = "ACFLUSH"

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        database = self.database
        table = database.table
        self._charge_scope_check()
        data_timestamp = float(table.timestamp[index])
        if not self._image_needs(run, index, data_timestamp):
            run.segments_skipped += 1
            return
        self.ledger.charge_lock(synchronous=False, operations=2)
        self._lock_shared(index)
        run.hold_slot()
        # frozen by the lock until I/O completes
        data = database.segment_values(index).copy()
        reflected_lsn = int(table.lsn[index])
        self.ledger.charge_lsn(synchronous=False)
        wal_span = (self.spans.begin("ckpt.wal_wait", parent=run.span,
                                     segment=index)
                    if self.spans.enabled else -1)

        def stable() -> None:
            if run is not self.current:
                return
            if wal_span >= 0:
                self.spans.end(wal_span)
            self._issue_write(
                run, index, data, data_timestamp,
                reflected_lsn=reflected_lsn,
                on_written=lambda: self.locks.release(index, self._owner))

        self.log.when_stable(reflected_lsn, stable)


class ActionConsistentCopyCheckpointer(_ActionConsistentBase):
    """ACCOPY: capture under a momentary lock, flush from the buffer."""

    name = "ACCOPY"

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        table = self.database.table
        self._charge_scope_check()
        if not self._image_needs(run, index, float(table.timestamp[index])):
            run.segments_skipped += 1
            return
        self.ledger.charge_lock(synchronous=False, operations=2)
        self._lock_shared(index)
        self._flush_via_buffer(run, index, reflected_lsn=int(table.lsn[index]))
        self.locks.release(index, self._owner)
