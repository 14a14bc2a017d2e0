"""Fuzzy checkpointing: FUZZYCOPY and FASTFUZZY (paper Sections 3.1, 4).

Fuzzy checkpoints need essentially no synchronisation with transactions:
the checkpointer ignores locks and sweeps the database, so the resulting
backup may interleave pieces of concurrent transactions ("fuzzy").
Recovery repairs the fuzziness by replaying the REDO log from the begin
marker.  The only correctness constraint is the write-ahead rule:

* **FUZZYCOPY** copies each segment into an I/O buffer, then waits until
  the log records of every update the copy reflects are stable (the LSN
  test) before flushing the buffer -- so the rule holds with a volatile
  log tail.
* **FASTFUZZY** flushes segments straight from the database with no copy
  and no LSN bookkeeping.  That is only safe when the log tail lives in
  stable RAM (every log record is durable the instant it is written), the
  configuration the paper studies in Figure 4e.
"""

from __future__ import annotations

from .base import BaseCheckpointer, CheckpointRun


class FuzzyCopyCheckpointer(BaseCheckpointer):
    """Buffered fuzzy checkpoints with LSN write-ahead synchronisation."""

    name = "FUZZYCOPY"
    uses_lsns = True
    transaction_consistent = False

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        table = self.database.table
        self._charge_scope_check()
        if not self._image_needs(run, index, table.timestamp[index]):
            run.segments_skipped += 1
            return
        # No locks: the copy may straddle transaction boundaries (fuzzy).
        self._flush_via_buffer(run, index, reflected_lsn=int(table.lsn[index]))


class FastFuzzyCheckpointer(BaseCheckpointer):
    """Straightforward fuzzy flushes; requires a stable log tail."""

    name = "FASTFUZZY"
    uses_lsns = False
    requires_stable_tail = True
    transaction_consistent = False

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        database = self.database
        table = database.table
        self._charge_scope_check()
        data_timestamp = float(table.timestamp[index])
        if not self._image_needs(run, index, data_timestamp):
            run.segments_skipped += 1
            return
        # Direct flush: the disk DMAs straight out of database memory, so
        # the only CPU cost is the I/O initiation itself.  With a stable
        # tail, the segment's LSN is stable by construction (assert_wal
        # agrees).
        run.hold_slot()
        self._issue_write(run, index, database.segment_values(index).copy(),
                          data_timestamp, reflected_lsn=int(table.lsn[index]))
