"""Modern consistent-snapshot checkpointers: ZIGZAG and PINGPONG.

The paper's copy-on-update family buys a transaction-consistent backup
with a quiesce at checkpoint begin plus a full segment copy charged to
the first updater of every not-yet-dumped segment.  Two post-1989
algorithm families -- studied comparatively for main-memory databases
by Cao et al. ("A Comparative Study of Consistent Snapshot Algorithms
for Main-Memory Database Systems") -- redistribute those costs by
maintaining *two* copies of the data permanently:

* **ZIGZAG** keeps per-segment mirror-write/mirror-read bit pairs.  An
  update writes only the copy the MW bit names (a single write per
  update, no copy-on-update data movement); taking a snapshot is an
  O(n) flip of the bit arrays.  We model exactly those costs: the begin
  phase charges one bit-word operation per segment and *no* quiesce log
  force wait, and the first post-snapshot updater of a segment charges
  only a bit maintenance cost (``C_lsn``-priced) instead of the COU
  ``C_alloc + S_seg`` copy.
* **PINGPONG** dispenses even with the bit flip: every update writes
  *both* copies (the known double-write overhead, one extra word-move
  per word updated on every install, checkpoint active or not), so a
  snapshot exists at any instant for free and the begin phase is
  trivial.

Both preserve the snapshot at segment granularity through the segment
table's old-copy slots -- the data movement is simulator bookkeeping
(the second copy already exists in these schemes), so unlike COU no
copy instructions are charged at preservation time.  The sweep itself
is the COU Figure 3.3 sweep: flush the old copy where the segment was
updated after the snapshot instant, the live data otherwise, through an
I/O buffer so locks release immediately (COPY-style).

Consistency level: transactions in this testbed install their updates
atomically in simulated time, so the snapshot instant can never split a
transaction -- but the algorithms themselves only promise that no
*action* (single record write) is torn, so the classes advertise
``action_consistent`` and leave ``transaction_consistent`` unset, like
the AC family.  Recovery is the standard image-load + REDO replay.
"""

from __future__ import annotations

from ..cpu.accounting import CostCategory
from ..txn.transaction import Transaction
from .base import CheckpointRun
from .copy_on_update import _CopyOnUpdateBase


class _ConsistentSnapshotBase(_CopyOnUpdateBase):
    """COU's sweep with dual-copy snapshot costs and no quiesce."""

    uses_lsns = False
    transaction_consistent = False
    action_consistent = True

    def _begin(self, run: CheckpointRun) -> None:
        # The snapshot instant: no quiesce -- the whole point of the
        # dual-copy schemes is that transactions never stop and never
        # copy segments.  The begin marker is stamped with tau(CH) and
        # the tail is forced, exactly like COU, so everything the sweep
        # can flush is stable by construction.
        run.tau_ch = self.authority.next()
        self._write_begin_marker(run, timestamp=run.tau_ch)
        run.watermark = -1
        self._charge_snapshot_begin()
        self._force_log_flush()

    def _charge_snapshot_begin(self) -> None:
        """Algorithm-specific begin-instant cost (default: free)."""

    def before_install(self, txn: Transaction, index: int) -> None:
        run = self.current
        if run is None or run.finished:
            return
        table = self.database.table
        not_yet_dumped = index > run.watermark
        pure_snapshot = table.timestamp[index] <= run.tau_ch
        if not_yet_dumped and pure_snapshot and index not in table.old_copies:
            # Preserve the snapshot.  The data "copy" is bookkeeping --
            # in Zigzag/Ping-Pong the second physical copy already
            # exists -- so only the bit maintenance is charged.
            self.database.save_old_copy(index)
            run.cou_copies += 1
            self.ledger.charge_lsn(synchronous=True)

    def _flush_live_segment(self, run: CheckpointRun, index: int) -> None:
        # COPY-style: buffer and unlock immediately (lock hold times are
        # these algorithms' selling point next to the paper's FLUSHes).
        self._flush_via_buffer(
            run, index, reflected_lsn=int(self.database.table.lsn[index]))
        self.locks.release(index, self._owner)


class ZigzagCheckpointer(_ConsistentSnapshotBase):
    """ZIGZAG: MW/MR bit pairs; O(n) bit flip at begin, single writes."""

    name = "ZIGZAG"

    def _charge_snapshot_begin(self) -> None:
        # Flipping the mirror-read bits for every segment: one bit-array
        # word operation per segment, checkpointer-side (asynchronous).
        self.ledger.charge(
            CostCategory.COPY,
            self.ledger.costs.per_word * self.database.n_segments,
            synchronous=False)


class PingPongCheckpointer(_ConsistentSnapshotBase):
    """PINGPONG: every update writes both copies; snapshots are free."""

    name = "PINGPONG"

    def before_install(self, txn: Transaction, index: int) -> None:
        # The double write: one extra word-move per word updated, paid by
        # every transaction all the time -- Ping-Pong's standing cost in
        # exchange for the trivial begin phase.
        self.ledger.charge_copy(self.params.s_rec, synchronous=True)
        super().before_install(txn, index)
