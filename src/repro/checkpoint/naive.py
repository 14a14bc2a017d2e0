"""The naive global-lock checkpointer (the paper's strawman, Section 3.2.1).

"One way to produce a TC backup database is to treat the checkpointing
process as a (long-lived) transaction.  The checkpointer acquires a read
lock on each segment before flushing and holds the locks until it
finishes.  We assume that this method will result in unacceptably
frequent and long lock delays for other transactions."

This module implements that strawman so the assumption can be measured
rather than assumed: NAIVELOCK acquires a shared lock on every segment it
will back up at checkpoint begin and releases them all only at the end.
Transactions never abort, the backup is perfectly transaction-consistent
-- and any transaction touching a to-be-flushed segment stalls for up to
a whole checkpoint.  The testbed's ``mean_response_time`` and
``lock_waits`` metrics show the collapse (see
``tests/test_checkpoint_extensions.py``).

NAIVELOCK is a simulation-only algorithm: the analytic model's CPU metric
cannot express its true cost, which is latency, not instructions --
precisely the paper's point in dismissing it.
"""

from __future__ import annotations

from typing import List

from ..errors import CheckpointError
from ..mmdb.locks import LockMode
from .base import BaseCheckpointer, CheckpointRun


class NaiveLockCheckpointer(BaseCheckpointer):
    """NAIVELOCK: one long-lived read-lock-everything checkpoint."""

    name = "NAIVELOCK"
    uses_lsns = True
    transaction_consistent = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._held: List[int] = []

    def _begin(self, run: CheckpointRun) -> None:
        self._write_begin_marker(run)
        # Acquire every segment's lock up front.  Transactions hold locks
        # only within a single simulated instant, so this cannot block;
        # it is the *holding* that hurts.
        self._held = []
        for index in range(self.database.n_segments):
            self.ledger.charge_lock(synchronous=False, operations=2)
            if not self.locks.try_acquire(index, self._owner,
                                          LockMode.SHARED):
                raise CheckpointError(
                    f"{self.name}: segment {index} unexpectedly "
                    "locked at checkpoint begin")
            self._held.append(index)

    def _process_segment(self, run: CheckpointRun, index: int) -> None:
        database = self.database
        table = database.table
        self._charge_scope_check()
        if not self._image_needs(run, index, float(table.timestamp[index])):
            run.segments_skipped += 1
            return
        run.hold_slot()
        # the global lock freezes it anyway
        data = database.segment_values(index).copy()
        reflected_lsn = int(table.lsn[index])
        self.ledger.charge_lsn(synchronous=False)

        def stable() -> None:
            if run is not self.current:
                return
            self._issue_write(run, index, data,
                              float(table.timestamp[index]),
                              reflected_lsn=reflected_lsn)

        self.log.when_stable(reflected_lsn, stable)

    def _end(self, run: CheckpointRun) -> None:
        self._release_all()

    def _release_all(self) -> None:
        for index in self._held:
            self.locks.release(index, self._owner)
        self._held = []

    def crash(self) -> None:
        super().crash()
        self._held = []  # volatile lock table is gone anyway
