"""The simulator's committed-state oracle.

An independent shadow of what the database *must* contain after crash
recovery: the effects of exactly those transactions whose commit records
reached stable storage, applied in log order.  It consumes stable log
records as they become stable (via :meth:`LogManager.drain_newly_stable`,
once per group flush) and replays each batch at once, through a
:class:`~repro.recovery.replay.RedoApplier` of its own, into the
expected-state array -- so it holds that array and the updates of
transactions whose outcome is not yet stable, never the log it has
seen.  It never looks at the primary database or the backup images, so
agreement between a recovered database and the oracle is genuine
end-to-end evidence of recovery correctness.  (The live host has none:
it checks against its files.)
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..params import SystemParameters
from ..recovery.replay import RecordMismatch, RedoApplier
from ..wal.records import LogRecord


class CommittedStateOracle:
    """Tracks the durable committed state of every record."""

    def __init__(self, params: SystemParameters) -> None:
        self.params = params
        self._expected = np.zeros(params.n_records, dtype=np.int64)
        self._applier = RedoApplier(self._expected)

    def feed(self, records: Iterable[LogRecord]) -> None:
        """Replay newly-stable log records (in LSN order across calls)
        into the expected state, before returning."""
        self._applier.feed(records)

    @property
    def expected(self) -> np.ndarray:
        """The expected post-recovery record values (live view)."""
        return self._expected

    @property
    def durable_commits(self) -> int:
        """Transactions whose commit record has reached stable storage."""
        return self._applier.counts.transactions_committed

    def expected_values(self) -> np.ndarray:
        """A copy of the expected post-recovery record values."""
        return self._expected.copy()

    def mismatches(self, actual: np.ndarray, limit: int = 10) -> List[int]:
        """Record ids where ``actual`` disagrees with the oracle."""
        diff = np.nonzero(actual != self._expected)[0]
        return [int(r) for r in diff[:limit]]

    def mismatch_report(self, actual: np.ndarray,
                        limit: int = 10) -> List[RecordMismatch]:
        """Like :meth:`mismatches` but with expected/actual values.

        Debugging a recovery divergence needs to know *how* the values
        differ (off-by-a-delta points at replay, zero points at a lost
        segment), not just where.
        """
        expected = self._expected
        diff = np.nonzero(actual != expected)[0]
        return [
            RecordMismatch(int(r), int(expected[r]), int(actual[r]))
            for r in diff[:limit]
        ]
