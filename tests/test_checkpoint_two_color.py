"""Tests for the two-color checkpointers (2CFLUSH, 2CCOPY)."""

from __future__ import annotations

import pytest

from tests.helpers import CheckpointHarness
from repro.cpu.accounting import CostCategory
from repro.txn.transaction import TransactionState

BOTH = ["2CFLUSH", "2CCOPY"]


def _record_in_segment(params, segment_index: int, offset: int = 0) -> int:
    return segment_index * params.records_per_segment + offset


@pytest.mark.parametrize("algorithm", BOTH)
class TestTwoColorRule:
    def test_mixed_color_transaction_aborts(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        # Dirty two segments at opposite ends so the sweep takes a while.
        low = _record_in_segment(tiny_params, 0)
        high = _record_in_segment(tiny_params, tiny_params.n_segments - 1)
        harness.submit([low])
        harness.submit([high])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        # Drive until segment 0 is black but the last segment is not.
        for _ in range(100000):
            if harness.database.table.painted_black[0]:
                break
            harness.engine.step()
        assert not harness.database.table.painted_black[-1]
        txn = harness.submit([low, high])
        assert txn.state is TransactionState.ABORTED
        assert harness.manager.stats.aborts == {"two-color": 1}
        harness.drive_checkpoint()

    def test_single_color_transactions_commit(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        low = _record_in_segment(tiny_params, 0)
        mid = _record_in_segment(tiny_params, tiny_params.n_segments - 2)
        high = _record_in_segment(tiny_params, tiny_params.n_segments - 1)
        harness.submit([low])
        harness.submit([mid])
        harness.submit([high])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        # Once segment 1 is painted, the sweep has passed the clean middle
        # but the last dirty segment's write is still pending: it is white
        # and unlocked.
        for _ in range(100000):
            if harness.database.table.painted_black[1]:
                break
            harness.engine.step()
        assert not harness.database.table.painted_black[-1]
        all_black = harness.submit([low])   # black only
        all_white = harness.submit([high])  # white only
        assert all_black.state is TransactionState.COMMITTED
        assert all_white.state is TransactionState.COMMITTED
        harness.drive_checkpoint()

    def test_no_aborts_outside_checkpoints(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.run_checkpoint()
        low = _record_in_segment(tiny_params, 0)
        high = _record_in_segment(tiny_params, tiny_params.n_segments - 1)
        txn = harness.submit([low, high])
        assert txn.state is TransactionState.COMMITTED
        assert harness.manager.stats.total_aborts == 0

    def test_aborted_transaction_reruns_after_checkpoint(self, tiny_params,
                                                         algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        low = _record_in_segment(tiny_params, 0)
        high = _record_in_segment(tiny_params, tiny_params.n_segments - 1)
        harness.submit([low])
        harness.submit([high])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        for _ in range(100000):
            if harness.database.table.painted_black[0]:
                break
            harness.engine.step()
        txn = harness.submit([low, high])
        assert txn.state is TransactionState.ABORTED
        harness.drive_checkpoint()
        harness.engine.run()  # rerun backoff fires; checkpoint is over
        assert txn.state is TransactionState.COMMITTED
        assert txn.attempts >= 2

    def test_paint_reset_at_next_begin(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        harness.run_checkpoint()
        assert harness.database.table.painted_black.all()
        # A dirty segment whose log records are still in the tail stalls
        # the new sweep at segment 0 (the single pump slot is held through
        # the WAL wait), making the white reset observable on segment 1.
        harness.submit([0])
        harness.checkpointer.start_checkpoint()
        assert not harness.database.table.painted_black[1]
        harness.log.flush()
        harness.drive_checkpoint()
        assert harness.database.table.painted_black.all()

    def test_lsn_checked_before_flush(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])  # records still in the volatile tail
        harness.checkpointer.start_checkpoint()
        harness.engine.run()
        run = harness.checkpointer.current
        assert run is not None and run.segments_flushed == 0  # WAL wait
        harness.log.flush()
        harness.drive_checkpoint()


class TestFlushVsCopyVariants:
    def test_2cflush_never_copies(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "2CFLUSH")
        harness.submit([0, 600])
        harness.log.flush()
        harness.run_checkpoint()
        assert harness.ledger.by_category().get(CostCategory.COPY, 0) == 0
        assert harness.ledger.by_category().get(CostCategory.ALLOC, 0) == 0

    def test_2ccopy_copies_each_flushed_segment(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "2CCOPY")
        harness.submit([0])
        harness.log.flush()
        stats = harness.run_checkpoint()
        assert stats.buffer_copies == 1
        assert (harness.ledger.by_category()[CostCategory.COPY]
                == tiny_params.s_seg)

    def test_2cflush_holds_lock_across_io(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "2CFLUSH", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        # Segment 0's write is now in flight with the lock held.
        assert harness.locks.is_locked(0)
        txn = harness.submit([0])
        assert txn.state is TransactionState.WAITING
        harness.drive_checkpoint()
        harness.engine.run()
        assert txn.state is TransactionState.COMMITTED

    def test_2ccopy_releases_lock_immediately(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "2CCOPY", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        assert not harness.locks.is_locked(0)  # copy done, lock released
        txn = harness.submit([0])              # segment 0 is black-only
        assert txn.state is TransactionState.COMMITTED
        harness.drive_checkpoint()

    def test_2ccopy_image_unaffected_by_update_after_copy(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "2CCOPY", io_depth=1)
        first = harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()  # segment 0 copied at once
        second = harness.submit([0])             # all-black: allowed
        harness.log.flush()
        stats = harness.drive_checkpoint()
        assert harness.image_value(stats.image, 0) == first.value_for(0)
        assert harness.database.read_record(0) == second.value_for(0)


class TestTransactionConsistency:
    def test_full_2c_backup_reflects_whole_transactions(self, tiny_params):
        """The TC property: every transaction is all-in or all-out."""
        from repro.checkpoint.base import CheckpointScope
        harness = CheckpointHarness(tiny_params, "2CCOPY",
                                    scope=CheckpointScope.FULL, io_depth=1)
        before = harness.submit([0, 70])   # committed before the checkpoint
        harness.log.flush()
        stats = harness.run_checkpoint()
        for rid in (0, 70):
            assert harness.image_value(stats.image, rid) == before.value_for(rid)

    def test_all_black_transaction_absent_from_backup(self, tiny_params):
        from repro.checkpoint.base import CheckpointScope
        harness = CheckpointHarness(tiny_params, "2CCOPY",
                                    scope=CheckpointScope.FULL, io_depth=1)
        harness.checkpointer.start_checkpoint()
        # Segment 0 was copied immediately; an all-black transaction's
        # updates must not appear in this checkpoint's image.
        txn = harness.submit([0])
        assert txn.state is TransactionState.COMMITTED
        harness.log.flush()
        stats = harness.drive_checkpoint()
        assert harness.image_value(stats.image, 0) == 0
        assert harness.database.read_record(0) == txn.value_for(0)
