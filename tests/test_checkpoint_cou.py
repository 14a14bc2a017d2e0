"""Tests for the copy-on-update checkpointers (COUFLUSH, COUCOPY)."""

from __future__ import annotations

import pytest

from tests.helpers import CheckpointHarness
from repro.checkpoint.base import CheckpointScope
from repro.cpu.accounting import CostCategory
from repro.txn.transaction import TransactionState
from repro.wal.records import BeginCheckpointRecord

BOTH = ["COUFLUSH", "COUCOPY"]


def _record_in_segment(params, segment_index: int, offset: int = 0) -> int:
    return segment_index * params.records_per_segment + offset


def _last_segment_record(params) -> int:
    return _record_in_segment(params, params.n_segments - 1)


@pytest.mark.parametrize("algorithm", BOTH)
class TestSnapshotSemantics:
    def test_begin_marker_carries_tau_and_flushes_log(self, tiny_params,
                                                      algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])  # records in the volatile tail
        assert harness.log.tail_records > 0
        harness.checkpointer.start_checkpoint()
        assert harness.log.tail_records == 0  # begin flushed the tail
        marker = next(r for r in harness.log.stable_records()
                      if isinstance(r, BeginCheckpointRecord)
                      and r.checkpoint_id == 1)
        assert marker.timestamp > 0
        harness.drive_checkpoint()

    def test_update_ahead_of_sweep_saves_old_copy(self, tiny_params,
                                                  algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        record = _last_segment_record(tiny_params)
        pre = harness.submit([record])
        harness.log.flush()
        # Stall the sweep at segment 0 (its log records are in the tail).
        harness.submit([0])
        harness.checkpointer.start_checkpoint()
        table = harness.database.table
        index = harness.database.segment_index_of(record)
        assert index not in table.old_copies
        post = harness.submit([record])  # updates ahead of the sweep
        assert post.state is TransactionState.COMMITTED
        assert index in table.old_copies
        assert table.old_copy_timestamp[index] == pre.timestamp
        stats = harness.drive_checkpoint()
        # The image holds the snapshot (pre-checkpoint) value.
        assert harness.image_value(stats.image, record) == pre.value_for(record)
        assert harness.database.read_record(record) == post.value_for(record)
        assert stats.cou_copies == 1

    def test_second_update_does_not_copy_again(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        record = _last_segment_record(tiny_params)
        harness.submit([0])  # unflushed: stalls the sweep
        harness.checkpointer.start_checkpoint()
        harness.submit([record])
        harness.submit([record])
        stats_run = harness.checkpointer.current
        assert stats_run.cou_copies == 1
        harness.log.flush()
        harness.drive_checkpoint()

    def test_update_behind_sweep_does_not_copy(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.run_checkpoint()  # watermark ends past every segment
        harness.checkpointer.start_checkpoint()
        harness.drive_checkpoint()
        # Start a fresh checkpoint and let it finish completely; then
        # updates are "behind" no active sweep and must never copy.
        txn = harness.submit([0])
        assert txn.state is TransactionState.COMMITTED
        assert 0 not in harness.database.table.old_copies

    def test_no_transactions_aborted(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        harness.submit([0])
        harness.checkpointer.start_checkpoint()
        for rid in range(0, tiny_params.n_records,
                         tiny_params.records_per_segment):
            harness.submit([rid])
        harness.log.flush()
        harness.drive_checkpoint()
        assert harness.manager.stats.total_aborts == 0

    def test_copy_cost_charged_synchronously(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        record = _last_segment_record(tiny_params)
        harness.submit([0])  # unflushed: stalls sweep
        harness.checkpointer.start_checkpoint()
        sync_copy_before = harness.ledger.by_category(
            synchronous=True).get(CostCategory.COPY, 0)
        harness.submit([record])
        sync_copy = harness.ledger.by_category(
            synchronous=True)[CostCategory.COPY] - sync_copy_before
        assert sync_copy == tiny_params.s_seg
        harness.log.flush()
        harness.drive_checkpoint()

    def test_wasted_copy_dropped_without_flush(self, tiny_params, algorithm):
        """A clean segment updated mid-checkpoint: copied, then discarded.

        Its old copy carries timestamp 0, which the preloaded image
        already holds, so the sweep drops the copy without an I/O.
        """
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        record = _last_segment_record(tiny_params)
        harness.submit([0])  # unflushed: stalls sweep
        harness.checkpointer.start_checkpoint()
        harness.submit([record])  # segment was never updated before
        old_copies = harness.database.table.old_copies
        index = harness.database.segment_index_of(record)
        assert index in old_copies
        harness.log.flush()
        stats = harness.drive_checkpoint()
        assert index not in old_copies            # dropped
        assert stats.segments_flushed == 1        # only segment 0
        # The new value is not lost: the *next* checkpoint flushes it.
        next_stats = harness.run_checkpoint()
        assert next_stats.segments_flushed >= 1

    def test_no_lsn_costs(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])
        harness.log.flush()
        harness.run_checkpoint()
        assert harness.ledger.by_category().get(CostCategory.LSN, 0) == 0


class TestFlushVsCopyVariants:
    def test_couflush_holds_lock_across_live_flush(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "COUFLUSH", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        assert harness.locks.is_locked(0)
        txn = harness.submit([0])
        assert txn.state is TransactionState.WAITING
        harness.drive_checkpoint()
        harness.engine.run()
        assert txn.state is TransactionState.COMMITTED
        # The waiting transaction resumed *after* the flush: no copy was
        # needed because the segment was already dumped.
        assert 0 not in harness.database.table.old_copies

    def test_coucopy_releases_lock_immediately(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "COUCOPY", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        assert not harness.locks.is_locked(0)
        txn = harness.submit([0])
        assert txn.state is TransactionState.COMMITTED
        harness.drive_checkpoint()

    def test_coucopy_charges_buffer_copy(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "COUCOPY")
        harness.submit([0])
        harness.log.flush()
        stats = harness.run_checkpoint()
        assert stats.buffer_copies == 1
        async_copy = harness.ledger.by_category(
            synchronous=False).get(CostCategory.COPY, 0)
        assert async_copy == tiny_params.s_seg

    def test_couflush_never_buffer_copies(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "COUFLUSH")
        harness.submit([0])
        harness.log.flush()
        stats = harness.run_checkpoint()
        assert stats.buffer_copies == 0
        async_copy = harness.ledger.by_category(
            synchronous=False).get(CostCategory.COPY, 0)
        assert async_copy == 0


class TestTransactionConsistency:
    @pytest.mark.parametrize("algorithm", BOTH)
    def test_full_cou_backup_is_the_snapshot(self, tiny_params, algorithm):
        """A FULL COU image equals the database state at tau(CH) exactly."""
        harness = CheckpointHarness(tiny_params, algorithm,
                                    scope=CheckpointScope.FULL, io_depth=1)
        committed = [harness.submit([i * tiny_params.records_per_segment])
                     for i in range(4)]
        harness.log.flush()
        snapshot = harness.database.values_snapshot()
        harness.submit([0])  # unflushed: stalls the sweep at segment 0
        snapshot2 = harness.database.values_snapshot()  # true begin state
        harness.checkpointer.start_checkpoint()
        # Concurrent updates all over the database.
        for i in range(tiny_params.n_segments):
            harness.submit([_record_in_segment(tiny_params, i, 3)])
        harness.log.flush()
        stats = harness.drive_checkpoint()
        image = harness.backup.image(stats.image)
        assert (image.values_snapshot() == snapshot2).all()
        assert committed  # silence unused warning; values checked via snapshot
        del snapshot

    @pytest.mark.parametrize("algorithm", BOTH)
    def test_quiesce_blocks_then_releases_arrivals(self, tiny_params,
                                                   algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.manager.quiesce()  # an external quiesce, then the COU one
        harness.manager.resume()
        harness.checkpointer.start_checkpoint()
        txn = harness.submit([0])
        # start_checkpoint resumed processing before returning.
        assert txn.state is TransactionState.COMMITTED
        harness.log.flush()
        harness.drive_checkpoint()
