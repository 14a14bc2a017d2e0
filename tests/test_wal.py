"""Tests for the write-ahead log: records, LSNs, tail/stable, waiters."""

from __future__ import annotations

import pytest

from repro.errors import InvalidStateError, WALViolation
from repro.params import SystemParameters
from repro.wal.log import LogManager
from repro.wal.lsn import LSNAllocator
from repro.wal.records import (
    AbortRecord,
    BeginCheckpointRecord,
    CommitRecord,
    EndCheckpointRecord,
    UpdateRecord,
    UpdateRun,
)

from tests.helpers import columns


@pytest.fixture
def log(tiny_params: SystemParameters) -> LogManager:
    return LogManager(tiny_params)


@pytest.fixture
def stable_log(tiny_params: SystemParameters) -> LogManager:
    return LogManager(tiny_params.replace(stable_log_tail=True))


class TestLSNAllocator:
    def test_starts_at_one(self):
        alloc = LSNAllocator()
        assert alloc.last_allocated == 0
        assert alloc.allocate() == 1

    def test_strictly_increasing(self):
        alloc = LSNAllocator()
        lsns = [alloc.allocate() for _ in range(10)]
        assert lsns == list(range(1, 11))

    def test_negative_start_rejected(self):
        with pytest.raises(InvalidStateError):
            LSNAllocator(-1)


class TestRecordSizes:
    def test_update_record_size(self, log, tiny_params):
        record = log.append_update_run(1, *columns([(0, 42)]))
        expected = tiny_params.s_rec + tiny_params.s_log_header
        assert log.record_size_words(record) == expected

    def test_commit_and_abort_sizes(self, log, tiny_params):
        commit = log.append_commit(1)
        abort = log.append_abort(2)
        assert log.record_size_words(commit) == tiny_params.s_log_commit
        assert log.record_size_words(abort) == tiny_params.s_log_commit

    def test_begin_marker_carries_active_list(self, log, tiny_params):
        marker = log.append_begin_checkpoint(1, 5, [7, 9], image=0)
        assert marker.active_txns == (7, 9)
        assert (log.record_size_words(marker)
                == tiny_params.s_log_commit + 2)


class TestAppendAndFlush:
    def test_appends_assign_increasing_lsns(self, log):
        a = log.append_update_run(1, *columns([(0, 1)]))
        b = log.append_commit(1)
        assert b.lsn == a.lsn + 1

    def test_tail_until_flush(self, log):
        log.append_update_run(1, *columns([(0, 1)]))
        assert log.stable_lsn == 0
        assert log.tail_records == 1
        assert not log.stable_records()

    def test_flush_moves_tail(self, log):
        log.append_update_run(1, *columns([(0, 1)]))
        commit = log.append_commit(1)
        result = log.flush()
        assert result.records == 2
        assert log.stable_lsn == commit.lsn
        assert log.tail_records == 0
        assert len(log.stable_records()) == 2

    def test_flush_and_crash_count_a_run_as_its_updates(self, log):
        log.append_update_run(1, *columns([(0, 1), (1, 2), (0, 3)]))
        log.append_commit(1)
        assert log.tail_records == 2
        assert log.flush().records == 4
        log.append_update_run(2, *columns([(0, 1), (1, 2)]))
        assert log.tail_records == 1
        assert log.crash() == 2

    def test_flush_counts_words(self, log, tiny_params):
        log.append_commit(1)
        result = log.flush()
        assert result.words == tiny_params.s_log_commit
        assert log.words_flushed == result.words

    def test_empty_flush_is_noop(self, log):
        result = log.flush()
        assert result.records == 0
        assert log.flush_count == 0

    def test_is_stable(self, log):
        record = log.append_commit(1)
        assert not log.is_stable(record.lsn)
        log.flush()
        assert log.is_stable(record.lsn)

    def test_stable_records_in_lsn_order(self, log):
        for i in range(5):
            log.append_commit(i)
            log.flush()
        lsns = [r.lsn for r in log.stable_records()]
        assert lsns == sorted(lsns)


class TestUpdateRuns:
    """A transaction's updates as one record: the LSNs, words and
    truncation behaviour of the same updates logged one by one."""

    def test_a_run_consumes_one_lsn_per_update_and_ends_at_the_last(
            self, log, tiny_params):
        log.append_commit(9)
        run = log.append_update_run(1, *columns([(4, 7), (5, 8), (4, 9)]))
        assert (run.lsn, run.n_updates) == (4, 3)
        assert list(run.pairs()) == [(4, 7), (5, 8), (4, 9)]
        assert log.append_commit(1).lsn == 5
        per_update = LogManager(tiny_params)
        per_update.append_commit(9)
        for pair in [(4, 7), (5, 8), (4, 9)]:
            per_update.append_update_run(1, *columns([pair]))
        per_update.append_commit(1)
        assert (log.words_appended, log.tail_words) == (
            per_update.words_appended, per_update.tail_words)
        assert log.tail_records == 3
        result = log.flush()
        assert result.stable_lsn == 5
        assert result.records == per_update.flush().records == 5

    def test_truncation_keeps_a_run_reaching_the_horizon_whole(
            self, log, tiny_params):
        run = log.append_update_run(1, *columns([(1, 1), (2, 2), (3, 3)]))
        log.append_commit(1)
        log.flush()
        assert log.stable_words_from(2) == log.stable_words_from(1)
        assert log.truncate_stable_before(3) == 0
        assert log.stable_records()[0] == run
        assert log.truncate_stable_before(4) == 3 * (
            tiny_params.s_rec + tiny_params.s_log_header)

    @pytest.mark.parametrize("ids, values", [
        (b"", b""), (b"\0" * 8, b""), (b"\0" * 12, b"\0" * 12)])
    def test_a_run_needs_equal_non_empty_int64_columns(self, log, ids,
                                                       values):
        with pytest.raises(InvalidStateError):
            log.append_update_run(1, ids, values)
        assert log.last_lsn == 0 and log.tail_records == 0


class TestStableTail:
    def test_appends_immediately_stable(self, stable_log):
        record = stable_log.append_commit(1)
        assert stable_log.stable_lsn == record.lsn
        assert stable_log.tail_records == 0

    def test_crash_loses_nothing(self, stable_log):
        stable_log.append_commit(1)
        assert stable_log.crash() == 0
        assert len(stable_log.stable_records()) == 1


class TestWaiters:
    def test_waiter_fires_on_flush(self, log):
        record = log.append_commit(1)
        fired = []
        log.when_stable(record.lsn, lambda: fired.append("x"))
        assert fired == []
        log.flush()
        assert fired == ["x"]

    def test_already_stable_fires_immediately(self, log):
        record = log.append_commit(1)
        log.flush()
        fired = []
        log.when_stable(record.lsn, lambda: fired.append("x"))
        assert fired == ["x"]

    def test_lsn_zero_always_stable(self, log):
        fired = []
        log.when_stable(0, lambda: fired.append("x"))
        assert fired == ["x"]

    def test_waiters_fire_in_lsn_order(self, log):
        a = log.append_commit(1)
        b = log.append_commit(2)
        fired = []
        log.when_stable(b.lsn, lambda: fired.append("b"))
        log.when_stable(a.lsn, lambda: fired.append("a"))
        log.flush()
        assert fired == ["a", "b"]

    def test_crash_drops_waiters(self, log):
        record = log.append_commit(1)
        fired = []
        log.when_stable(record.lsn, lambda: fired.append("x"))
        log.crash()
        log.append_commit(2)
        log.flush()
        assert fired == []


class TestWALAssertion:
    def test_violation_detected(self, log):
        record = log.append_update_run(1, *columns([(0, 1)]))
        with pytest.raises(WALViolation):
            log.assert_wal(record.lsn, context="test")

    def test_passes_after_flush(self, log):
        record = log.append_update_run(1, *columns([(0, 1)]))
        log.flush()
        log.assert_wal(record.lsn, context="test")

    def test_lsn_zero_never_violates(self, log):
        log.assert_wal(0, context="test")


class TestCrash:
    def test_crash_discards_tail(self, log):
        log.append_commit(1)
        log.flush()
        log.append_commit(2)
        assert log.crash() == 1
        txns = [r.txn_id for r in log.stable_records()
                if isinstance(r, CommitRecord)]
        assert txns == [1]

    def test_lsns_keep_increasing_after_crash(self, log):
        a = log.append_commit(1)
        log.crash()
        b = log.append_commit(2)
        assert b.lsn > a.lsn


class TestCheckpointMarkers:
    def test_find_last_completed(self, log):
        log.append_begin_checkpoint(1, 10, [], image=0)
        log.append_end_checkpoint(1, image=0)
        log.append_begin_checkpoint(2, 20, [], image=1)
        log.append_end_checkpoint(2, image=1)
        log.append_begin_checkpoint(3, 30, [], image=0)  # incomplete
        log.flush()
        found = log.find_last_completed_checkpoint()
        assert found is not None
        begin, end = found
        assert begin.checkpoint_id == 2 and end.checkpoint_id == 2
        assert begin.image == 1

    def test_no_completed_checkpoint(self, log):
        log.append_begin_checkpoint(1, 10, [], image=0)
        log.flush()
        assert log.find_last_completed_checkpoint() is None

    def test_unflushed_end_marker_not_found(self, log):
        log.append_begin_checkpoint(1, 10, [], image=0)
        log.flush()
        log.append_end_checkpoint(1, image=0)  # still in the tail
        assert log.find_last_completed_checkpoint() is None

    def test_truncation_reclaims_words(self, log, tiny_params):
        log.append_commit(1)
        marker = log.append_begin_checkpoint(1, 10, [], image=0)
        log.append_end_checkpoint(1, image=0)
        log.flush()
        reclaimed = log.truncate_stable_before(marker.lsn)
        assert reclaimed == tiny_params.s_log_commit
        assert log.stable_records()[0].lsn == marker.lsn

    def test_stable_words_from(self, log, tiny_params):
        log.append_commit(1)
        record = log.append_commit(2)
        log.flush()
        assert (log.stable_words_from(record.lsn)
                == tiny_params.s_log_commit)
        assert (log.stable_words_from(0)
                == 2 * tiny_params.s_log_commit)


class TestDrainNewlyStable:
    def test_drain_after_flush(self, log):
        log.append_commit(1)
        log.flush()
        drained = log.drain_newly_stable()
        assert [type(r) for r in drained] == [CommitRecord]
        assert log.drain_newly_stable() == []

    def test_drain_with_stable_tail(self, stable_log):
        stable_log.append_update_run(1, *columns([(0, 5)]))
        stable_log.append_commit(1)
        drained = stable_log.drain_newly_stable()
        assert [type(r) for r in drained] == [UpdateRun, CommitRecord]


class TestRecordTypes:
    def test_record_kinds_are_distinct(self):
        kinds = {UpdateRecord, CommitRecord, AbortRecord,
                 BeginCheckpointRecord, EndCheckpointRecord}
        assert len(kinds) == 5

    def test_update_record_fields(self, log):
        record = log.append_update_run(3, *columns([(17, 99)]))
        assert (record.txn_id, list(record.pairs())) == (3, [(17, 99)])
