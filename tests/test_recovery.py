"""Tests for REDO replay semantics and the recovery manager."""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from tests.helpers import CheckpointHarness, columns
from repro.errors import RecoveryError
from repro.mmdb.database import Database
from repro.params import SystemParameters
from repro.recovery.replay import RedoApplier, replay_records
from repro.recovery.restore import RecoveryManager
from repro.sim.timestamps import TimestampAuthority
from repro.storage.array import DiskArray
from repro.storage.backup import BackupStore
from repro.wal.log import LogManager
from repro.wal.records import UpdateRecord, UpdateRun


def _state(n_records=4):
    """A zeroed value array for replay to write into."""
    return np.zeros(n_records, dtype=np.int64)


def _log_with(params, script):
    """Build a log from a compact script of (kind, txn, [rid, value]);
    consecutive updates of one transaction are logged as one run."""
    log = LogManager(params)
    for (kind, txn_id), group in groupby(script, key=itemgetter(0, 1)):
        if kind == "u":
            log.append_update_run(txn_id,
                                  *columns(entry[2:] for entry in group))
            continue
        for _ in group:
            if kind == "c":
                log.append_commit(txn_id)
            elif kind == "a":
                log.append_abort(txn_id)
    log.flush()
    return log


def _per_record(records):
    """``records`` with every run spelled out as the update records it
    stands for -- the shape a WAL file may hold."""
    spelled = []
    for record in records:
        if type(record) is UpdateRun:
            first = record.lsn - record.n_updates + 1
            spelled += [UpdateRecord(first + i, record.txn_id, rid, value)
                        for i, (rid, value) in enumerate(record.pairs())]
        else:
            spelled.append(record)
    return spelled


class TestReplaySemantics:
    def test_committed_updates_applied_in_order(self, tiny_params):
        log = _log_with(tiny_params, [
            ("u", 1, 0, 10), ("u", 1, 1, 11), ("c", 1),
            ("u", 2, 0, 20), ("c", 2),
        ])
        state = _state()
        replay_records(log.stable_records(), state)
        assert state.tolist() == [20, 11, 0, 0]

    def test_uncommitted_updates_dropped(self, tiny_params):
        log = _log_with(tiny_params, [
            ("u", 1, 0, 10),  # no commit record
        ])
        state = _state()
        counts = replay_records(log.stable_records(), state)
        assert not state.any()
        assert counts.pending_at_end == 1
        assert counts.updates_dropped == 1

    def test_aborted_attempt_dropped(self, tiny_params):
        log = _log_with(tiny_params, [
            ("u", 1, 0, 10), ("a", 1),
        ])
        state = _state()
        counts = replay_records(log.stable_records(), state)
        assert not state.any()
        assert counts.attempts_aborted == 1

    def test_abort_then_commit_same_txn_id(self, tiny_params):
        """The two-color pattern: a rerun of the same transaction commits.

        Set-based outcome filtering would lose the rerun's updates; the
        attempt-buffer semantics must keep them.
        """
        log = _log_with(tiny_params, [
            ("u", 1, 0, 10), ("a", 1),          # first attempt aborted
            ("u", 1, 0, 12), ("u", 1, 1, 13), ("c", 1),  # rerun commits
        ])
        state = _state()
        counts = replay_records(log.stable_records(), state)
        assert state.tolist() == [12, 13, 0, 0]
        assert counts.transactions_committed == 1
        assert counts.attempts_aborted == 1

    def test_interleaved_transactions(self, tiny_params):
        log = _log_with(tiny_params, [
            ("u", 1, 0, 10), ("u", 2, 1, 21),
            ("c", 2), ("u", 1, 2, 12), ("c", 1),
        ])
        state = _state()
        replay_records(log.stable_records(), state)
        assert state.tolist() == [10, 21, 12, 0]

    def test_incremental_feed_matches_one_shot(self, tiny_params):
        log = _log_with(tiny_params, [
            ("u", 1, 0, 10), ("c", 1), ("u", 2, 1, 21), ("c", 2),
        ])
        records = list(log.stable_records())
        one = _state()
        replay_records(records, one)
        incremental = _state()
        applier = RedoApplier(incremental)
        applier.feed(records[:2])
        applier.feed(records[2:])
        applier.finish()
        assert one.tolist() == incremental.tolist()

    def test_counts_scanned(self, tiny_params):
        log = _log_with(tiny_params, [("u", 1, 0, 1), ("c", 1)])
        counts = replay_records(log.stable_records(), _state())
        assert counts.records_scanned == 2
        assert counts.updates_applied == 1


def _runs_script(n_txns, updates_per_txn, n_records=64):
    """Commit-time logging: each transaction's updates, then its outcome
    (every fifth aborted), repeated record ids across transactions."""
    script = []
    for txn_id in range(1, n_txns + 1):
        for i in range(updates_per_txn):
            script.append(("u", txn_id, (txn_id * 7 + i) % n_records,
                           txn_id * 1000 + i))
        script.append(("a" if txn_id % 5 == 0 else "c", txn_id))
    return script


class TestBatchedReplay:
    def test_whole_runs_never_reach_the_per_record_loop(self, tiny_params,
                                                        monkeypatch):
        script = _runs_script(12, 9) + [("u", 13, 3, 1), ("u", 13, 4, 2)]
        records = list(_log_with(tiny_params, script).stable_records())
        expected = RedoApplier(_state(64))
        expected.feed_each(records)
        monkeypatch.setattr(RedoApplier, "feed_each", None)
        applier = RedoApplier(_state(64))
        applier.feed(records)
        assert applier.target.tolist() == expected.target.tolist()
        assert applier.finish() == expected.finish()
        assert applier.counts.pending_at_end == 2   # txn 13 never ended

    def test_per_record_updates_reach_the_loop_whole(self, tiny_params,
                                                     monkeypatch):
        """Update records (each run spelled out) are not the shape the
        fast path takes: the whole batch goes to the loop, to the same
        array and counts as the runs they stand for."""
        script = _runs_script(12, 9) + [("u", 13, 3, 1), ("u", 13, 4, 2)]
        runs = list(_log_with(tiny_params, script).stable_records())
        records = _per_record(runs)
        assert len(records) > len(runs)
        expected = RedoApplier(_state(64))
        expected.feed(runs)
        handed = self._handed_to_the_loop(monkeypatch)
        applier = RedoApplier(_state(64))
        applier.feed(records)
        assert handed == [len(records)]
        assert applier.target.tolist() == expected.target.tolist()
        assert applier.finish() == expected.finish()

    @staticmethod
    def _handed_to_the_loop(monkeypatch):
        """Record the length of every batch remainder ``feed`` hands to
        ``feed_each``."""
        handed = []
        real_feed_each = RedoApplier.feed_each

        def feed_each(applier, rest):
            handed.append(len(rest))
            real_feed_each(applier, rest)

        monkeypatch.setattr(RedoApplier, "feed_each", feed_each)
        return handed

    def test_the_loop_takes_over_at_the_first_break_in_shape(
            self, tiny_params, monkeypatch):
        """Wherever the batch stops being whole runs (here: an
        interleaved transaction, then a logical record), the runs before
        it are written as they stand and the loop replays the rest."""
        script = (_runs_script(8, 6) + [("u", 20, 1, 5), ("u", 21, 2, 6),
                                        ("c", 21), ("c", 20)]
                  + _runs_script(4, 3))
        log = _log_with(tiny_params, script)
        log.append_logical_updates(30, [(5, 9)])
        log.append_commit(30)
        log.flush()
        records = list(log.stable_records())
        expected = RedoApplier(_state(64))
        expected.feed_each(records)
        handed = self._handed_to_the_loop(monkeypatch)
        applier = RedoApplier(_state(64))
        applier.feed(records)
        assert applier.target.tolist() == expected.target.tolist()
        assert applier.finish() == expected.finish()
        # 30 records; the 8 whole runs before the interleaved pair and
        # their outcomes are 16 of them
        assert len(records) == 30
        assert handed == [len(records) - 16]

    def test_an_unclosed_end_of_two_transactions_is_buffered_apart(
            self, tiny_params):
        """A batch may end inside transactions whose outcome a later
        batch brings; each keeps its own buffer across the feeds."""
        records = list(_log_with(tiny_params, [
            ("u", 1, 0, 10), ("c", 1), ("u", 2, 1, 21), ("u", 3, 2, 32),
            ("u", 3, 3, 33), ("c", 2), ("a", 3)]).stable_records())
        applier = RedoApplier(_state())
        applier.feed(records[:4])
        applier.feed(records[4:])
        assert applier.target.tolist() == [10, 21, 0, 0]
        counts = applier.finish()
        assert (counts.updates_applied, counts.updates_dropped) == (2, 2)

    def test_a_write_the_array_refuses_goes_to_the_loop(self, tiny_params,
                                                       monkeypatch):
        """numpy's own indexing decides: a negative id indexes from the
        end in both ways, and a run holding an id past the end is
        replayed from its start by the loop, which raises just as it
        does on its own."""
        records = list(_log_with(tiny_params, [
            ("u", 1, 2, 5), ("u", 1, 2, 6), ("c", 1), ("u", 2, -1, 7),
            ("c", 2), ("u", 3, 0, 8), ("u", 3, 4, 2), ("c", 3)],
        ).stable_records())
        expected = RedoApplier(_state())
        with pytest.raises(IndexError):
            expected.feed_each(records)
        handed = self._handed_to_the_loop(monkeypatch)
        state = _state()
        with pytest.raises(IndexError):
            replay_records(records, state)
        assert state.tolist() == expected.target.tolist() == [8, 0, 6, 7]
        assert handed == [2]


class _RecoverySetup:
    """A database + log + backup trio manipulated directly."""

    def __init__(self, params: SystemParameters):
        self.params = params
        self.database = Database(params)
        self.log = LogManager(params)
        self.backup = BackupStore(params)
        self.array = DiskArray(params)
        self.authority = TimestampAuthority()

    def manager(self) -> RecoveryManager:
        return RecoveryManager(self.params, self.database, self.log,
                               self.backup, self.array,
                               authority=self.authority)

    def complete_checkpoint_of_zeros(self, checkpoint_id: int = 1,
                                     active_txns=()):
        image = self.backup.acquire_image_for_checkpoint(checkpoint_id)
        zeros = np.zeros(self.params.records_per_segment, dtype=np.int64)
        begin = self.log.append_begin_checkpoint(
            checkpoint_id, 1, active_txns, image.index)
        for index in range(self.params.n_segments):
            image.write_segment(index, zeros, 0.0)
        image.complete_checkpoint(checkpoint_id, began_at=0.0)
        self.log.append_end_checkpoint(checkpoint_id, image.index)
        self.log.flush()
        return begin, image


class TestRecoveryManager:
    def test_no_checkpoint_replays_whole_log(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        setup.log.append_update_run(1, *columns([(5, 55)]))
        setup.log.append_commit(1)
        setup.log.flush()
        result = setup.manager().recover()
        assert result.used_checkpoint_id is None
        assert result.backup_read_time == 0.0
        assert setup.database.read_record(5) == 55

    def test_recovers_from_image_plus_log(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        setup.complete_checkpoint_of_zeros()
        setup.log.append_update_run(2, *columns([(7, 77)]))
        setup.log.append_commit(2)
        setup.log.flush()
        result = setup.manager().recover()
        assert result.used_checkpoint_id == 1
        assert result.transactions_replayed == 1
        assert setup.database.read_record(7) == 77
        assert setup.database.read_record(8) == 0

    def test_pre_marker_records_not_replayed(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        # A committed transaction *before* the checkpoint: its effect is
        # assumed captured by the image (here: zeros, deliberately), so
        # replay must not resurrect it.
        setup.log.append_update_run(1, *columns([(3, 33)]))
        setup.log.append_commit(1)
        setup.complete_checkpoint_of_zeros()
        result = setup.manager().recover()
        assert setup.database.read_record(3) == 0
        assert result.transactions_replayed == 0

    def test_replay_starts_at_an_active_transactions_first_lsn(
            self, tiny_params):
        """A transaction active at the begin marker extends replay back
        to its oldest record: a run's first LSN, not its ``lsn`` (the
        last)."""
        setup = _RecoverySetup(tiny_params)
        setup.log.append_commit(9)
        run = setup.log.append_update_run(
            2, *columns([(1, 5), (2, 6), (3, 7)]))
        setup.log.append_abort(2)
        setup.complete_checkpoint_of_zeros(active_txns=(2,))
        result = setup.manager().recover()
        assert (run.lsn, result.start_lsn) == (4, 2)
        assert result.records_scanned == 3 + 1 + 2   # run, abort, markers
        assert setup.database.read_record(1) == 0

    def test_missing_image_checkpoint_is_error(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        setup.log.append_begin_checkpoint(1, 1, (), image=0)
        setup.log.append_end_checkpoint(1, image=0)
        setup.log.flush()  # log claims completion; image never written
        with pytest.raises(RecoveryError):
            setup.manager().recover()

    def test_recovery_wipes_pre_crash_residue(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        setup.complete_checkpoint_of_zeros()
        setup.database.install_record(9, 999, timestamp=1, lsn=1)  # volatile
        setup.manager().recover()
        assert setup.database.read_record(9) == 0

    def test_segments_marked_stale_after_recovery(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        _, image = setup.complete_checkpoint_of_zeros()
        setup.manager().recover()
        table = setup.database.table
        for index in range(setup.database.n_segments):
            assert table.dirty[index]
            assert image.needs_segment(index, table.timestamp[index])

    def test_recovery_times_modelled(self, tiny_params):
        setup = _RecoverySetup(tiny_params)
        setup.complete_checkpoint_of_zeros()
        setup.log.append_update_run(2, *columns([(7, 77)]))
        setup.log.append_commit(2)
        setup.log.flush()
        result = setup.manager().recover()
        expected_read = setup.array.series_time(
            tiny_params.n_segments, tiny_params.s_seg)
        assert result.backup_read_time == pytest.approx(expected_read)
        assert result.log_read_time > 0
        assert result.total_time == pytest.approx(
            result.backup_read_time + result.log_read_time)

    def test_replay_is_idempotent_over_fuzzy_image(self, tiny_params):
        """An image already containing post-marker values is harmless."""
        setup = _RecoverySetup(tiny_params)
        begin, image = setup.complete_checkpoint_of_zeros()
        # Fuzzy: the image also caught txn 2's update before it committed.
        data = np.zeros(tiny_params.records_per_segment, dtype=np.int64)
        data[7] = 77
        image.write_segment(0, data, flush_time=2.0)
        setup.log.append_update_run(2, *columns([(7, 77)]))
        setup.log.append_commit(2)
        setup.log.flush()
        setup.manager().recover()
        assert setup.database.read_record(7) == 77


class TestEndToEndViaHarness:
    @pytest.mark.parametrize("algorithm",
                             ["FUZZYCOPY", "2CCOPY", "COUFLUSH", "COUCOPY"])
    def test_recovery_after_checkpoints_and_updates(self, tiny_params,
                                                    algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        first = harness.submit([0, 70])
        harness.log.flush()
        harness.run_checkpoint()
        second = harness.submit([0, 300])
        harness.log.flush()
        manager = RecoveryManager(
            tiny_params, harness.database, harness.log, harness.backup,
            harness.array, authority=harness.authority)
        result = manager.recover()
        assert result.used_checkpoint_id == 1
        assert harness.database.read_record(0) == second.value_for(0)
        assert harness.database.read_record(70) == first.value_for(70)
        assert harness.database.read_record(300) == second.value_for(300)
