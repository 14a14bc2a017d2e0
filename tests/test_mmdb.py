"""Tests for the in-memory database substrate: segments, database, shadow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AddressError, InvalidStateError
from repro.mmdb.database import Database
from repro.mmdb.shadow import ShadowBuffer
from repro.params import SystemParameters


@pytest.fixture
def db(tiny_params: SystemParameters) -> Database:
    return Database(tiny_params)


class TestAddressing:
    def test_shape(self, db, tiny_params):
        assert db.n_segments == tiny_params.n_segments
        assert db.n_records == tiny_params.n_records
        assert len(db) == db.n_segments

    def test_segment_of_first_and_last_record(self, db):
        assert db.segment_index_of(0) == 0
        assert db.segment_index_of(db.n_records - 1) == db.n_segments - 1

    def test_segment_boundaries(self, db):
        rps = db.records_per_segment
        assert db.segment_index_of(rps - 1) == 0
        assert db.segment_index_of(rps) == 1

    def test_record_out_of_range(self, db):
        with pytest.raises(AddressError):
            db.read_record(db.n_records)
        with pytest.raises(AddressError):
            db.read_record(-1)

    def test_segment_out_of_range(self, db):
        with pytest.raises(AddressError):
            db.segment_values(db.n_segments)

    def test_segment_record_range(self, db):
        rps = db.records_per_segment
        db.load_values(np.arange(db.n_records, dtype=np.int64))
        np.testing.assert_array_equal(db.segment_values(1),
                                      np.arange(rps, 2 * rps))


class TestInstall:
    def test_read_after_install(self, db):
        db.install_record(7, 1234, timestamp=5, lsn=10)
        assert db.read_record(7) == 1234

    def test_install_sets_dirty(self, db):
        index = db.segment_index_of(7)
        assert not db.table.dirty[index]
        assert db.install_record(7, 1, timestamp=1, lsn=1) is None
        assert db.table.dirty[index]

    def test_install_advances_timestamp_monotonically(self, db):
        db.install_record(7, 1, timestamp=5, lsn=1)
        db.install_record(7, 2, timestamp=3, lsn=2)  # older stamp
        assert db.table.timestamp[db.segment_index_of(7)] == 5

    def test_install_advances_lsn_monotonically(self, db):
        db.install_record(7, 1, timestamp=1, lsn=10)
        db.install_record(8, 2, timestamp=2, lsn=4)
        assert db.table.lsn[db.segment_index_of(7)] == 10

    def test_initial_values_zero(self, db):
        assert db.read_record(0) == 0
        assert not db.values_snapshot().any()


class TestBulkOperations:
    def test_dirty_segments_iteration(self, db):
        rps = db.records_per_segment
        db.install_record(0, 1, timestamp=1, lsn=1)
        db.install_record(3 * rps, 1, timestamp=1, lsn=2)
        assert db.table.dirty_indices() == [0, 3]

    def test_wipe_clears_everything(self, db):
        db.install_record(0, 99, timestamp=1, lsn=1)
        db.table.painted_black[0] = True
        db.save_old_copy(0)
        db.wipe()
        assert db.read_record(0) == 0
        table = db.table
        assert not table.dirty[0] and not table.painted_black[0]
        assert 0 not in table.old_copies and table.lsn[0] == 0

    def test_values_snapshot_is_independent(self, db):
        snap = db.values_snapshot()
        db.install_record(0, 42, timestamp=1, lsn=1)
        assert snap[0] == 0

    def test_load_values(self, db):
        values = np.arange(db.n_records, dtype=np.int64)
        db.load_values(values)
        assert db.read_record(5) == 5

    def test_load_values_shape_checked(self, db):
        with pytest.raises(AddressError):
            db.load_values(np.zeros(3, dtype=np.int64))

    def test_state_digest_changes_with_content(self, db):
        before = db.state_digest()
        db.install_record(0, 1, timestamp=1, lsn=1)
        assert db.state_digest() != before

    def test_equals_and_differing(self, db):
        other = db.values_snapshot()
        assert db.equals_values(other)
        db.install_record(4, 7, timestamp=1, lsn=1)
        assert not db.equals_values(other)
        assert db.differing_records(other) == [4]


class TestSegmentOldCopies:
    def test_save_captures_pre_update_data_and_stamps(self, db):
        db.install_record(0, 11, timestamp=3, lsn=9)
        copy = db.save_old_copy(0)
        assert copy[0] == 11
        table = db.table
        assert table.old_copy_timestamp[0] == 3
        assert table.old_copy_lsn[0] == 9
        db.install_record(0, 22, timestamp=4, lsn=10)
        # snapshot unaffected by later update
        assert table.old_copies[0][0] == 11

    def test_double_save_rejected(self, db):
        db.save_old_copy(0)
        with pytest.raises(InvalidStateError):
            db.save_old_copy(0)

    def test_drop_resets(self, db):
        db.save_old_copy(0)
        db.drop_old_copy(0)
        assert 0 not in db.table.old_copies
        assert db.table.old_copy_lsn[0] == 0

    def test_load_data_shape_checked(self, db):
        with pytest.raises(InvalidStateError):
            db.load_segment(0, np.zeros(1, dtype=np.int64))

    def test_data_view_is_live(self, db):
        view = db.segment_values(0)
        db.install_record(0, 5, timestamp=1, lsn=1)
        assert view[0] == 5

    def test_copy_data_is_snapshot(self, db):
        copy = db.segment_values(0).copy()
        db.install_record(0, 5, timestamp=1, lsn=1)
        assert copy[0] == 0


class TestSegmentTableEquivalence:
    """The old-copy state is one sparse dict plus two scalar arrays in
    the :class:`SegmentTable`; saving and dropping copies through the
    database must keep all three in lockstep, and a reset must clear
    every field.  Exercised over randomized save/drop sequences (a
    property-style sweep).
    """

    SEEDS = [3, 17, 91]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_old_copy_lifecycle_agrees(self, db, seed):
        import random
        rng = random.Random(seed)
        n = db.n_segments
        table = db.table
        #: segment index -> (value, timestamp, lsn) of its saved copy
        saved: dict[int, tuple[int, float, int]] = {}
        for step in range(200):
            index = rng.randrange(n)
            if index not in saved and rng.random() < 0.5:
                db.install_record(index * db.records_per_segment, step + 1,
                                  timestamp=float(step), lsn=step + 1)
                db.save_old_copy(index)
                saved[index] = (step + 1, float(step), step + 1)
            elif index in saved and rng.random() < 0.5:
                db.drop_old_copy(index)
                del saved[index]
            # sparse dict and scalar arrays stay in lockstep
            assert set(table.old_copies) == set(saved)
            if index in saved:
                value, timestamp, lsn = saved[index]
                assert table.old_copies[index][0] == value
                assert table.old_copy_timestamp[index] == timestamp
                assert table.old_copy_lsn[index] == lsn
            else:
                assert table.old_copy_timestamp[index] == 0.0
                assert table.old_copy_lsn[index] == 0

    def test_reset_wipes_views_and_arrays(self, db):
        table = db.table
        table.dirty[2] = True
        table.painted_black[2] = True
        table.timestamp[2] = 4.5
        table.lsn[2] = 9
        db.save_old_copy(2)
        table.reset()
        assert not table.dirty[2]
        assert not table.painted_black[2]
        assert table.timestamp[2] == 0.0
        assert table.lsn[2] == 0
        assert 2 not in table.old_copies
        assert table.old_copy_lsn[2] == 0
        assert table.dirty_indices() == []


class TestInstallRecordsEquivalence:
    """``install_records`` is the ``install_record`` loop, vectorised:
    after every batch a database driven by one must equal a database
    driven by the other in values and in all segment metadata -- with
    record ids repeated inside a batch, where numpy's own repeated-index
    assignment would be free to keep any of the writes.
    """

    @staticmethod
    def _state(database):
        table = database.table
        return [database.values_snapshot(), table.dirty.copy(),
                table.timestamp.copy(), table.lsn.copy()]

    @staticmethod
    def _assert_same(state, expected_state, case=""):
        for got, expected in zip(state, expected_state):
            np.testing.assert_array_equal(got, expected, err_msg=case)

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_batches_with_repeats_match_the_per_record_loop(
            self, tiny_params, seed):
        import random
        rng = random.Random(seed)
        bulk, loop = Database(tiny_params), Database(tiny_params)
        lsn, repeats = 0, 0
        for step in range(60):
            size = rng.choice([1, 2, 5, 1024])
            # a narrow id range makes most batches write a record twice
            span = rng.choice([3, 64, bulk.n_records])
            base = rng.randrange(bulk.n_records - span + 1)
            ids = [base + rng.randrange(span) for _ in range(size)]
            values = [rng.randrange(-(1 << 62), 1 << 62) for _ in ids]
            repeats += len(ids) - len(set(ids))
            # timestamps sometimes run backwards: tau(S) must not follow
            timestamp = rng.random() * 10.0
            bulk.install_records(np.array(ids, dtype=np.int64),
                                 np.array(values, dtype=np.int64),
                                 timestamp=timestamp, first_lsn=lsn + 1)
            for record_id, value in zip(ids, values):
                lsn += 1
                loop.install_record(record_id, value, timestamp=timestamp,
                                    lsn=lsn)
            self._assert_same(self._state(bulk), self._state(loop),
                              f"seed {seed}, step {step}")
        assert repeats > 100

    def test_segment_lsn_is_not_lowered_by_an_older_batch(self, db):
        db.install_record(0, 1, timestamp=5.0, lsn=900)
        db.install_records(np.array([0, 1]), np.array([7, 8]),
                           timestamp=1.0, first_lsn=10)
        assert db.read_record(0) == 7
        assert db.table.lsn[0] == 900
        assert db.table.timestamp[0] == 5.0

    @pytest.mark.parametrize("bad", [-1, 4096, 10**9])
    def test_out_of_range_id_raises_before_anything_is_written(
            self, db, bad):
        db.install_records(np.array([5, 300]), np.array([50, 60]),
                           timestamp=1.0, first_lsn=1)
        before = self._state(db)
        with pytest.raises(AddressError):
            db.install_records(np.array([5, 700, bad, 9]),
                               np.array([1, 2, 3, 4]),
                               timestamp=2.0, first_lsn=3)
        self._assert_same(self._state(db), before)


class TestShadowBuffer:
    def test_stage_and_read_own_writes(self):
        shadow = ShadowBuffer()
        shadow.stage(3, 30)
        assert shadow.staged_value(3) == 30
        assert shadow.staged_value(4) is None

    def test_later_write_wins(self):
        shadow = ShadowBuffer()
        shadow.stage(3, 30)
        shadow.stage(3, 31)
        assert shadow.staged_value(3) == 31
        assert len(shadow) == 1

    def test_iteration_in_insertion_order(self):
        shadow = ShadowBuffer()
        shadow.stage(5, 50)
        shadow.stage(2, 20)
        assert list(shadow) == [(5, 50), (2, 20)]
        assert shadow.record_ids == (5, 2)

    def test_install_seals_buffer(self):
        shadow = ShadowBuffer()
        shadow.stage(1, 10)
        shadow.mark_installed()
        assert shadow.installed
        with pytest.raises(InvalidStateError):
            shadow.stage(2, 20)
        with pytest.raises(InvalidStateError):
            shadow.mark_installed()
