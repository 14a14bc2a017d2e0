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
            db.segment(db.n_segments)

    def test_segment_record_range(self, db):
        seg = db.segment(1)
        assert seg.record_range == range(db.records_per_segment,
                                         2 * db.records_per_segment)


class TestInstall:
    def test_read_after_install(self, db):
        db.install_record(7, 1234, timestamp=5, lsn=10)
        assert db.read_record(7) == 1234

    def test_install_sets_dirty(self, db):
        seg = db.segment_of(7)
        assert not seg.dirty
        db.install_record(7, 1, timestamp=1, lsn=1)
        assert seg.dirty

    def test_install_advances_timestamp_monotonically(self, db):
        db.install_record(7, 1, timestamp=5, lsn=1)
        db.install_record(7, 2, timestamp=3, lsn=2)  # older stamp
        assert db.segment_of(7).timestamp == 5

    def test_install_advances_lsn_monotonically(self, db):
        db.install_record(7, 1, timestamp=1, lsn=10)
        db.install_record(8, 2, timestamp=2, lsn=4)
        assert db.segment_of(7).lsn == 10

    def test_initial_values_zero(self, db):
        assert db.read_record(0) == 0
        assert not db.values_snapshot().any()


class TestBulkOperations:
    def test_dirty_segments_iteration(self, db):
        rps = db.records_per_segment
        db.install_record(0, 1, timestamp=1, lsn=1)
        db.install_record(3 * rps, 1, timestamp=1, lsn=2)
        dirty = [s.index for s in db.dirty_segments()]
        assert dirty == [0, 3]

    def test_wipe_clears_everything(self, db):
        db.install_record(0, 99, timestamp=1, lsn=1)
        db.segment(0).painted_black = True
        db.segment(0).save_old_copy()
        db.wipe()
        assert db.read_record(0) == 0
        seg = db.segment(0)
        assert not seg.dirty and not seg.painted_black
        assert seg.old_copy is None and seg.lsn == 0

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
        seg = db.segment(0)
        copy = seg.save_old_copy()
        assert copy[0] == 11
        assert seg.old_copy_timestamp == 3
        assert seg.old_copy_lsn == 9
        db.install_record(0, 22, timestamp=4, lsn=10)
        assert seg.old_copy[0] == 11  # snapshot unaffected by later update

    def test_double_save_rejected(self, db):
        seg = db.segment(0)
        seg.save_old_copy()
        with pytest.raises(InvalidStateError):
            seg.save_old_copy()

    def test_drop_resets(self, db):
        seg = db.segment(0)
        seg.save_old_copy()
        seg.drop_old_copy()
        assert seg.old_copy is None
        assert seg.old_copy_lsn == 0

    def test_load_data_shape_checked(self, db):
        with pytest.raises(InvalidStateError):
            db.segment(0).load_data(np.zeros(1, dtype=np.int64))

    def test_data_view_is_live(self, db):
        seg = db.segment(0)
        view = seg.data()
        db.install_record(0, 5, timestamp=1, lsn=1)
        assert view[0] == 5

    def test_copy_data_is_snapshot(self, db):
        seg = db.segment(0)
        copy = seg.copy_data()
        db.install_record(0, 5, timestamp=1, lsn=1)
        assert copy[0] == 0


class TestSegmentTableEquivalence:
    """The struct-of-arrays :class:`SegmentTable` and the per-segment
    :class:`Segment` views must stay interchangeable: every metadata
    write through either surface is visible, identically, through the
    other.  Exercised over randomized update sequences (a property-style
    sweep) because the divergence bugs this guards against -- a view
    caching a value, an array write skipping a view invariant -- only
    show up under interleaved mixed-surface traffic.
    """

    SEEDS = [3, 17, 91]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_mixed_surface_updates_agree(self, db, seed):
        import random
        rng = random.Random(seed)
        n = db.n_segments
        # shadow model: plain per-segment dicts, updated alongside
        model = [{"dirty": False, "black": False, "ts": 0.0, "lsn": 0}
                 for _ in range(n)]
        for step in range(400):
            index = rng.randrange(n)
            seg = db.segment(index)
            table = db.table
            op = rng.randrange(6)
            if op == 0:  # view setter, dirty
                value = rng.random() < 0.5
                seg.dirty = value
                model[index]["dirty"] = value
            elif op == 1:  # array write, dirty
                value = rng.random() < 0.5
                table.dirty[index] = value
                model[index]["dirty"] = value
            elif op == 2:  # view setter, paint
                value = rng.random() < 0.5
                seg.painted_black = value
                model[index]["black"] = value
            elif op == 3:  # monotone stamps through the view
                ts = model[index]["ts"] + rng.random()
                lsn = model[index]["lsn"] + rng.randrange(1, 5)
                seg.timestamp = ts
                seg.lsn = lsn
                model[index]["ts"] = ts
                model[index]["lsn"] = lsn
            elif op == 4:  # install through the database hot path
                record_id = seg.first_record + rng.randrange(seg.n_records)
                ts = model[index]["ts"] + 1.0
                lsn = model[index]["lsn"] + 1
                db.install_record(record_id, rng.randrange(1 << 20),
                                  timestamp=ts, lsn=lsn)
                model[index]["dirty"] = True
                model[index]["ts"] = ts
                model[index]["lsn"] = lsn
            else:  # bulk clear through the table
                table.clear_paint()
                for entry in model:
                    entry["black"] = False
            # Every surface agrees after every step.
            assert seg.dirty is model[index]["dirty"]
            assert bool(table.dirty[index]) is model[index]["dirty"]
            assert seg.painted_black is model[index]["black"]
            assert seg.timestamp == model[index]["ts"]
            assert seg.lsn == model[index]["lsn"]
        # Final full-table sweep: views and vectorised scans agree with
        # the model everywhere, not just at touched indices.
        expected_dirty = [i for i, entry in enumerate(model)
                          if entry["dirty"]]
        assert db.table.dirty_indices() == expected_dirty
        for index in range(n):
            seg = db.segment(index)
            assert seg.dirty is model[index]["dirty"]
            assert seg.painted_black is model[index]["black"]
            assert seg.timestamp == model[index]["ts"]
            assert seg.lsn == model[index]["lsn"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_old_copy_lifecycle_agrees(self, db, seed):
        import random
        rng = random.Random(seed)
        n = db.n_segments
        saved: set[int] = set()
        for step in range(200):
            index = rng.randrange(n)
            seg = db.segment(index)
            if index not in saved and rng.random() < 0.5:
                db.install_record(seg.first_record, step + 1,
                                  timestamp=float(step), lsn=step + 1)
                seg.save_old_copy()
                saved.add(index)
            elif index in saved and rng.random() < 0.5:
                seg.drop_old_copy()
                saved.discard(index)
            # sparse dict and scalar mirrors stay in lockstep
            assert set(db.table.old_copies) == saved
            if index in saved:
                assert seg.old_copy is not None
                assert seg.old_copy_timestamp == \
                    float(db.table.old_copy_timestamp[index])
                assert seg.old_copy_lsn == int(db.table.old_copy_lsn[index])
            else:
                assert seg.old_copy is None
                assert seg.old_copy_timestamp == 0.0
                assert seg.old_copy_lsn == 0

    def test_reset_wipes_views_and_arrays(self, db):
        seg = db.segment(2)
        seg.dirty = True
        seg.painted_black = True
        seg.timestamp = 4.5
        seg.lsn = 9
        seg.save_old_copy()
        db.table.reset()
        assert seg.dirty is False
        assert seg.painted_black is False
        assert seg.timestamp == 0.0
        assert seg.lsn == 0
        assert seg.old_copy is None
        assert db.table.dirty_indices() == []


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
        assert db.segment(0).lsn == 900
        assert db.segment(0).timestamp == 5.0

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
