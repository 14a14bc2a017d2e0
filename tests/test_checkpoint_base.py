"""Tests for checkpointer machinery shared by all algorithms."""

from __future__ import annotations

import pytest

from tests.helpers import CheckpointHarness
from repro.checkpoint.base import CheckpointScope
from repro.checkpoint.registry import (
    ALGORITHM_NAMES,
    create_checkpointer,
    resolve_algorithm,
)
from repro.checkpoint.scheduler import CheckpointPolicy, CheckpointScheduler
from repro.errors import CheckpointError, ConfigurationError
from repro.wal.records import BeginCheckpointRecord, EndCheckpointRecord

NON_STABLE_ALGORITHMS = [n for n in ALGORITHM_NAMES if n != "FASTFUZZY"]


class TestRegistry:
    def test_all_six_algorithms_registered(self):
        assert set(ALGORITHM_NAMES) == {
            "FUZZYCOPY", "FASTFUZZY", "2CFLUSH", "2CCOPY",
            "COUFLUSH", "COUCOPY",
        }

    def test_resolve_case_insensitive(self):
        assert resolve_algorithm("fuzzycopy").name == "FUZZYCOPY"
        assert resolve_algorithm("CouCopy").name == "COUCOPY"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_algorithm("WALRUS")

    def test_fastfuzzy_requires_stable_tail(self, tiny_params):
        with pytest.raises(ConfigurationError):
            CheckpointHarness(tiny_params, "FASTFUZZY")

    def test_consistency_flags(self):
        assert not resolve_algorithm("FUZZYCOPY").transaction_consistent
        assert not resolve_algorithm("FASTFUZZY").transaction_consistent
        for name in ("2CFLUSH", "2CCOPY", "COUFLUSH", "COUCOPY"):
            assert resolve_algorithm(name).transaction_consistent

    def test_lsn_usage_flags(self):
        assert resolve_algorithm("FUZZYCOPY").uses_lsns
        assert resolve_algorithm("2CFLUSH").uses_lsns
        assert resolve_algorithm("2CCOPY").uses_lsns
        assert not resolve_algorithm("FASTFUZZY").uses_lsns
        assert not resolve_algorithm("COUFLUSH").uses_lsns
        assert not resolve_algorithm("COUCOPY").uses_lsns


@pytest.mark.parametrize("algorithm", NON_STABLE_ALGORITHMS)
class TestCommonBehaviour:
    def test_partial_checkpoint_skips_clean_segments(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0, 1])  # dirties segment 0 only
        harness.log.flush()
        stats = harness.run_checkpoint()
        assert stats.segments_flushed == 1
        assert stats.segments_skipped == tiny_params.n_segments - 1

    def test_full_checkpoint_flushes_everything(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm,
                                    scope=CheckpointScope.FULL)
        stats = harness.run_checkpoint()
        assert stats.segments_flushed == tiny_params.n_segments
        assert stats.segments_skipped == 0

    def test_ping_pong_alternates_images(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        first = harness.run_checkpoint()
        second = harness.run_checkpoint()
        third = harness.run_checkpoint()
        assert first.image != second.image
        assert first.image == third.image

    def test_markers_written_and_flushed(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        stats = harness.run_checkpoint()
        records = harness.log.stable_records()
        begins = [r for r in records if isinstance(r, BeginCheckpointRecord)
                  and r.checkpoint_id == stats.checkpoint_id]
        ends = [r for r in records if isinstance(r, EndCheckpointRecord)
                and r.checkpoint_id == stats.checkpoint_id]
        assert len(begins) == 1 and len(ends) == 1
        assert begins[0].image == stats.image

    def test_image_write_carries_updated_value(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        txn = harness.submit([3])
        harness.log.flush()
        stats = harness.run_checkpoint()
        assert harness.image_value(stats.image, 3) == txn.value_for(3)

    def test_segment_updated_between_checkpoints_reaches_both_images(
            self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        txn = harness.submit([5])
        harness.log.flush()
        first = harness.run_checkpoint()
        second = harness.run_checkpoint()
        # Ping-pong: the second checkpoint writes the *other* image, and
        # the segment must be flushed there too even though the first
        # checkpoint already saw it (the per-image staleness rule).
        assert harness.image_value(first.image, 5) == txn.value_for(5)
        assert harness.image_value(second.image, 5) == txn.value_for(5)

    def test_dirty_bit_cleared_only_after_both_images_fresh(
            self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([7])
        harness.log.flush()
        dirty = harness.database.table.dirty
        index = harness.database.segment_index_of(7)
        assert dirty[index]
        harness.run_checkpoint()
        assert dirty[index]  # one image still stale
        harness.run_checkpoint()
        assert not dirty[index]

    def test_log_truncated_after_completion(self, tiny_params, algorithm):
        """Truncation keeps the log back to the *older* image's begin
        marker: if the newer image is lost to a media failure, recovery
        falls back to the sibling and must replay from there."""
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])
        harness.log.flush()
        first = harness.run_checkpoint()
        harness.run_checkpoint()   # now both images hold real checkpoints
        records = harness.log.stable_records()
        first_begin_lsn = next(r.lsn for r in records
                               if isinstance(r, BeginCheckpointRecord)
                               and r.checkpoint_id == first.checkpoint_id)
        assert records[0].lsn == first_begin_lsn

    def test_cannot_start_while_active(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        with pytest.raises(CheckpointError):
            harness.checkpointer.start_checkpoint()
        harness.drive_checkpoint()

    def test_crash_abandons_run(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        harness.checkpointer.crash()
        assert not harness.checkpointer.active
        assert harness.checkpointer.history == []

    def test_io_depth_validation(self, tiny_params, algorithm):
        with pytest.raises(ConfigurationError):
            CheckpointHarness(tiny_params, algorithm, io_depth=0)


class TestScheduler:
    def _harness(self, params):
        return CheckpointHarness(params, "FUZZYCOPY")

    def test_min_duration_runs_back_to_back(self, tiny_params):
        harness = self._harness(tiny_params)
        scheduler = CheckpointScheduler(
            harness.checkpointer, harness.engine, CheckpointPolicy())
        scheduler.start()
        harness.engine.run(until=1.0)
        scheduler.stop()
        assert len(harness.checkpointer.history) >= 2

    def test_min_duration_has_floor_between_empty_checkpoints(self, tiny_params):
        harness = self._harness(tiny_params)
        scheduler = CheckpointScheduler(
            harness.checkpointer, harness.engine, CheckpointPolicy())
        scheduler.start()
        harness.engine.run(until=0.5)
        scheduler.stop()
        starts = [c.began_at for c in harness.checkpointer.history]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        floor = tiny_params.segment_io_time / tiny_params.n_bdisks
        assert all(gap >= floor * 0.99 for gap in gaps)

    def test_fixed_interval_spacing(self, tiny_params):
        harness = self._harness(tiny_params)
        scheduler = CheckpointScheduler(
            harness.checkpointer, harness.engine,
            CheckpointPolicy(interval=0.2))
        scheduler.start()
        harness.engine.run(until=1.05)
        scheduler.stop()
        starts = [c.began_at for c in harness.checkpointer.history]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap == pytest.approx(0.2, abs=1e-6) for gap in gaps)

    def test_initial_delay(self, tiny_params):
        harness = self._harness(tiny_params)
        scheduler = CheckpointScheduler(
            harness.checkpointer, harness.engine,
            CheckpointPolicy(interval=10.0, initial_delay=0.3))
        scheduler.start()
        harness.engine.run(until=1.0)
        scheduler.stop()
        assert harness.checkpointer.history[0].began_at == pytest.approx(0.3)

    def test_stop_cancels_pending(self, tiny_params):
        harness = self._harness(tiny_params)
        scheduler = CheckpointScheduler(
            harness.checkpointer, harness.engine,
            CheckpointPolicy(interval=0.5))
        scheduler.start()
        scheduler.stop()
        harness.engine.run(until=2.0)
        assert harness.checkpointer.history == []

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(interval=0.0)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(initial_delay=-1.0)


class TestCreateCheckpointer:
    def test_factory_builds_named_algorithm(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "2CCOPY")
        assert harness.checkpointer.name == "2CCOPY"
        assert type(harness.checkpointer) is type(
            create_checkpointer(
                "2ccopy", tiny_params, harness.database, harness.log,
                harness.locks, harness.ledger, harness.engine,
                harness.backup, harness.writer, harness.authority))
