"""Edge-case configurations: degenerate sizes, extreme policies, skew."""

from __future__ import annotations

from tests.helpers import CheckpointHarness, build_system, run_crash_recover
from repro.checkpoint.base import CheckpointScope
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.model.evaluate import evaluate
from repro.model.restarts import sweep_average_conflict
from repro.params import SystemParameters
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.workload.spec import AccessDistribution, WorkloadSpec


class TestDegenerateSizes:
    def test_single_segment_database(self):
        """One segment: every checkpoint is trivially 'full'."""
        params = SystemParameters(s_db=8192, lam=50.0, n_ru=2,
                                  t_seek=0.002, n_bdisks=2)
        system = build_system(params, "FUZZYCOPY", seed=1)
        _, _, mismatches = run_crash_recover(system, 1.0)
        assert mismatches == []

    def test_one_record_per_segment(self):
        """Segment == record: maximal per-segment metadata overheads."""
        params = SystemParameters(s_db=32 * 256, s_seg=32, s_rec=32,
                                  lam=50.0, n_ru=3, t_seek=0.0005,
                                  n_bdisks=2)
        assert params.records_per_segment == 1
        system = build_system(params, "COUCOPY", seed=2)
        _, _, mismatches = run_crash_recover(system, 1.0)
        assert mismatches == []

    def test_single_backup_disk(self, tiny_params):
        params = tiny_params.replace(n_bdisks=1)
        system = build_system(params, "2CCOPY", seed=3)
        _, _, mismatches = run_crash_recover(system, 2.0)
        assert mismatches == []

    def test_io_depth_larger_than_segment_count(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=4,
                              io_depth=10 * tiny_params.n_segments)
        _, _, mismatches = run_crash_recover(system, 1.0)
        assert mismatches == []

    def test_io_depth_one_serializes_everything(self, tiny_params):
        system = build_system(tiny_params, "COUFLUSH", seed=5, io_depth=1)
        metrics, _, mismatches = run_crash_recover(system, 2.0)
        assert mismatches == []
        assert metrics.checkpoints_completed > 0


class TestSingleRecordTransactions:
    def test_two_color_never_aborts_single_record_txns(self, small_params):
        """A one-record transaction cannot straddle the color boundary."""
        params = small_params.replace(n_ru=1)
        assert sweep_average_conflict(1) == 0.0
        system = build_system(params, "2CFLUSH", seed=6)
        metrics = system.run(3.0)
        assert metrics.aborts == {}
        result = evaluate("2CFLUSH", params)
        assert result.abort_probability == 0.0
        assert result.reruns_per_txn == 0.0

    def test_model_overhead_reflects_fewer_updates(self, paper_params):
        one = evaluate("FUZZYCOPY", paper_params.replace(n_ru=1))
        five = evaluate("FUZZYCOPY", paper_params)
        # Fewer updates -> fewer LSN maintenances and slower dirtying.
        assert one.overhead_per_txn < five.overhead_per_txn


class TestExtremePolicies:
    def test_very_long_interval_with_crash(self, tiny_params):
        """Crash long before the second checkpoint would start."""
        system = SimulatedSystem(SimulationConfig(
            params=tiny_params, algorithm="FUZZYCOPY", seed=7,
            policy=CheckpointPolicy(interval=1000.0), preload_backup=True))
        system.run(2.0)
        assert len(system.checkpointer.history) == 1
        system.crash()
        system.recover()
        assert system.verify_recovery() == []

    def test_sluggish_group_commit(self, tiny_params):
        """A 1-second group commit: most commits ride the crash's edge."""
        system = build_system(tiny_params, "FUZZYCOPY", seed=8,
                              log_flush_interval=1.0)
        system.run(2.5)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []

    def test_full_scope_with_fixed_interval(self, tiny_params):
        system = SimulatedSystem(SimulationConfig(
            params=tiny_params, algorithm="COUCOPY", seed=9,
            scope=CheckpointScope.FULL,
            policy=CheckpointPolicy(interval=0.5), preload_backup=True))
        system.run(2.0)
        for stats in system.checkpointer.history:
            assert stats.segments_flushed == tiny_params.n_segments
        system.crash()
        system.recover()
        assert system.verify_recovery() == []

    def test_repeated_crashes_checkpoint_ids_continue(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=10)
        ids = []
        for _ in range(3):
            system.run(0.6)
            if system.checkpointer.history:
                ids.append(system.checkpointer.history[-1].checkpoint_id)
            system.crash()
            system.recover()
        assert ids == sorted(ids)
        assert system.verify_recovery() == []


class TestSkewedEdges:
    def test_extreme_hotspot_recovers(self, small_params):
        spec = WorkloadSpec(distribution=AccessDistribution.HOTSPOT,
                            hot_fraction=0.01, hot_probability=0.99)
        system = build_system(small_params, "COUCOPY", seed=11,
                              workload=spec)
        metrics, _, mismatches = run_crash_recover(system, 3.0)
        assert mismatches == []
        assert metrics.transactions_committed > 0

    def test_hotspot_shrinks_partial_checkpoints(self, small_params):
        spec = WorkloadSpec(distribution=AccessDistribution.HOTSPOT,
                            hot_fraction=0.05, hot_probability=0.95)
        hot = build_system(small_params, "FUZZYCOPY", seed=12,
                           workload=spec)
        hot.run(4.0)
        uniform = build_system(small_params, "FUZZYCOPY", seed=12)
        uniform.run(4.0)

        def mean_flushed(system):
            history = system.checkpointer.history[1:]
            return sum(c.segments_flushed for c in history) / len(history)

        assert mean_flushed(hot) < 0.7 * mean_flushed(uniform)


class TestStableTailEdges:
    def test_two_color_with_stable_tail_recovers(self, small_params):
        params = small_params.replace(stable_log_tail=True)
        system = build_system(params, "2CCOPY", seed=13)
        _, _, mismatches = run_crash_recover(system, 2.0)
        assert mismatches == []

    def test_fastfuzzy_captures_mid_checkpoint_updates(self, tiny_params):
        """A fuzzy flush takes whatever is in memory at capture time."""
        params = tiny_params.replace(stable_log_tail=True)
        harness = CheckpointHarness(params, "FASTFUZZY", io_depth=1)
        # Stall the pump by making segment 0 dirty (its write is slow).
        harness.submit([0])
        harness.submit([5 * params.records_per_segment])
        harness.checkpointer.start_checkpoint()
        # Update segment 5 while its flush has not happened yet.
        late = harness.submit([5 * params.records_per_segment])
        stats = harness.drive_checkpoint()
        value = harness.image_value(stats.image,
                                    5 * params.records_per_segment)
        assert value == late.value_for(5 * params.records_per_segment)


class TestMediaEventOrdering:
    def test_fail_after_restore_voids_it(self, tiny_params):
        """RESTORE then FAIL: the restored checkpoint is dead again."""
        from repro.wal.log import LogManager
        log = LogManager(tiny_params)
        log.append_begin_checkpoint(1, 1, (), image=0)
        log.append_end_checkpoint(1, image=0)
        log.append_media_failure(0)
        log.append_media_restore(0, checkpoint_id=1)
        log.append_media_failure(0)  # dies again after the restore
        log.flush()
        assert log.find_last_completed_checkpoint() is None

    def test_restore_after_multiple_failures(self, tiny_params):
        from repro.wal.log import LogManager
        log = LogManager(tiny_params)
        log.append_begin_checkpoint(1, 1, (), image=0)
        log.append_end_checkpoint(1, image=0)
        log.append_media_failure(0)
        log.append_media_failure(0)
        log.append_media_restore(0, checkpoint_id=1)
        log.flush()
        found = log.find_last_completed_checkpoint()
        assert found is not None and found[0].checkpoint_id == 1
