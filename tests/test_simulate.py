"""Tests for the oracle and the assembled simulated system."""

from __future__ import annotations

import pytest

from tests.helpers import build_system, columns, run_crash_recover
from repro.errors import ConfigurationError, InvalidStateError
from repro.params import SystemParameters
from repro.sim.oracle import CommittedStateOracle
from repro.wal.log import LogManager


class TestOracle:
    def _params(self):
        return SystemParameters(s_db=16 * 8192, lam=100.0)

    def test_tracks_committed_state(self):
        params = self._params()
        oracle = CommittedStateOracle(params)
        log = LogManager(params)
        log.append_update_run(1, *columns([(5, 55)]))
        log.append_commit(1)
        log.flush()
        oracle.feed(log.drain_newly_stable())
        assert oracle.expected[5] == 55
        assert oracle.durable_commits == 1

    def test_ignores_unstable_tail(self):
        params = self._params()
        oracle = CommittedStateOracle(params)
        log = LogManager(params)
        log.append_update_run(1, *columns([(5, 55)]))
        log.append_commit(1)
        oracle.feed(log.drain_newly_stable())  # nothing stable yet
        assert oracle.expected[5] == 0

    def test_mismatch_reporting(self):
        import numpy as np
        params = self._params()
        oracle = CommittedStateOracle(params)
        actual = np.zeros(params.n_records, dtype=np.int64)
        assert oracle.mismatches(actual) == []
        actual[3] = 1
        actual[9] = 2
        assert oracle.mismatches(actual) == [3, 9]
        assert oracle.mismatches(actual, limit=1) == [3]

    def test_expected_values_is_a_copy(self):
        oracle = CommittedStateOracle(self._params())
        copy = oracle.expected_values()
        copy[0] = 99
        assert oracle.expected[0] == 0


class TestSimulatedSystemLifecycle:
    def test_run_produces_transactions_and_checkpoints(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY")
        metrics = system.run(3.0)
        assert metrics.transactions_committed > 0
        assert metrics.checkpoints_completed > 0
        assert metrics.elapsed == pytest.approx(3.0)

    def test_run_rejects_nonpositive_duration(self, tiny_params):
        system = build_system(tiny_params)
        with pytest.raises(ConfigurationError):
            system.run(0.0)

    def test_crash_requires_no_double(self, tiny_params):
        system = build_system(tiny_params)
        system.run(0.5)
        system.crash()
        with pytest.raises(InvalidStateError):
            system.crash()

    def test_recover_requires_crash(self, tiny_params):
        system = build_system(tiny_params)
        system.run(0.5)
        with pytest.raises(InvalidStateError):
            system.recover()

    def test_run_after_crash_requires_recover(self, tiny_params):
        system = build_system(tiny_params)
        system.run(0.5)
        system.crash()
        with pytest.raises(InvalidStateError):
            system.run(1.0)

    def test_run_continues_after_recovery(self, tiny_params):
        system = build_system(tiny_params)
        system.run(1.0)
        system.crash()
        system.recover()
        committed_before = system.txn_manager.stats.committed
        system.run(1.0)
        assert system.txn_manager.stats.committed > committed_before

    def test_same_seed_same_trajectory(self, tiny_params):
        a = build_system(tiny_params, "COUCOPY", seed=11)
        b = build_system(tiny_params, "COUCOPY", seed=11)
        ma = a.run(2.0)
        mb = b.run(2.0)
        assert ma.transactions_committed == mb.transactions_committed
        assert a.database.state_digest() == b.database.state_digest()

    @pytest.mark.parametrize("algorithm", ["COUCOPY", "FUZZYCOPY", "2CCOPY"])
    def test_fixed_seed_invariance_all_algorithms(self, tiny_params,
                                                  algorithm):
        """Identically-seeded runs agree on every observable outcome.

        This is the bit-identity contract the kernel perf work must
        preserve, checked per algorithm family: commit/abort counts,
        checkpoint count, the overhead ledger, the stable log frontier,
        and the full database content digest.
        """
        a = build_system(tiny_params, algorithm, seed=23)
        b = build_system(tiny_params, algorithm, seed=23)
        ma = a.run(2.0)
        mb = b.run(2.0)
        assert ma.transactions_committed == mb.transactions_committed
        assert ma.aborts == mb.aborts
        assert ma.reruns == mb.reruns
        assert ma.checkpoints_completed == mb.checkpoints_completed
        assert ma.overhead_per_transaction == mb.overhead_per_transaction
        assert ma.words_written_to_backup == mb.words_written_to_backup
        assert a.log.stable_lsn == b.log.stable_lsn
        assert a.database.state_digest() == b.database.state_digest()

    def test_different_seeds_diverge(self, tiny_params):
        a = build_system(tiny_params, "COUCOPY", seed=1)
        b = build_system(tiny_params, "COUCOPY", seed=2)
        a.run(2.0)
        b.run(2.0)
        assert a.database.state_digest() != b.database.state_digest()

    def test_preload_makes_first_checkpoint_partial(self, tiny_params):
        preloaded = build_system(tiny_params, "FUZZYCOPY", preload=True)
        preloaded.run(0.5)
        cold = build_system(tiny_params, "FUZZYCOPY", preload=False)
        cold.run(0.5)
        first_preloaded = preloaded.checkpointer.history[0]
        first_cold = cold.checkpointer.history[0]
        assert first_cold.segments_flushed == tiny_params.n_segments
        assert (first_preloaded.segments_flushed
                < first_cold.segments_flushed)

    def test_metrics_overhead_positive(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY")
        metrics = system.run(2.0)
        assert metrics.overhead_per_transaction > 0
        assert metrics.words_written_to_backup > 0
        assert 0 <= metrics.disk_utilisation <= 1


class TestSimulatedRecoveryCorrectness:
    def test_fuzzycopy_end_to_end(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=5)
        metrics, result, mismatches = run_crash_recover(system, 3.0)
        assert metrics.transactions_committed > 0
        assert result.used_checkpoint_id is not None
        assert mismatches == []

    def test_crash_before_any_checkpoint(self, tiny_params):
        from repro.checkpoint.scheduler import CheckpointPolicy
        from repro.sim.system import SimulatedSystem, SimulationConfig
        config = SimulationConfig(
            params=tiny_params, algorithm="FUZZYCOPY", seed=5,
            policy=CheckpointPolicy(interval=100.0, initial_delay=50.0))
        system = SimulatedSystem(config)
        metrics, result, mismatches = run_crash_recover(system, 0.5)
        assert result.used_checkpoint_id is None
        assert mismatches == []

    def test_uncommitted_tail_transactions_not_recovered(self, tiny_params):
        """Transactions whose commit records were lost with the tail must
        vanish; the oracle knows only durable commits."""
        system = build_system(tiny_params, "FUZZYCOPY", seed=5,
                              log_flush_interval=0.5)  # sluggish group commit
        system.run(2.25)  # some commits are still in the tail now
        committed = system.txn_manager.stats.committed
        durable = system.oracle.durable_commits
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
        assert durable < committed  # the crash really did lose some

    def test_recovery_uses_surviving_image_when_crash_mid_checkpoint(
            self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=5)
        system.run(2.0)
        # Force a crash while a checkpoint is active.
        system.engine.run(max_events=1)
        for _ in range(200000):
            if system.checkpointer.active:
                break
            system.engine.run(max_events=1)
        assert system.checkpointer.active
        interrupted = system.checkpointer.current.checkpoint_id
        system.crash()
        result = system.recover()
        assert result.used_checkpoint_id is not None
        assert result.used_checkpoint_id < interrupted
        assert system.verify_recovery() == []
