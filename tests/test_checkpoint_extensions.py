"""Tests for the extension checkpointers: ACFLUSH/ACCOPY, NAIVELOCK,
and the COU quiesce-latency model."""

from __future__ import annotations

import pytest

from tests.helpers import CheckpointHarness, build_system, run_crash_recover
from repro.checkpoint.registry import (
    ALGORITHM_NAMES,
    ALL_ALGORITHM_NAMES,
    EXTENSION_NAMES,
    resolve_algorithm,
)
from repro.cpu.accounting import CostCategory
from repro.model.evaluate import evaluate
from repro.txn.transaction import TransactionState


class TestRegistryExtensions:
    def test_paper_names_unchanged(self):
        assert set(ALGORITHM_NAMES) == {
            "FUZZYCOPY", "FASTFUZZY", "2CFLUSH", "2CCOPY",
            "COUFLUSH", "COUCOPY",
        }

    def test_extension_names(self):
        assert set(EXTENSION_NAMES) == {"ACFLUSH", "ACCOPY", "NAIVELOCK",
                                        "ZIGZAG", "PINGPONG"}
        assert set(ALL_ALGORITHM_NAMES) == (set(ALGORITHM_NAMES)
                                            | set(EXTENSION_NAMES))

    def test_consistency_flags(self):
        for name in ("ACFLUSH", "ACCOPY"):
            cls = resolve_algorithm(name)
            assert cls.action_consistent
            assert not cls.transaction_consistent
        assert resolve_algorithm("NAIVELOCK").transaction_consistent


@pytest.mark.parametrize("algorithm", ["ACFLUSH", "ACCOPY"])
class TestActionConsistent:
    def test_never_aborts(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm, io_depth=1)
        low = 0
        high = (tiny_params.n_segments - 1) * tiny_params.records_per_segment
        harness.submit([low])
        harness.submit([high])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        txn = harness.submit([low, high])  # would die under two-color
        assert txn.state in (TransactionState.COMMITTED,
                             TransactionState.WAITING)
        harness.drive_checkpoint()
        harness.engine.run()
        assert txn.state is TransactionState.COMMITTED
        assert harness.manager.stats.total_aborts == 0

    def test_cheaper_than_two_color(self, paper_params, algorithm):
        two_color = "2C" + algorithm[2:]
        ac = evaluate(algorithm, paper_params)
        tc = evaluate(two_color, paper_params)
        assert ac.overhead_per_txn < 0.2 * tc.overhead_per_txn

    def test_costs_a_lock_pair_over_fuzzy(self, paper_params, algorithm):
        """ACCOPY = FUZZYCOPY + locks; ACFLUSH trades the copy for a lock."""
        ac = evaluate(algorithm, paper_params)
        fuzzy = evaluate("FUZZYCOPY", paper_params)
        if algorithm == "ACCOPY":
            extra = (ac.overhead.async_total_per_checkpoint
                     - fuzzy.overhead.async_total_per_checkpoint)
            per_flush = extra / ac.durations.segments_flushed
            assert per_flush == pytest.approx(2 * paper_params.c_lock,
                                              rel=1e-6)
        else:
            assert ac.overhead_per_txn < fuzzy.overhead_per_txn

    def test_recovery_correct(self, small_params, algorithm):
        system = build_system(small_params, algorithm, seed=21)
        metrics, _, mismatches = run_crash_recover(system, 3.0)
        assert metrics.transactions_committed > 0
        assert mismatches == []

    def test_no_paint_bits_touched(self, tiny_params, algorithm):
        harness = CheckpointHarness(tiny_params, algorithm)
        harness.submit([0])
        harness.log.flush()
        harness.run_checkpoint()
        assert not harness.database.table.painted_black.any()


class TestActionConsistentVariantDifferences:
    def test_acflush_never_copies(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "ACFLUSH")
        harness.submit([0])
        harness.log.flush()
        harness.run_checkpoint()
        assert harness.ledger.by_category().get(CostCategory.COPY, 0) == 0

    def test_acflush_holds_lock_across_io(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "ACFLUSH", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        assert harness.locks.is_locked(0)
        txn = harness.submit([0])
        assert txn.state is TransactionState.WAITING
        harness.drive_checkpoint()
        harness.engine.run()
        assert txn.state is TransactionState.COMMITTED

    def test_accopy_releases_immediately(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "ACCOPY", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        assert not harness.locks.is_locked(0)
        txn = harness.submit([0])
        assert txn.state is TransactionState.COMMITTED
        harness.drive_checkpoint()


class TestNaiveLock:
    def test_holds_every_lock_until_the_end(self, tiny_params):
        harness = CheckpointHarness(tiny_params, "NAIVELOCK", io_depth=1)
        harness.submit([0])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        # Every segment is locked, even clean ones.
        assert all(harness.locks.is_locked(i)
                   for i in range(tiny_params.n_segments))
        txn = harness.submit([5 * tiny_params.records_per_segment])
        assert txn.state is TransactionState.WAITING
        harness.drive_checkpoint()
        harness.engine.run()
        assert txn.state is TransactionState.COMMITTED
        assert not any(harness.locks.is_locked(i)
                       for i in range(tiny_params.n_segments))

    def test_never_aborts_but_everyone_waits(self, small_params):
        naive = build_system(small_params, "NAIVELOCK", seed=31)
        naive_metrics = naive.run(4.0)
        polite = build_system(small_params, "COUCOPY", seed=31)
        polite_metrics = polite.run(4.0)
        assert naive_metrics.aborts == {}
        # "Unacceptably frequent and long lock delays":
        assert naive_metrics.lock_waits > 10 * max(1, polite_metrics.lock_waits)
        assert (naive_metrics.mean_response_time
                > 10 * polite_metrics.mean_response_time)

    def test_backup_transaction_consistent(self, tiny_params):
        """With all locks held, the image is a frozen TC snapshot."""
        from repro.checkpoint.base import CheckpointScope
        harness = CheckpointHarness(tiny_params, "NAIVELOCK",
                                    scope=CheckpointScope.FULL, io_depth=1)
        before = harness.submit([0, 100])
        harness.log.flush()
        snapshot = harness.database.values_snapshot()
        harness.checkpointer.start_checkpoint()
        harness.submit([0])  # blocked for the whole checkpoint
        stats = harness.drive_checkpoint()
        image = harness.backup.image(stats.image)
        assert (image.values_snapshot() == snapshot).all()
        assert before.state is TransactionState.COMMITTED
        harness.engine.run()  # blocked txn commits after release

    def test_recovery_correct(self, small_params):
        system = build_system(small_params, "NAIVELOCK", seed=41)
        _, _, mismatches = run_crash_recover(system, 3.0)
        assert mismatches == []

    def test_not_in_analytic_model(self, paper_params):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            evaluate("NAIVELOCK", paper_params)


class TestCOUQuiesceLatency:
    def _system(self, params, latency: bool):
        from repro.checkpoint.scheduler import CheckpointPolicy
        from repro.sim.system import SimulatedSystem, SimulationConfig
        return SimulatedSystem(SimulationConfig(
            params=params, algorithm="COUCOPY", seed=17,
            policy=CheckpointPolicy(), preload_backup=True,
            cou_quiesce_latency=latency,
            log_flush_interval=0.05,
        ))

    def test_latency_produces_quiesce_delays(self, small_params):
        with_latency = self._system(small_params, True)
        metrics = with_latency.run(4.0)
        assert with_latency.txn_manager.stats.quiesce_delays > 0
        assert metrics.transactions_committed > 0

    def test_zero_latency_default_has_no_delays(self, small_params):
        without = self._system(small_params, False)
        without.run(4.0)
        assert without.txn_manager.stats.quiesce_delays == 0

    def test_recovery_correct_with_latency(self, small_params):
        system = self._system(small_params, True)
        system.run(3.0)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []

    def test_crash_during_quiesce_force_recovers(self, small_params):
        """Power fails exactly while transactions are quiesced."""
        system = self._system(small_params, True)
        system.run(2.0)
        # Drive until a deferred begin is pending.
        for _ in range(500000):
            run = system.checkpointer.current
            if run is not None and run.deferred:
                break
            if not system.engine.step():
                break
        run = system.checkpointer.current
        assert run is not None and run.deferred
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
        # Processing resumes cleanly (the quiesce flag died in the crash).
        metrics = system.run(1.0)
        assert metrics.transactions_committed > 0
