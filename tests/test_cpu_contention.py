"""Tests for the finite-CPU contention mode.

The paper's thesis -- checkpointing competes with transactions for the
processor -- made observable: with a finite MIPS budget, the expensive
algorithms don't just count more instructions, they queue transactions.
"""

from __future__ import annotations

import pytest

from tests.helpers import build_system, run_crash_recover
from repro.errors import ConfigurationError
from repro.model.utilization import throughput_capacity
from repro.sim.cpu_server import CpuServer
from repro.sim.engine import EventEngine


class TestCpuServerUnit:
    def test_service_time(self):
        server = CpuServer(EventEngine(), mips=25.0)
        assert server.service_time(25_000) == pytest.approx(1e-3)

    def test_jobs_serialize_fifo(self):
        engine = EventEngine()
        server = CpuServer(engine, mips=1.0)  # 1e6 instructions/second
        order = []
        server.submit(1e6, lambda: order.append(("a", engine.now)))
        server.submit(1e6, lambda: order.append(("b", engine.now)))
        engine.run()
        assert order == [("a", 1.0), ("b", 2.0)]

    def test_idle_gap_not_billed(self):
        engine = EventEngine()
        server = CpuServer(engine, mips=1.0)
        server.submit(1e6, lambda: None)
        engine.run()
        engine.schedule_at(10.0, lambda: server.submit(1e6, lambda: None))
        engine.run()
        assert engine.now == pytest.approx(11.0)
        assert server.busy_time == pytest.approx(2.0)
        assert server.utilisation(11.0) == pytest.approx(2 / 11)

    def test_backlog(self):
        engine = EventEngine()
        server = CpuServer(engine, mips=1.0)
        server.submit(3e6, lambda: None)
        assert server.backlog_seconds == pytest.approx(3.0)

    def test_crash_clears_queue_horizon(self):
        engine = EventEngine()
        server = CpuServer(engine, mips=1.0)
        server.submit(5e6, lambda: None)
        server.crash()
        assert server.backlog_seconds == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CpuServer(EventEngine(), mips=0.0)
        server = CpuServer(EventEngine(), mips=1.0)
        with pytest.raises(ConfigurationError):
            server.service_time(-1)

    def test_reset_stats_keeps_queue(self):
        engine = EventEngine()
        server = CpuServer(engine, mips=1.0)
        server.submit(2e6, lambda: None)
        server.reset_stats()
        assert server.busy_time == 0.0
        assert server.backlog_seconds > 0.0


class TestContendedSystem:
    def _system(self, params, algorithm, mips, seed=9):
        return build_system(params, algorithm, seed=seed, cpu_mips=mips)

    def test_infinite_cpu_reports_no_utilisation(self, tiny_params):
        system = build_system(tiny_params, "COUCOPY", seed=9)
        metrics = system.run(1.0)
        assert metrics.cpu_utilisation is None
        assert system.cpu is None

    def test_response_time_grows_with_utilisation(self):
        from repro.params import SystemParameters
        params = SystemParameters.scaled_down(256, lam=30.0, n_bdisks=8)
        relaxed = self._system(params, "COUCOPY", mips=8.0)
        relaxed_metrics = relaxed.run(8.0)
        tight = self._system(params, "COUCOPY", mips=1.0)
        tight_metrics = tight.run(8.0)
        assert (tight_metrics.cpu_utilisation
                > 2 * relaxed_metrics.cpu_utilisation)
        assert (tight_metrics.mean_response_time
                > 2 * relaxed_metrics.mean_response_time)

    def test_two_color_saturates_what_coucopy_cruises(self):
        """The capacity model's prediction, observed: reruns burn the CPU."""
        from repro.params import SystemParameters
        params = SystemParameters.scaled_down(256, lam=30.0, n_bdisks=8)
        polite = self._system(params, "COUCOPY", mips=2.0)
        polite_metrics = polite.run(10.0)
        greedy = self._system(params, "2CCOPY", mips=2.0)
        greedy_metrics = greedy.run(10.0)
        assert polite_metrics.cpu_utilisation < 0.6
        assert greedy_metrics.cpu_utilisation > 0.85
        assert (greedy_metrics.cpu_utilisation
                > 2 * polite_metrics.cpu_utilisation)
        assert (greedy_metrics.mean_response_time
                > 10 * polite_metrics.mean_response_time)

    def test_beyond_capacity_backlog_grows(self):
        from repro.params import SystemParameters
        params = SystemParameters.scaled_down(256, lam=30.0, n_bdisks=8)
        capacity = throughput_capacity("COUCOPY", params, mips=0.5)
        assert capacity < params.lam  # the offered load exceeds capacity
        system = self._system(params, "COUCOPY", mips=0.5)
        system.run(5.0)
        early_backlog = system.cpu.backlog_seconds
        system.run(5.0)
        assert system.cpu.backlog_seconds > early_backlog

    def test_recovery_correct_under_contention(self):
        from repro.params import SystemParameters
        params = SystemParameters.scaled_down(256, lam=30.0, n_bdisks=8)
        for algorithm in ("COUCOPY", "2CCOPY", "FUZZYCOPY"):
            system = self._system(params, algorithm, mips=2.0)
            _, _, mismatches = run_crash_recover(system, 6.0)
            assert mismatches == [], algorithm

    def test_quiesce_straddling_cpu_service(self):
        """COU quiesce while attempts are mid-service: they queue and run
        after resume, with post-snapshot timestamps -- recovery exact."""
        from repro.params import SystemParameters
        params = SystemParameters.scaled_down(256, lam=50.0, n_bdisks=8)
        system = build_system(params, "COUCOPY", seed=10, cpu_mips=2.0,
                              cou_quiesce_latency=True,
                              log_flush_interval=0.05)
        system.run(6.0)
        assert system.txn_manager.stats.quiesce_delays > 0
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
