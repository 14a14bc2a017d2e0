"""Capstone integration scenarios: many features composed at once.

Each scenario stacks several orthogonal features (skewed mixed-size
workloads, finite CPU, quiesce latency, logical logging, media failures,
tape restores, repeated crashes) and still demands the one invariant that
matters: after every recovery, the database equals the durable committed
state, bit for bit.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.checkpoint.base import CheckpointScope
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.params import SystemParameters
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.storage.archive import ArchiveManager
from repro.workload.spec import AccessDistribution, WorkloadSpec


def _wait_idle(system: SimulatedSystem) -> None:
    for _ in range(1_000_000):
        if not system.checkpointer.active:
            return
        system.engine.run(max_events=1)
    raise AssertionError("checkpointer never went idle")


class TestEverythingAtOnce:
    def test_skewed_mixed_contended_cou_survives_three_crashes(self):
        """Hotspot + mixed sizes + finite CPU + quiesce latency + COUCOPY,
        crash/recover three times, spans on throughout."""
        params = SystemParameters.scaled_down(256, lam=40.0, n_bdisks=8)
        system = SimulatedSystem(SimulationConfig(
            params=params,
            algorithm="COUCOPY",
            policy=CheckpointPolicy(),
            workload=WorkloadSpec(
                distribution=AccessDistribution.HOTSPOT,
                hot_fraction=0.1, hot_probability=0.8,
                update_count_mix=((2, 2.0), (9, 1.0))),
            seed=77,
            preload_backup=True,
            cpu_mips=3.0,
            cou_quiesce_latency=True,
            log_flush_interval=0.05,
            spans=True,
        ))
        for cycle in range(3):
            metrics = system.run(3.0)
            assert metrics.transactions_committed > 0, cycle
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], cycle
        counts = Counter(span["name"] for span in system.spans_snapshot())
        assert counts["sys.crash"] == 3 and counts["sys.recover"] == 3

    def test_logical_cou_with_media_failure_and_tape(self):
        """Logical logging (COU-only soundness) composed with a media
        failure, a tape restore, and a final crash."""
        params = SystemParameters.scaled_down(256, lam=60.0, n_bdisks=8)
        system = SimulatedSystem(SimulationConfig(
            params=params,
            algorithm="COUFLUSH",
            scope=CheckpointScope.FULL,
            policy=CheckpointPolicy(),
            seed=78,
            preload_backup=True,
            logical_updates=True,
            truncate_log=False,
        ))
        archive = ArchiveManager(params)
        system.run(2.0)
        _wait_idle(system)
        archive.dump(system.backup.latest_complete_image())
        system.run(2.0)
        _wait_idle(system)
        system.media_failure(0)
        system.media_failure(1)
        system.crash()
        system.restore_from_archive(archive)
        result = system.recover()
        assert result.used_checkpoint_id is not None
        assert system.verify_recovery() == []

    def test_two_color_under_contention_with_flush_on_commit(self):
        """The worst-behaved algorithm under the harshest settings still
        never loses a durable commit."""
        params = SystemParameters.scaled_down(256, lam=25.0, n_bdisks=8)
        system = SimulatedSystem(SimulationConfig(
            params=params,
            algorithm="2CFLUSH",
            policy=CheckpointPolicy(),
            seed=79,
            preload_backup=True,
            cpu_mips=2.0,
            log_flush_on_commit=True,
        ))
        metrics = system.run(8.0)
        assert metrics.aborts.get("two-color", 0) > 0
        committed = system.txn_manager.stats.committed
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
        # flush-on-commit: every commit was durable at the instant of crash
        assert system.oracle.durable_commits == committed

    @pytest.mark.parametrize("algorithm", ["ACCOPY", "NAIVELOCK"])
    def test_extension_algorithms_compose_with_everything(self, algorithm):
        params = SystemParameters.scaled_down(256, lam=40.0, n_bdisks=8)
        system = SimulatedSystem(SimulationConfig(
            params=params,
            algorithm=algorithm,
            policy=CheckpointPolicy(interval=0.5),
            workload=WorkloadSpec(update_count_mix=((1, 1.0), (6, 1.0))),
            seed=80,
            preload_backup=True,
            cpu_mips=5.0,
            spans=True,
        ))
        system.run(4.0)
        _wait_idle(system)
        victim = system.backup.latest_complete_image()
        system.media_failure(victim.index)
        system.run(2.0)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
