"""Property-based tests for the Zigzag and Ping-Pong snapshot plugins.

These mirror ``TestSegmentTableEquivalence`` in ``test_mmdb.py``: a
seeded :class:`random.Random` drives long mixed sequences of updates,
checkpoints, and crashes, and the invariant is checked after every
crash rather than on a single hand-picked trace.  The invariant for
both algorithms is *snapshot consistency*: whatever instant the crash
lands on -- mid-sweep, right after the begin marker, between
checkpoints -- the recovered image plus the REDO log must reproduce the
committed state exactly, record for record, against the simulator's
crash-consistency oracle.

The cost-model distinctions between the two plugins get targeted
checks: Zigzag pays an O(n_segments) asynchronous bit sweep at
checkpoint begin and nothing extra per install; Ping-Pong pays a
synchronous double write on every install and nothing at begin.
Neither ever quiesces, so transactions never abort on checkpoint
activity.
"""

from __future__ import annotations

import random

import pytest

from repro.checkpoint.consistent_snapshot import (
    PingPongCheckpointer,
    ZigzagCheckpointer,
)
from repro.checkpoint.registry import EXTENSION_NAMES, resolve_algorithm
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.cpu.accounting import CostCategory
from repro.faults.plan import CrashSpec, FaultPlan
from repro.sim.system import SimulatedSystem, SimulationConfig

PLUGINS = [ZigzagCheckpointer.name, PingPongCheckpointer.name]
SEEDS = [3, 17, 91]
PHASES = ["begin", "sweep", "end"]


def _system(params, algorithm, seed, *, interval=0.05, fault_plan=None,
            **overrides):
    config = SimulationConfig(
        params=params, algorithm=algorithm, seed=seed,
        policy=CheckpointPolicy(interval=interval), preload_backup=True,
        fault_plan=fault_plan, **overrides)
    return SimulatedSystem(config)


class TestPluginRegistration:
    def test_registered_as_extensions(self):
        assert "ZIGZAG" in EXTENSION_NAMES
        assert "PINGPONG" in EXTENSION_NAMES

    @pytest.mark.parametrize("name", PLUGINS)
    def test_consistency_classification(self, name):
        cls = resolve_algorithm(name)
        # Action-consistent snapshots: stronger than fuzzy, weaker than
        # transaction-consistent -- exactly the Zigzag/Ping-Pong class.
        assert cls.action_consistent is True
        assert cls.transaction_consistent is False
        assert cls.uses_lsns is False


class TestSnapshotConsistencyProperties:
    """Random crash instants never lose a committed update."""

    @pytest.mark.parametrize("algorithm", PLUGINS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_timed_crashes(self, tiny_params, algorithm, seed):
        rng = random.Random(seed)
        for trial in range(4):
            crash_at = rng.uniform(0.3, 2.5)
            interval = rng.choice([0.03, 0.08, 0.2])
            plan = FaultPlan(seed=seed + trial,
                             crash=CrashSpec(at_time=crash_at))
            system = _system(tiny_params, algorithm, seed + trial,
                             interval=interval, fault_plan=plan)
            from repro.errors import CrashError
            with pytest.raises(CrashError):
                system.run(3.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], (
                f"{algorithm} lost updates crashing at t={crash_at:.3f} "
                f"(interval={interval})")

    @pytest.mark.parametrize("algorithm", PLUGINS)
    @pytest.mark.parametrize("phase", PHASES)
    def test_crash_at_every_checkpoint_phase(self, tiny_params, algorithm,
                                             phase):
        # Ordinal 4: on tiny_params the first checkpoints find nothing
        # dirty yet, and a sweep trigger needs actual flushes to count.
        if phase == "sweep":
            spec = CrashSpec(at_phase=phase, checkpoint_ordinal=4,
                             after_flushes=2)
        else:
            spec = CrashSpec(at_phase=phase, checkpoint_ordinal=4)
        system = _system(tiny_params, algorithm, 7,
                         fault_plan=FaultPlan(seed=7, crash=spec))
        from repro.errors import CrashError
        with pytest.raises(CrashError):
            system.run(5.0)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []

    @pytest.mark.parametrize("algorithm", PLUGINS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_write_count_crashes(self, tiny_params, algorithm, seed):
        rng = random.Random(1000 + seed)
        for trial in range(3):
            plan = FaultPlan(
                seed=seed, crash=CrashSpec(
                    after_writes=rng.randint(1, 40)))
            system = _system(tiny_params, algorithm, seed,
                             fault_plan=plan)
            from repro.errors import CrashError
            with pytest.raises(CrashError):
                system.run(5.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == []

    @pytest.mark.parametrize("algorithm", PLUGINS)
    def test_clean_run_then_crash(self, tiny_params, algorithm):
        # No injected fault at all: run to quiescence, then pull the plug.
        system = _system(tiny_params, algorithm, 91)
        system.run(2.0)
        assert len(system.checkpointer.history) > 1
        system.crash()
        system.recover()
        assert system.verify_recovery() == []


class TestSnapshotCostModel:
    """The two plugins' distinguishing costs show up in the ledger."""

    def _run(self, params, algorithm, seed=5, duration=2.0):
        system = _system(params, algorithm, seed)
        metrics = system.run(duration)
        return system, metrics

    def test_pingpong_pays_synchronous_double_writes(self, tiny_params):
        zz, _ = self._run(tiny_params, "ZIGZAG")
        pp, _ = self._run(tiny_params, "PINGPONG")
        zz_sync = zz.ledger.by_category(synchronous=True).get(
            CostCategory.COPY, 0.0)
        pp_sync = pp.ledger.by_category(synchronous=True).get(
            CostCategory.COPY, 0.0)
        # Ping-Pong double-writes every install on the transaction's
        # critical path; Zigzag installs in place.
        assert pp_sync > zz_sync

    def test_zigzag_pays_async_bit_sweep_at_begin(self, tiny_params):
        zz, _ = self._run(tiny_params, "ZIGZAG")
        checkpoints = len(zz.checkpointer.history)
        assert checkpoints > 0
        async_copy = zz.ledger.by_category(synchronous=False).get(
            CostCategory.COPY, 0.0)
        per_begin = zz.ledger.costs.per_word * zz.database.n_segments
        # At least one O(n_segments) bit-flip charge per completed
        # checkpoint rides in the asynchronous COPY total.
        assert async_copy >= per_begin * checkpoints

    @pytest.mark.parametrize("algorithm", PLUGINS)
    def test_no_quiesce_no_checkpoint_aborts(self, tiny_params, algorithm):
        system, metrics = self._run(tiny_params, algorithm)
        assert len(system.checkpointer.history) > 1
        # Neither algorithm quiesces update transactions at begin.
        assert metrics.aborts == {}

    @pytest.mark.parametrize("algorithm", PLUGINS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fixed_seed_determinism(self, tiny_params, algorithm, seed):
        first = self._run(tiny_params, algorithm, seed=seed)[1]
        second = self._run(tiny_params, algorithm, seed=seed)[1]
        assert first == second
