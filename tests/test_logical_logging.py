"""Logical (transition) logging: when is it actually sound?

The paper (Section 3.2) says consistent backups "permit the use of
logical logging".  These tests sharpen that claim with the testbed:
delta replay is only correct when every segment of the backup image
holds *exactly* its state at the log position replay starts from.

* **COU + logical log -> recovery exact, in both scopes.**  The image
  is the snapshot at the begin marker: old copies preserve begin-time
  values, live flushes only touch segments unchanged since the begin,
  and the per-image staleness rule guarantees skipped segments carry a
  state with no updates between their capture and the begin marker.
  (Partial scope was predicted unsound during design; the testbed
  proved otherwise -- see DESIGN.md.)
* **fuzzy + logical log -> broken**: mid-checkpoint updates are both in
  the image and re-applied from the log (double application).
* **2C + logical log -> broken**: all-white transactions commit after
  the begin marker yet their effects are already in the image -- the 2C
  backup is transaction-consistent, but its consistency point
  corresponds to no log position.

Value logging is immune to all of this because after-images are
idempotent -- which is precisely why the paper's main design uses it.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint.base import CheckpointScope
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.params import SystemParameters
from repro.recovery.replay import replay_records
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.wal.log import LogManager
from tests.helpers import columns


def logical_system(params: SystemParameters, algorithm: str,
                   scope: CheckpointScope, seed: int = 71,
                   **overrides) -> SimulatedSystem:
    return SimulatedSystem(SimulationConfig(
        params=params, algorithm=algorithm, scope=scope,
        policy=CheckpointPolicy(), seed=seed, preload_backup=True,
        logical_updates=True, **overrides))


class TestReplayDeltas:
    def test_deltas_accumulate(self, tiny_params):
        log = LogManager(tiny_params)
        log.append_logical_updates(1, [(0, 5)])
        log.append_commit(1)
        log.append_logical_updates(2, [(0, 3)])
        log.append_commit(2)
        log.flush()
        state = np.array([100, 0], dtype=np.int64)
        replay_records(log.stable_records(), state)
        assert state[0] == 108

    def test_aborted_deltas_dropped(self, tiny_params):
        log = LogManager(tiny_params)
        log.append_logical_updates(1, [(0, 5)])
        log.append_abort(1)
        log.flush()
        state = np.zeros(2, dtype=np.int64)
        replay_records(log.stable_records(), state)
        assert not state.any()

    def test_mixed_value_and_delta(self, tiny_params):
        log = LogManager(tiny_params)
        log.append_update_run(1, *columns([(0, 50)]))   # absolute
        log.append_logical_updates(1, [(0, 7)])         # then a delta
        log.append_commit(1)
        log.flush()
        state = np.zeros(2, dtype=np.int64)
        replay_records(log.stable_records(), state)
        assert state[0] == 57

    def test_delta_record_is_compact(self, tiny_params):
        log = LogManager(tiny_params)
        log.append_logical_updates(1, [(0, 5)])
        log.append_update_run(1, *columns([(0, 5)]))
        log.flush()
        logical, value = log.stable_records()
        assert (log.record_size_words(logical)
                < log.record_size_words(value))


class TestLiveStateCorrect:
    """Regardless of checkpointing, the *live* database applies deltas
    correctly; the oracle tracks them through the log independently."""

    def test_increments_accumulate_in_primary(self, tiny_params):
        system = logical_system(tiny_params, "FUZZYCOPY",
                                CheckpointScope.PARTIAL)
        system.run(1.0)
        system.log.flush()
        system.oracle.feed(system.log.drain_newly_stable())
        assert system.oracle.mismatches(system.database.values_snapshot()) \
            == []


class TestSoundCombination:
    def test_full_cou_logical_recovers_exactly(self, small_params):
        for algorithm in ("COUCOPY", "COUFLUSH"):
            system = logical_system(small_params, algorithm,
                                    CheckpointScope.FULL)
            system.run(3.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], algorithm

    def test_full_cou_logical_many_seeds(self, small_params):
        for seed in (1, 2, 3):
            system = logical_system(small_params, "COUCOPY",
                                    CheckpointScope.FULL, seed=seed)
            system.run(2.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], seed

    def test_partial_cou_logical_also_sound(self, small_params):
        """Predicted to corrupt; the testbed proved the per-image
        staleness rule keeps every skipped segment at exactly its
        begin-marker state, so partial COU supports logical logging too."""
        for algorithm in ("COUCOPY", "COUFLUSH"):
            system = logical_system(small_params, algorithm,
                                    CheckpointScope.PARTIAL)
            system.run(4.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], algorithm

    def test_partial_cou_logical_low_rate_stale_segments(self):
        """Same soundness where partial checkpoints genuinely skip a lot
        (low per-segment update rate, many quiet segments)."""
        params = SystemParameters(s_db=256 * 8192, lam=30.0,
                                  t_seek=0.002, n_bdisks=8)
        system = logical_system(params, "COUCOPY",
                                CheckpointScope.PARTIAL, seed=5)
        system.run(5.0)
        history = system.checkpointer.history
        assert any(c.segments_skipped > 0 for c in history[2:])
        system.crash()
        system.recover()
        assert system.verify_recovery() == []


class TestUnsoundCombinations:
    """The combinations that silently corrupt -- demonstrated, not assumed.

    Each scenario needs at least one transaction whose update lands in
    the backup image *and* is replayed from the log (or whose base
    predates the replay start); several seconds of saturated load make
    that overwhelmingly likely, and the oracle catches the corruption.
    """

    def _run_to_mismatch(self, params, algorithm, scope, seed=71) -> bool:
        system = logical_system(params, algorithm, scope, seed=seed)
        system.run(4.0)
        system.crash()
        system.recover()
        return bool(system.verify_recovery())

    def test_fuzzy_logical_corrupts(self, small_params):
        assert self._run_to_mismatch(
            small_params, "FUZZYCOPY", CheckpointScope.FULL)

    def test_fuzzy_partial_logical_corrupts(self, small_params):
        assert self._run_to_mismatch(
            small_params, "FUZZYCOPY", CheckpointScope.PARTIAL)

    def test_two_color_logical_corrupts(self, small_params):
        assert self._run_to_mismatch(
            small_params, "2CCOPY", CheckpointScope.FULL)

    def test_two_color_flush_logical_corrupts(self, small_params):
        assert self._run_to_mismatch(
            small_params, "2CFLUSH", CheckpointScope.PARTIAL)

    def test_value_logging_immune_in_same_scenarios(self, small_params):
        """The control: identical runs with value logging recover exactly."""
        for algorithm, scope in (
            ("FUZZYCOPY", CheckpointScope.FULL),
            ("2CCOPY", CheckpointScope.FULL),
            ("COUCOPY", CheckpointScope.PARTIAL),
        ):
            system = SimulatedSystem(SimulationConfig(
                params=small_params, algorithm=algorithm, scope=scope,
                policy=CheckpointPolicy(), seed=71, preload_backup=True))
            system.run(4.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], algorithm
