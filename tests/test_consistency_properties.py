"""Property-based consistency invariants under random interleavings.

Hypothesis drives random transaction submissions *during* an active
checkpoint (interleaved with random numbers of event-engine steps, so
submissions land at arbitrary points of the sweep) and then checks the
algorithm's defining invariant on the completed backup image:

* **COU**: a FULL image equals the database state at the begin marker --
  the snapshot property, bit for bit;
* **two-color**: a FULL image equals the pre-checkpoint state plus
  exactly the all-white transactions, applied in commit order -- the
  transaction-consistency property;
* **fuzzy**: no image-level invariant (that is the point), but backup +
  log replay must still reconstruct the committed state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import CheckpointHarness
from repro.checkpoint.base import CheckpointScope
from repro.params import SystemParameters
from repro.recovery.restore import RecoveryManager
from repro.txn.transaction import TransactionState

PARAMS = SystemParameters(s_db=16 * 8192, lam=100.0, t_seek=0.002,
                          n_bdisks=4)

# (engine steps to advance, record ids to update) pairs
interleavings = st.lists(
    st.tuples(st.integers(min_value=0, max_value=25),
              st.lists(st.integers(min_value=0,
                                   max_value=PARAMS.n_records - 1),
                       min_size=1, max_size=3, unique=True)),
    max_size=12)


def _advance(harness: CheckpointHarness, steps: int) -> None:
    for _ in range(steps):
        if not harness.checkpointer.active:
            return
        if not harness.engine.step():
            harness.log.flush()


class TestCouSnapshotProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=interleavings,
           algorithm=st.sampled_from(["COUCOPY", "COUFLUSH"]))
    def test_full_image_is_begin_snapshot(self, ops, algorithm):
        harness = CheckpointHarness(PARAMS, algorithm,
                                    scope=CheckpointScope.FULL, io_depth=2)
        harness.submit([0, 900])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        snapshot = harness.database.values_snapshot()  # state at tau(CH)
        for steps, records in ops:
            _advance(harness, steps)
            harness.submit(records)
        harness.log.flush()
        stats = harness.drive_checkpoint()
        harness.engine.run()  # settle lock-waiters
        image = harness.backup.image(stats.image)
        assert np.array_equal(image.values_snapshot(), snapshot)


class TestTwoColorPrefixProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=interleavings,
           algorithm=st.sampled_from(["2CCOPY", "2CFLUSH"]))
    def test_full_image_is_base_plus_all_white_txns(self, ops, algorithm):
        harness = CheckpointHarness(PARAMS, algorithm,
                                    scope=CheckpointScope.FULL, io_depth=2)
        harness.submit([0, 900])
        harness.log.flush()
        base = harness.database.values_snapshot()
        during = []  # transactions that commit from the begin marker on
        harness.manager.on_commit = during.append
        harness.checkpointer.start_checkpoint()
        for steps, records in ops:
            _advance(harness, steps)
            harness.submit(records)
        harness.log.flush()
        stats = harness.drive_checkpoint()
        expected = base.copy()
        for txn in during:
            if txn.colors_seen == {False}:  # ran entirely on white data
                for record_id, value in txn.shadow:
                    expected[record_id] = value
        image = harness.backup.image(stats.image)
        assert np.array_equal(image.values_snapshot(), expected)
        harness.engine.run()  # let aborted stragglers finish eventually

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=interleavings)
    def test_no_transaction_commits_with_mixed_colors(self, ops):
        harness = CheckpointHarness(PARAMS, "2CCOPY",
                                    scope=CheckpointScope.FULL, io_depth=2)
        harness.checkpointer.start_checkpoint()
        submitted = []
        for steps, records in ops:
            _advance(harness, steps)
            submitted.append(harness.submit(records))
        harness.log.flush()
        harness.drive_checkpoint()
        for txn in submitted:
            if txn.state is TransactionState.COMMITTED:
                assert txn.colors_seen != {True, False}


class TestFuzzyRepairProperty:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=interleavings)
    def test_fuzzy_image_plus_log_reconstructs_state(self, ops):
        """The fuzzy image alone satisfies no invariant; with the log it
        must reconstruct the exact committed state."""
        harness = CheckpointHarness(PARAMS, "FUZZYCOPY",
                                    scope=CheckpointScope.FULL, io_depth=2)
        harness.submit([0, 900])
        harness.log.flush()
        harness.checkpointer.start_checkpoint()
        for steps, records in ops:
            _advance(harness, steps)
            harness.submit(records)
        harness.log.flush()
        harness.drive_checkpoint()
        harness.engine.run()
        harness.log.flush()
        committed_state = harness.database.values_snapshot()
        manager = RecoveryManager(
            PARAMS, harness.database, harness.log, harness.backup,
            harness.array, authority=harness.authority)
        manager.recover()
        assert np.array_equal(harness.database.values_snapshot(),
                              committed_state)
