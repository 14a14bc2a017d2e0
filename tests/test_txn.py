"""Tests for transactions, workload generation, and the manager."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cpu.accounting import CostCategory, CostLedger, OperationCosts
from repro.errors import InvalidStateError, TwoColorViolation
from repro.mmdb.database import Database
from repro.mmdb.locks import LockManager, LockMode
from repro.params import SystemParameters
from repro.sim.engine import EventEngine
from repro.sim.rng import RandomStreams
from repro.sim.timestamps import TimestampAuthority
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TransactionState
from repro.txn.workload import WorkloadGenerator
from repro.wal.log import LogManager
from repro.wal.records import (AbortRecord, CommitRecord, UpdateRecord,
                                UpdateRun)
from repro.workload.spec import AccessDistribution, WorkloadSpec
from tests.helpers import build_system, run_crash_recover


class TestTransaction:
    def test_begin_attempt_stamps_and_counts(self):
        txn = Transaction(txn_id=1, record_ids=(1, 2), arrival_time=0.0)
        txn.begin_attempt(5)
        assert txn.timestamp == 5
        assert txn.attempts == 1
        assert not txn.is_rerun
        txn.begin_attempt(9)
        assert txn.attempts == 2
        assert txn.is_rerun

    def test_restamp_does_not_count_attempt(self):
        txn = Transaction(txn_id=1, record_ids=(1,), arrival_time=0.0)
        txn.begin_attempt(5)
        txn.colors_seen.add(True)
        txn.shadow.stage(1, 10)
        txn.restamp(8)
        assert txn.attempts == 1
        assert txn.timestamp == 8
        assert not txn.colors_seen
        assert len(txn.shadow) == 0

    def test_no_rerun_after_commit(self):
        txn = Transaction(txn_id=1, record_ids=(1,), arrival_time=0.0)
        txn.begin_attempt(1)
        txn.state = TransactionState.COMMITTED
        with pytest.raises(InvalidStateError):
            txn.begin_attempt(2)
        with pytest.raises(InvalidStateError):
            txn.restamp(3)

    def test_value_for_is_deterministic(self):
        a = Transaction(txn_id=3, record_ids=(5,), arrival_time=0.0)
        b = Transaction(txn_id=3, record_ids=(5,), arrival_time=9.0)
        assert a.value_for(5) == b.value_for(5)

    def test_values_differ_across_txns(self):
        a = Transaction(txn_id=3, record_ids=(5,), arrival_time=0.0)
        b = Transaction(txn_id=4, record_ids=(5,), arrival_time=0.0)
        assert a.value_for(5) != b.value_for(5)


class TestWorkloadGenerator:
    def _generator(self, params, spec=None, seed=0):
        return WorkloadGenerator(params, spec or WorkloadSpec(),
                                 RandomStreams(seed))

    def test_uniform_draws_distinct_records(self, tiny_params):
        gen = self._generator(tiny_params)
        txn = gen.make_transaction(0.0)
        assert len(set(txn.record_ids)) == tiny_params.n_ru
        assert all(0 <= r < tiny_params.n_records for r in txn.record_ids)

    def test_txn_ids_increase(self, tiny_params):
        gen = self._generator(tiny_params)
        ids = [gen.make_transaction(0.0).txn_id for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert gen.transactions_created == 5

    def test_poisson_interarrivals_have_correct_mean(self, tiny_params):
        gen = self._generator(tiny_params)
        draws = [gen.next_interarrival() for _ in range(3000)]
        assert sum(draws) / len(draws) == pytest.approx(
            1.0 / tiny_params.lam, rel=0.1)

    def test_regular_arrivals(self, tiny_params):
        spec = WorkloadSpec(poisson_arrivals=False)
        gen = self._generator(tiny_params, spec)
        assert gen.next_interarrival() == pytest.approx(1.0 / tiny_params.lam)

    def test_reproducible_with_seed(self, tiny_params):
        a = self._generator(tiny_params, seed=5).make_transaction(0.0)
        b = self._generator(tiny_params, seed=5).make_transaction(0.0)
        assert a.record_ids == b.record_ids

    def test_zipf_skews_to_low_ranks(self, tiny_params):
        spec = WorkloadSpec(distribution=AccessDistribution.ZIPF,
                            zipf_theta=1.5)
        gen = self._generator(tiny_params, spec)
        records = [r for _ in range(200)
                   for r in gen.make_transaction(0.0).record_ids]
        median = sorted(records)[len(records) // 2]
        assert median < tiny_params.n_records // 10

    def test_hotspot_concentrates_accesses(self, tiny_params):
        spec = WorkloadSpec(distribution=AccessDistribution.HOTSPOT,
                            hot_fraction=0.1, hot_probability=0.9)
        gen = self._generator(tiny_params, spec)
        records = [r for _ in range(200)
                   for r in gen.make_transaction(0.0).record_ids]
        hot_size = int(tiny_params.n_records * 0.1)
        hot_share = sum(1 for r in records if r < hot_size) / len(records)
        assert hot_share > 0.7

    def test_spec_validation(self):
        with pytest.raises(Exception):
            WorkloadSpec(distribution=AccessDistribution.ZIPF, zipf_theta=0.9)
        with pytest.raises(Exception):
            WorkloadSpec(hot_fraction=0.0)
        with pytest.raises(Exception):
            WorkloadSpec(hot_probability=1.5)


class _Harness:
    """Minimal substrate for driving the manager directly."""

    def __init__(self, params: SystemParameters):
        self.params = params
        self.engine = EventEngine()
        self.database = Database(params)
        self.log = LogManager(params)
        self.locks = LockManager()
        self.ledger = CostLedger(OperationCosts.from_params(params))
        self.authority = TimestampAuthority()
        self.manager = TransactionManager(
            self.database, self.log, self.locks, self.ledger, self.engine,
            self.authority, restart_backoff=0.01)

    def make_txn(self, txn_id: int, record_ids) -> Transaction:
        return Transaction(txn_id=txn_id, record_ids=tuple(record_ids),
                           arrival_time=self.engine.now)


@pytest.fixture
def harness(tiny_params: SystemParameters) -> _Harness:
    return _Harness(tiny_params)


class TestManagerCommit:
    def test_commit_installs_values(self, harness):
        txn = harness.make_txn(1, (0, 1, 2))
        harness.manager.submit(txn)
        assert txn.state is TransactionState.COMMITTED
        for rid in (0, 1, 2):
            assert harness.database.read_record(rid) == txn.value_for(rid)

    def test_commit_logs_one_run_then_commit(self, harness):
        txn = harness.make_txn(1, (0, 5))
        harness.manager.submit(txn)
        harness.log.flush()
        records = harness.log.stable_records()
        assert [type(r) for r in records] == [UpdateRun, CommitRecord]
        run, commit = records
        assert list(run.pairs()) == [(0, txn.value_for(0)),
                                     (5, txn.value_for(5))]
        # one LSN per update, the run's the last of them
        assert (run.lsn, commit.lsn, txn.commit_lsn) == (2, 3, 3)

    def test_segments_stamped_with_commit_lsn(self, harness):
        txn = harness.make_txn(1, (0,))
        harness.manager.submit(txn)
        table = harness.database.table
        assert table.lsn[0] == txn.commit_lsn
        assert table.timestamp[0] == txn.timestamp

    def test_first_run_charged_as_transaction(self, harness):
        harness.manager.submit(harness.make_txn(1, (0,)))
        by_cat = harness.ledger.by_category(synchronous=True)
        assert by_cat[CostCategory.TRANSACTION] == harness.params.c_trans
        assert CostCategory.RESTART not in by_cat

    def test_no_locks_left_after_commit(self, harness):
        txn = harness.make_txn(1, (0, 100, 4000))
        harness.manager.submit(txn)
        for rid in txn.record_ids:
            assert not harness.locks.is_locked(
                harness.database.segment_index_of(rid))

    def test_stats(self, harness):
        harness.manager.submit(harness.make_txn(1, (0,)))
        harness.manager.submit(harness.make_txn(2, (1,)))
        stats = harness.manager.stats
        assert stats.submitted == 2
        assert stats.committed == 2
        assert stats.total_aborts == 0

    def test_committed_transactions_are_not_retained(self, tiny_params):
        """A long run must not hold every shadow buffer it ever staged:
        once ``on_commit`` returns, nothing in the system keeps a
        committed transaction alive."""
        system = build_system(tiny_params, "FUZZYCOPY", seed=2)
        first = []

        def watch(txn):
            # Transaction is slotted (no weak references); its shadow
            # buffer lives exactly as long as the transaction does.
            if not first:
                first.append(weakref.ref(txn.shadow))

        system.txn_manager.on_commit = watch
        system.run(0.5)
        assert first and system.txn_manager.stats.committed > 1
        gc.collect()
        assert first[0]() is None


class _AbortOnceCoordinator:
    """Aborts each transaction's first attempt (two-color style) once it
    has staged ``staged`` updates; the rerun goes through."""

    uses_lsns = True

    def __init__(self, staged=0):
        self.staged = staged
        self.accesses = {}

    def guard_access(self, txn, index):
        seen = self.accesses.get(txn.txn_id, 0)
        self.accesses[txn.txn_id] = seen + 1
        if seen == self.staged:
            raise TwoColorViolation(f"txn {txn.txn_id} mixed colors")

    def before_install(self, txn, index):
        return None


class TestManagerAbortAndRerun:
    def test_aborted_txn_reruns_and_commits(self, harness):
        harness.manager.set_coordinator(_AbortOnceCoordinator())
        txn = harness.make_txn(1, (0, 1))
        harness.manager.submit(txn)
        assert txn.state is TransactionState.ABORTED
        harness.engine.run()  # the backoff event fires the rerun
        assert txn.state is TransactionState.COMMITTED
        assert txn.attempts == 2
        stats = harness.manager.stats
        assert stats.aborts == {"two-color": 1}
        assert stats.reruns == 1

    def test_rerun_charged_as_restart(self, harness):
        harness.manager.set_coordinator(_AbortOnceCoordinator())
        harness.manager.submit(harness.make_txn(1, (0,)))
        harness.engine.run()
        by_cat = harness.ledger.by_category(synchronous=True)
        assert by_cat[CostCategory.RESTART] == harness.params.c_trans

    def test_aborted_attempt_adds_log_bulk(self, harness):
        harness.manager.set_coordinator(_AbortOnceCoordinator())
        txn = harness.make_txn(1, (0, 1))
        harness.manager.submit(txn)
        harness.engine.run()
        harness.log.flush()
        records = harness.log.stable_records()
        # First attempt never staged (guard fires on first access), so only
        # the abort marker precedes the successful attempt's records.
        from repro.wal.records import AbortRecord
        assert any(isinstance(r, AbortRecord) for r in records)
        assert isinstance(records[-1], CommitRecord)

    @pytest.mark.parametrize("fraction, logged",
                             [(1.0, 3), (0.5, 2), (0.1, 0)])
    def test_aborted_attempt_logs_one_run_of_its_prefix(
            self, tiny_params, fraction, logged):
        """An aborted attempt logs a prefix of its staged updates as one
        run, then its abort; a prefix rounding to nothing logs no run."""
        harness = _Harness(
            tiny_params.replace(log_bulk_restart_fraction=fraction))
        harness.manager.set_coordinator(_AbortOnceCoordinator(staged=3))
        txn = harness.make_txn(1, (0, 1, 2, 3))
        harness.manager.submit(txn)
        harness.log.flush()
        aborted = harness.log.stable_records()
        kinds = [UpdateRun, AbortRecord] if logged else [AbortRecord]
        assert [type(r) for r in aborted] == kinds
        if logged:
            assert list(aborted[0].pairs()) == [
                (rid, txn.value_for(rid)) for rid in (0, 1, 2)[:logged]]
        harness.engine.run()  # the rerun commits
        harness.log.flush()
        rerun = harness.log.stable_records()[len(aborted):]
        assert [type(r) for r in rerun] == [UpdateRun, CommitRecord]
        assert rerun[0].n_updates == 4

    def test_lsn_maintenance_charged_when_coordinator_uses_lsns(self, harness):
        harness.manager.set_coordinator(_AbortOnceCoordinator())
        harness.manager.submit(harness.make_txn(1, (0, 1, 2)))
        harness.engine.run()
        by_cat = harness.ledger.by_category(synchronous=True)
        assert by_cat[CostCategory.LSN] == 3 * harness.params.c_lsn

    def test_max_attempts_fails_transaction(self, harness):
        class AlwaysAbort:
            uses_lsns = False

            def guard_access(self, txn, index):
                raise TwoColorViolation("always")

            def before_install(self, txn, index):
                return None

        harness.manager.max_attempts = 3
        harness.manager.set_coordinator(AlwaysAbort())
        txn = harness.make_txn(1, (0,))
        harness.manager.submit(txn)
        harness.engine.run()
        assert txn.state is TransactionState.FAILED
        assert txn.attempts == 3
        assert harness.manager.stats.failed == 1


class TestManagerLockWaits:
    def test_commit_waits_for_checkpointer_lock(self, harness):
        seg_index = harness.database.segment_index_of(0)
        harness.locks.try_acquire(seg_index, "ckpt", LockMode.SHARED)
        txn = harness.make_txn(1, (0,))
        harness.manager.submit(txn)
        assert txn.state is TransactionState.WAITING
        assert harness.manager.stats.lock_waits == 1
        assert harness.manager.active_transaction_ids() == [1]
        harness.locks.release(seg_index, "ckpt")
        assert txn.state is TransactionState.COMMITTED
        assert harness.manager.active_transaction_ids() == []

    def test_waiting_txn_gets_fresh_timestamp(self, harness):
        seg_index = harness.database.segment_index_of(0)
        harness.locks.try_acquire(seg_index, "ckpt", LockMode.SHARED)
        txn = harness.make_txn(1, (0,))
        harness.manager.submit(txn)
        stamped_while_waiting = txn.timestamp
        harness.authority.next()  # time passes
        harness.locks.release(seg_index, "ckpt")
        assert txn.timestamp > stamped_while_waiting

    def test_partial_lock_acquisition_released_on_block(self, harness):
        rps = harness.database.records_per_segment
        blocked_seg = harness.database.segment_index_of(rps)  # segment 1
        harness.locks.try_acquire(blocked_seg, "ckpt", LockMode.SHARED)
        txn = harness.make_txn(1, (0, rps))  # touches segments 0 and 1
        harness.manager.submit(txn)
        # Segment 0 must not stay locked while waiting on segment 1.
        assert not harness.locks.is_locked(0)
        harness.locks.release(blocked_seg, "ckpt")
        assert txn.state is TransactionState.COMMITTED


class TestQuiesce:
    def test_quiesced_transactions_queue_and_resume(self, harness):
        harness.manager.quiesce()
        txn = harness.make_txn(1, (0,))
        harness.manager.submit(txn)
        assert txn.state is TransactionState.PENDING
        assert harness.manager.stats.quiesce_delays == 1
        harness.manager.resume()
        assert txn.state is TransactionState.COMMITTED

    def test_queued_txns_listed_as_active(self, harness):
        harness.manager.quiesce()
        harness.manager.submit(harness.make_txn(7, (0,)))
        assert harness.manager.active_transaction_ids() == [7]
        harness.manager.resume()


class TestSimulatorLogShape:
    @pytest.mark.parametrize("algorithm", ["FUZZYCOPY", "2CCOPY"])
    def test_crash_recover_builds_no_update_record(self, tiny_params,
                                                   algorithm, monkeypatch):
        """The simulator logs every value update inside a run: a whole
        run, crash and recovery construct no lone update record."""
        built = []
        original = UpdateRecord.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(UpdateRecord, "__new__", counting)
        system = build_system(tiny_params, algorithm, seed=3)
        metrics, result, mismatches = run_crash_recover(system, 1.0)
        assert mismatches == []
        assert result.updates_applied > 0
        if algorithm == "2CCOPY":
            assert metrics.aborts   # the aborted-attempt path ran too
        assert built == []
