"""Public-API surface and error-hierarchy tests."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_workflow(self):
        """The README quickstart, verbatim."""
        from repro import SystemParameters, evaluate
        params = SystemParameters.paper_defaults()
        result = evaluate("COUCOPY", params)
        assert 3000 < result.overhead_per_txn < 4000
        assert 90 < result.recovery_time < 110

    def test_simulation_workflow(self):
        from repro import SimulatedSystem, SimulationConfig, SystemParameters
        params = SystemParameters.scaled_down(1024, lam=100.0)
        system = SimulatedSystem(SimulationConfig(
            params=params, algorithm="COUCOPY", seed=7,
            preload_backup=True))
        system.run(1.0)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []

    def test_algorithm_names_export(self):
        assert len(repro.ALGORITHM_NAMES) == 6


class TestFacade:
    """The repro.api experiment facade: evaluate / simulate / sweep."""

    def test_evaluate_defaults_to_paper_params(self):
        result = repro.evaluate("COUCOPY")
        assert 3000 < result.overhead_per_txn < 4000

    def test_simulate_is_callable_and_a_package(self):
        outcome = repro.simulate("COUCOPY", scale=1024, duration=0.5,
                                 lam=100.0)
        assert outcome.clean and not outcome.crashed
        assert outcome.metrics.transactions_committed > 0
        # repro.simulate is the api function itself; the testbed's one
        # package is repro.sim
        assert repro.simulate is repro.api.simulate
        from repro.sim.system import SimulatedSystem
        assert repro.SimulatedSystem is SimulatedSystem

    def test_simulate_crash_verifies_recovery(self):
        outcome = repro.simulate("COUCOPY", scale=1024, duration=0.5,
                                 lam=100.0, crash=True, seed=3)
        assert outcome.crashed
        assert outcome.clean
        assert outcome.recovery is not None
        assert outcome.mismatches == []

    def test_sweep_callable(self):
        from repro.experiments.validation import run_validation
        result = repro.sweep(
            run_validation,
            points=[{"algorithm": "COUCOPY"}],
            fixed={"duration": 0.5, "warmup": 0.2, "seed": 1})
        assert result.values()[0].algorithm == "COUCOPY"
        assert result.failures() == []

    def test_sweep_exports(self):
        for name in ("SweepSpec", "SweepRunner", "SweepResult",
                     "SweepError", "SimulationOutcome"):
            assert hasattr(repro, name), name


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in ("ConfigurationError", "DatabaseError", "AddressError",
                     "LockError", "TransactionError", "TransactionAborted",
                     "TwoColorViolation", "InvalidStateError", "WALViolation",
                     "CheckpointError", "RecoveryError", "CrashError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_configuration_error_is_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)

    def test_address_error_is_index_error(self):
        assert issubclass(errors.AddressError, IndexError)

    def test_two_color_is_an_abort(self):
        assert issubclass(errors.TwoColorViolation, errors.TransactionAborted)
        violation = errors.TwoColorViolation("mixed")
        assert violation.reason == "two-color"

    def test_abort_reason_default(self):
        assert errors.TransactionAborted("x").reason == "aborted"

    def test_one_except_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.WALViolation("boom")


class TestExperimentHelpers:
    def test_text_table_alignment(self):
        from repro.units import text_table
        out = text_table(["a", "long_header"], [("x", 1), ("yy", 22)],
                         title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to equal width

    def test_geometric_sweep(self):
        from repro.experiments.common import geometric_sweep
        values = geometric_sweep(1.0, 100.0, 3)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(10.0)
        assert values[2] == pytest.approx(100.0)

    def test_geometric_sweep_single_point(self):
        from repro.experiments.common import geometric_sweep
        assert geometric_sweep(5.0, 10.0, 1) == [5.0]

    def test_fig4c_cheapest_at(self):
        from repro.experiments.fig4c import LoadPoint, cheapest_at
        curves = {
            "A": [LoadPoint("A", 10.0, 100.0, 0.0)],
            "B": [LoadPoint("B", 10.0, 50.0, 0.0)],
        }
        assert cheapest_at(curves, 10.0) == "B"


class TestBaseCheckpointerGuards:
    def test_process_segment_abstract(self, tiny_params):
        from repro.checkpoint.base import BaseCheckpointer, CheckpointRun
        from tests.helpers import CheckpointHarness
        harness = CheckpointHarness(tiny_params, "FUZZYCOPY")
        base = BaseCheckpointer(
            tiny_params, harness.database, harness.log, harness.locks,
            harness.ledger, harness.engine, harness.backup, harness.array,
            harness.authority)
        with pytest.raises(NotImplementedError):
            base._process_segment(
                CheckpointRun(checkpoint_id=1,
                              image=harness.backup.image(0),
                              began_at=0.0), 0)

    def test_release_slot_underflow(self):
        from repro.checkpoint.base import CheckpointRun
        from repro.errors import CheckpointError
        run = CheckpointRun(checkpoint_id=1, image=None, began_at=0.0)
        with pytest.raises(CheckpointError):
            run.release_slot()


class TestOneAssembler:
    """``repro.api`` holds the only build recipe outside ``repro.sim``:
    the experiment drivers that used to hand-build their system must
    get bit-identical metrics through it."""

    @staticmethod
    def _hand_built(algorithm, params, seed, duration, warmup=0.0):
        from repro.checkpoint.scheduler import CheckpointPolicy
        system = repro.SimulatedSystem(repro.SimulationConfig(
            params=params, algorithm=algorithm, seed=seed,
            policy=CheckpointPolicy(), preload_backup=True))
        if warmup > 0:
            system.run(warmup)
            system.reset_measurements()
        return system.run(duration)

    @staticmethod
    def _canon(metrics):
        import json
        from dataclasses import asdict
        return json.dumps(asdict(metrics), sort_keys=True)

    def test_validation_point(self):
        from repro.experiments.validation import (run_validation,
                                                  validation_params)
        params = validation_params(200.0, stable_log_tail=True)
        want = self._hand_built("FASTFUZZY", params, 42, 2.0, warmup=1.0)
        got = repro.simulate("FASTFUZZY", params=params, seed=42,
                             duration=2.0, warmup=1.0).metrics
        assert self._canon(got) == self._canon(want)
        row = run_validation("FASTFUZZY", duration=2.0, warmup=1.0, seed=42,
                             stable_log_tail=True)
        assert (row.measured_overhead, row.measured_abort_probability,
                row.transactions, row.checkpoints) == (
            want.overhead_per_transaction, want.abort_probability,
            want.transactions_committed, want.checkpoints_completed)

    def test_latency_profile_point(self):
        from repro.experiments.extensions import _latency_point
        from repro.experiments.validation import validation_params
        params = validation_params(200.0)
        want = self._hand_built("NAIVELOCK", params, 5, 2.0)
        got = repro.simulate("NAIVELOCK", params=params, seed=5,
                             duration=2.0).metrics
        assert self._canon(got) == self._canon(want)
        row = _latency_point("NAIVELOCK", lam=200.0, duration=2.0, seed=5)
        assert (row.lock_waits, row.mean_response_ms, row.committed) == (
            want.lock_waits, want.mean_response_time * 1e3,
            want.transactions_committed)

    def test_replication_point(self):
        from repro.experiments.replication import _replicate_point
        from repro.experiments.validation import validation_params
        params = validation_params(200.0)
        want = self._hand_built("2CCOPY", params, 3, 2.0, warmup=1.0)
        got = repro.simulate("2CCOPY", params=params, seed=3, duration=2.0,
                             warmup=1.0).metrics
        assert self._canon(got) == self._canon(want)
        assert _replicate_point("2CCOPY", params, 3, 2.0, 1.0) == (
            want.overhead_per_transaction, want.abort_probability,
            want.mean_response_time, want.transactions_committed)

    def test_builder_grants_the_stable_tail_only_where_required(self):
        from repro.api import build_system
        assert build_system("FASTFUZZY",
                            scale=2048).config.params.stable_log_tail
        assert not build_system("FUZZYCOPY",
                                scale=2048).config.params.stable_log_tail
        sharded = build_system("FASTFUZZY", scale=2048, partitions=2)
        assert sharded.config.params.stable_log_tail
        assert len(sharded.shards) == 2
