"""The workload spec and generator.

Three contracts locked by these tests:

* **serde strictness** -- ``WorkloadSpec`` round-trips through plain
  JSON and rejects unknown keys, mirroring ``FaultPlan``;
* **bit-identical compatibility** -- the default and skewed specs
  reproduce the pinned transaction streams and simulation metrics
  exactly (goldens in ``tests/data/workload_golden.json``);
* **port conformance** -- the generator satisfies the
  :class:`repro.sim.ports.WorkloadSource` protocol.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.params import SystemParameters
from repro.sim import ports
from repro.sim.rng import RandomStreams
from repro.sim.system import SimulationConfig
from repro.txn.workload import WorkloadGenerator
from repro.workload.spec import AccessDistribution, WorkloadSpec

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "workload_golden.json").read_text())


# ---------------------------------------------------------------------------
# spec serde
# ---------------------------------------------------------------------------
class TestWorkloadSpecSerde:
    def test_default_round_trip(self):
        spec = WorkloadSpec()
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_full_round_trip_through_json(self):
        spec = WorkloadSpec(
            distribution=AccessDistribution.HOTSPOT,
            hot_fraction=0.05, hot_probability=0.9,
            poisson_arrivals=False,
            update_count_mix=((1, 5.0), (16, 1.0)))
        rebuilt = WorkloadSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.update_count_mix == ((1, 5.0), (16, 1.0))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown WorkloadSpec"):
            WorkloadSpec.from_dict({"distribution": "uniform",
                                    "arrival_rate": 100.0})

    def test_bad_distribution_rejected(self):
        with pytest.raises(ConfigurationError, match="distribution"):
            WorkloadSpec.from_dict({"distribution": "pareto"})

    def test_validation_still_applies_through_from_dict(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.from_dict({"distribution": "zipf",
                                    "zipf_theta": 0.5})

    def test_schedule_key_is_refused(self):
        """A spec file written for time-varying arrivals never runs
        silently at the fixed rate."""
        with pytest.raises(ConfigurationError, match="'schedule'"):
            WorkloadSpec.from_dict({"distribution": "uniform", "schedule": {
                "phases": [{"kind": "constant", "rate": 100.0,
                            "duration": 2.0}]}})

    def test_config_takes_only_a_spec(self, small_params):
        for designator in ("kv", WorkloadSpec().to_dict()):
            with pytest.raises(ConfigurationError, match="WorkloadSpec"):
                SimulationConfig(params=small_params, workload=designator)


# ---------------------------------------------------------------------------
# port conformance
# ---------------------------------------------------------------------------
class TestPortConformance:
    def _streams(self):
        return RandomStreams(3)

    def test_generator_satisfies_workload_source(self, small_params):
        gen = WorkloadGenerator(small_params, WorkloadSpec(), self._streams())
        assert ports.missing_methods(gen, ports.WorkloadSource) == []
        assert isinstance(gen, ports.WorkloadSource)


# ---------------------------------------------------------------------------
# determinism + golden regression
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_golden_default_stream(self):
        """The default spec reproduces the pre-redesign stream exactly."""
        params = SystemParameters.scaled_down(1024, lam=200.0)
        gen = WorkloadGenerator(params, WorkloadSpec(), RandomStreams(7))
        for entry in GOLDEN["default_stream_seed7"]:
            gap = gen.next_interarrival()
            txn = gen.make_transaction(0.0)
            assert repr(gap) == entry["gap"]
            assert list(txn.record_ids) == entry["records"]

    @pytest.mark.parametrize("key,spec", [
        ("zipf_stream_seed11",
         WorkloadSpec(distribution=AccessDistribution.ZIPF, zipf_theta=1.5)),
        ("hotspot_stream_seed11",
         WorkloadSpec(distribution=AccessDistribution.HOTSPOT)),
        ("mix_stream_seed11",
         WorkloadSpec(update_count_mix=((1, 3.0), (12, 1.0)))),
    ])
    def test_golden_skewed_streams(self, key, spec):
        params = SystemParameters.scaled_down(1024, lam=200.0)
        gen = WorkloadGenerator(params, spec, RandomStreams(11))
        for entry in GOLDEN[key]:
            gap = gen.next_interarrival()
            txn = gen.make_transaction(0.0)
            assert repr(gap) == entry["gap"]
            assert list(txn.record_ids) == entry["records"]

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN["simulate_seed7"]))
    def test_golden_simulation_metrics(self, algorithm):
        """PR 5 equivalence methodology: fixed-seed metrics + recovery
        outcomes are bit-identical to the pre-redesign capture.

        The log-shape keys (the recovery scan's LSN, records, updates and
        words; ``wal.appends`` and the ``wal.flush.records`` histogram)
        count one per update, outcome and marker, however the updates
        are grouped into log records.
        """
        golden = GOLDEN["simulate_seed7"][algorithm]
        outcome = repro.simulate(algorithm, scale=1024, lam=200.0,
                                 duration=5.0, seed=7, crash=True,
                                 telemetry=True)
        flush_records = outcome.telemetry["histograms"]["wal.flush.records"]
        log_shape = {
            "wal.appends": outcome.telemetry["counters"]["wal.appends"],
            "wal.flush.records.count": flush_records["count"],
            "wal.flush.records.total": flush_records["total"],
        }
        for key, expected in golden.items():
            if key == "mismatches":
                assert outcome.mismatches == expected
            elif key == "replayed":
                assert outcome.recovery.transactions_replayed == expected
            elif key == "used_checkpoint":
                assert outcome.recovery.used_checkpoint_id == expected
            elif key in ("start_lsn", "records_scanned", "updates_applied",
                         "log_words_read"):
                assert getattr(outcome.recovery, key) == expected, key
            elif key in log_shape:
                assert log_shape[key] == expected, key
            else:
                assert repr(getattr(outcome.metrics, key)) == expected, key
