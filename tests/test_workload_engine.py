"""The open-system workload engine: schedules, scenarios, sources.

Four contracts locked by these tests:

* **schedule math** -- phase rate shapes, analytic integrals, and the
  non-homogeneous Poisson inversion (``time_to_offer`` really inverts
  ``offered``, including repetition and end-of-load);
* **serde strictness** -- ``WorkloadSpec``/``ArrivalSchedule`` round-trip
  through plain JSON and reject unknown keys, mirroring ``FaultPlan``;
* **bit-identical compatibility** -- the default spec reproduces the
  pre-redesign transaction stream and simulation metrics exactly
  (goldens in ``tests/data/workload_golden.json``, captured before the
  API redesign), and every named scenario reruns byte-identically;
* **port conformance** -- every workload source satisfies the
  schedule-aware :class:`repro.sim.ports.WorkloadSource` protocol.
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
from repro.workload import (
    AccessDistribution,
    ArrivalSchedule,
    SchedulePhase,
    ScheduledWorkloadSource,
    WorkloadScenario,
    WorkloadSpec,
    constant,
    diurnal,
    get_scenario,
    pause,
    ramp,
    register_scenario,
    resolve_workload,
    run_scenario_cell,
    scenario_names,
    scenario_points,
    spike,
    unregister_scenario,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "workload_golden.json").read_text())


# ---------------------------------------------------------------------------
# schedule math
# ---------------------------------------------------------------------------
class TestSchedulePhase:
    def test_constant_and_pause_shapes(self):
        flat = constant(100.0, 2.0)
        assert flat.rate_at(0.0) == flat.rate_at(1.7) == 100.0
        assert flat.offered(0.0, 2.0) == pytest.approx(200.0)
        quiet = pause(3.0)
        assert quiet.rate_at(1.0) == 0.0
        assert quiet.offered(0.0, 3.0) == 0.0
        assert quiet.end_rate == 0.0

    def test_ramp_shape_and_integral(self):
        phase = ramp(100.0, 300.0, 4.0)
        assert phase.rate_at(0.0) == 100.0
        assert phase.rate_at(2.0) == pytest.approx(200.0)
        assert phase.end_rate == 300.0
        # trapezoid: mean rate 200 over 4s
        assert phase.offered(0.0, 4.0) == pytest.approx(800.0)
        assert phase.max_rate == 300.0

    def test_spike_shape_and_integral(self):
        phase = spike(150.0, 900.0, 4.0)
        assert phase.rate_at(0.0) == 150.0
        assert phase.rate_at(2.0) == 900.0
        assert phase.rate_at(4.0) == pytest.approx(150.0)
        # triangle over baseline: 150*4 + (900-150)*4/2
        assert phase.offered(0.0, 4.0) == pytest.approx(600.0 + 1500.0)
        # piecewise split across the peak agrees with the whole
        assert (phase.offered(0.0, 1.3) + phase.offered(1.3, 2.9)
                + phase.offered(2.9, 4.0)) == pytest.approx(2100.0)

    def test_diurnal_shape_and_integral(self):
        phase = diurnal(250.0, 8.0, amplitude=0.8)
        assert phase.rate_at(0.0) == pytest.approx(250.0)
        assert phase.rate_at(2.0) == pytest.approx(450.0)   # peak
        assert phase.rate_at(6.0) == pytest.approx(50.0)    # trough
        # the sinusoid integrates to zero over one period
        assert phase.offered(0.0, 8.0) == pytest.approx(2000.0)
        assert phase.max_rate == pytest.approx(450.0)

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            SchedulePhase("sawtooth", rate=1.0)
        with pytest.raises(ConfigurationError):
            constant(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            SchedulePhase("constant", rate=1.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            SchedulePhase("ramp", rate=1.0, duration=1.0)  # no rate_to
        with pytest.raises(ConfigurationError):
            spike(100.0, 50.0, 1.0)  # peak below base
        with pytest.raises(ConfigurationError):
            diurnal(100.0, 1.0, amplitude=1.0)
        with pytest.raises(ConfigurationError):
            SchedulePhase("constant", rate=1.0, duration=1.0, peak=2.0)

    def test_phase_serde_round_trip(self):
        for phase in (constant(100.0, 2.0), ramp(10.0, 20.0, 1.0),
                      spike(5.0, 50.0, 3.0), diurnal(25.0, 8.0, 0.3),
                      pause(1.5)):
            rebuilt = SchedulePhase.from_dict(
                json.loads(json.dumps(phase.to_dict())))
            assert rebuilt == phase

    def test_phase_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown SchedulePhase"):
            SchedulePhase.from_dict({"kind": "constant", "duration": 1.0,
                                     "rate": 1.0, "color": "red"})


class TestArrivalSchedule:
    def test_rate_at_spans_phases_and_holds_tail(self):
        schedule = ArrivalSchedule((constant(100.0, 2.0),
                                    ramp(100.0, 300.0, 2.0)))
        assert schedule.total_duration == 4.0
        assert schedule.rate_at(1.0) == 100.0
        assert schedule.rate_at(3.0) == pytest.approx(200.0)
        # past the end, a non-repeating schedule holds the final rate
        assert schedule.rate_at(10.0) == pytest.approx(300.0)
        assert schedule.offered(4.0, 6.0) == pytest.approx(600.0)

    def test_repeat_wraps_rate_and_integral(self):
        schedule = ArrivalSchedule((constant(50.0, 1.0), pause(1.0)),
                                   repeat=True)
        assert schedule.rate_at(0.5) == 50.0
        assert schedule.rate_at(1.5) == 0.0
        assert schedule.rate_at(2.5) == 50.0
        assert schedule.offered(0.0, 10.0) == pytest.approx(250.0)
        assert schedule.offered(0.5, 2.5) == pytest.approx(50.0)

    def test_time_to_offer_inverts_offered(self):
        schedule = ArrivalSchedule((constant(150.0, 2.0),
                                    spike(150.0, 900.0, 4.0),
                                    constant(150.0, 2.0)))
        for start, target in ((0.0, 10.0), (1.9, 400.0), (5.0, 1000.0),
                              (9.0, 77.0)):
            instant = schedule.time_to_offer(start, target)
            assert instant is not None and instant > start
            assert schedule.offered(start, instant) == pytest.approx(
                target, rel=1e-6)

    def test_time_to_offer_exhausted_load_returns_none(self):
        drained = ArrivalSchedule((constant(50.0, 1.0), pause(1.0)))
        assert drained.time_to_offer(0.0, 51.0) is None
        assert drained.time_to_offer(1.2, 1.0) is None
        # but load still inside the first phase is reachable
        assert drained.time_to_offer(0.0, 25.0) == pytest.approx(0.5)
        silent_cycle = ArrivalSchedule((pause(1.0),), repeat=True)
        assert silent_cycle.time_to_offer(0.0, 1.0) is None

    def test_schedule_serde_round_trip_and_strictness(self):
        schedule = ArrivalSchedule((diurnal(250.0, 8.0, 0.8),), repeat=True)
        rebuilt = ArrivalSchedule.from_dict(
            json.loads(json.dumps(schedule.to_dict())))
        assert rebuilt == schedule
        with pytest.raises(ConfigurationError, match="unknown"):
            ArrivalSchedule.from_dict({"phases": [], "period": 3})
        with pytest.raises(ConfigurationError, match="non-empty"):
            ArrivalSchedule.from_dict({"phases": []})
        with pytest.raises(ConfigurationError):
            ArrivalSchedule(())


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
            update_count_mix=((1, 5.0), (16, 1.0)),
            schedule=ArrivalSchedule((constant(200.0, 10.0),)),
            name="bankish")
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

    def test_schedule_must_be_a_schedule(self):
        with pytest.raises(ConfigurationError, match="schedule"):
            WorkloadSpec(schedule="constant 100/s")  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------
class TestScenarioRegistry:
    def test_builtin_presets_registered(self):
        assert set(scenario_names()) >= {"bank", "kv", "read-heavy",
                                         "write-storm", "diurnal"}

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("WRITE-STORM") is get_scenario("write-storm")

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ConfigurationError, match="bank"):
            get_scenario("does-not-exist")

    def test_register_and_unregister(self):
        @register_scenario
        def _probe():
            return WorkloadScenario(
                name="probe", description="test-only",
                spec=WorkloadSpec(schedule=ArrivalSchedule(
                    (constant(10.0, 1.0),))))
        try:
            assert "probe" in scenario_names()
            assert get_scenario("probe").spec.name == "probe"
            with pytest.raises(ConfigurationError, match="already"):
                register_scenario(lambda: WorkloadScenario(
                    name="probe", description="dup", spec=WorkloadSpec()))
        finally:
            unregister_scenario("probe")
        assert "probe" not in scenario_names()

    def test_factory_must_return_a_scenario(self):
        with pytest.raises(ConfigurationError, match="WorkloadScenario"):
            register_scenario(lambda: WorkloadSpec())

    def test_resolve_workload_accepts_all_designators(self):
        assert resolve_workload(None) == WorkloadSpec()
        spec = WorkloadSpec(zipf_theta=1.4)
        assert resolve_workload(spec) is spec
        assert resolve_workload("kv") == get_scenario("kv").spec
        as_dict = get_scenario("bank").spec.to_dict()
        assert resolve_workload(as_dict) == get_scenario("bank").spec
        with pytest.raises(ConfigurationError, match="workload"):
            resolve_workload(42)  # type: ignore[arg-type]


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

    @pytest.mark.parametrize("name", ["bank", "kv", "read-heavy",
                                      "write-storm", "diurnal"])
    def test_every_scenario_source_satisfies_port(self, small_params, name):
        spec = get_scenario(name).spec
        source = ScheduledWorkloadSource(small_params, spec, self._streams())
        assert ports.missing_methods(source, ports.WorkloadSource) == []
        assert isinstance(source, ports.WorkloadSource)
        assert source.rate_at(0.0) == spec.schedule.rate_at(0.0)
        assert source.expected_arrivals(0.0, 1.0) == pytest.approx(
            spec.schedule.offered(0.0, 1.0))

    def test_scheduled_source_requires_a_schedule(self, small_params):
        with pytest.raises(ConfigurationError, match="schedule"):
            ScheduledWorkloadSource(small_params, WorkloadSpec(),
                                    self._streams())


# ---------------------------------------------------------------------------
# determinism + golden regression
# ---------------------------------------------------------------------------
def _stream_fingerprint(params, spec, seed, n=30):
    source = (ScheduledWorkloadSource(params, spec, RandomStreams(seed))
              if spec.schedule is not None
              else WorkloadGenerator(params, spec, RandomStreams(seed)))
    now, draws = 0.0, []
    for _ in range(n):
        gap = source.next_interarrival(now)
        if gap is None:
            draws.append(("end", None))
            break
        now += gap
        txn = source.make_transaction(now)
        draws.append((repr(gap), tuple(txn.record_ids)))
    return tuple(draws)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["bank", "kv", "read-heavy",
                                      "write-storm", "diurnal"])
    def test_scenario_streams_are_byte_identical(self, small_params, name):
        spec = get_scenario(name).spec
        first = _stream_fingerprint(small_params, spec, seed=11)
        second = _stream_fingerprint(small_params, spec, seed=11)
        assert first == second

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


# ---------------------------------------------------------------------------
# end-to-end scheduled runs
# ---------------------------------------------------------------------------
class TestScheduledRuns:
    def test_write_storm_crash_recovers_clean(self):
        outcome = repro.simulate("COUCOPY", scale=1024, duration=8.0,
                                 seed=7, workload="write-storm", crash=True,
                                 telemetry=True)
        assert outcome.clean
        metrics = outcome.metrics
        # the storm offers 2700 arrivals over 8s = 337.5/s
        assert metrics.offered_rate == pytest.approx(337.5)
        assert metrics.transactions_submitted > 2000
        assert outcome.telemetry["counters"]["workload.arrivals"] == \
            metrics.transactions_submitted

    def test_diurnal_repeat_keeps_offering_past_one_cycle(self):
        outcome = repro.simulate("FUZZYCOPY", scale=1024, duration=16.0,
                                 seed=5, workload="diurnal")
        # 16s spans two full 8s cycles; the sinusoid averages out to 250/s
        assert outcome.metrics.offered_rate == pytest.approx(250.0)
        assert outcome.metrics.transactions_submitted > 3000

    def test_exhausted_schedule_stops_arrivals(self, small_params):
        spec = WorkloadSpec(schedule=ArrivalSchedule(
            (constant(200.0, 1.0), pause(5.0))))
        outcome = repro.simulate("FUZZYCOPY", params=small_params,
                                 duration=4.0, seed=2, workload=spec)
        submitted = outcome.metrics.transactions_submitted
        assert 100 < submitted < 300  # ~200 offered, then silence
        # committed everything: the quiet tail drained the queue
        assert outcome.metrics.transactions_committed == submitted

    def test_uniform_paced_schedule_is_deterministic(self, small_params):
        spec = WorkloadSpec(poisson_arrivals=False,
                            schedule=ArrivalSchedule((constant(100.0, 2.0),)))
        outcome = repro.simulate("FUZZYCOPY", params=small_params,
                                 duration=2.0, seed=9, workload=spec)
        # exactly one arrival per unit of offered load: 0.01s, 0.02s, ...
        # (the 200th lands at t=2.0, the instant the run ends)
        assert outcome.metrics.transactions_submitted == 199
        assert outcome.metrics.offered_rate == pytest.approx(100.0)

    def test_config_accepts_spec_dict_and_name(self, small_params):
        by_name = SimulationConfig(params=small_params, workload="kv")
        assert by_name.workload == get_scenario("kv").spec
        by_dict = SimulationConfig(
            params=small_params,
            workload=get_scenario("kv").spec.to_dict())
        assert by_dict.workload == get_scenario("kv").spec
        with pytest.raises(ConfigurationError):
            SimulationConfig(params=small_params, workload="nope")

    def test_simulate_accepts_scenario_name(self):
        outcome = repro.simulate("FUZZYCOPY", scale=1024, duration=2.0,
                                 seed=1, workload="kv")
        assert outcome.config.workload.name == "kv"
        assert outcome.metrics.transactions_submitted > 0


# ---------------------------------------------------------------------------
# the sweepable scenario axis
# ---------------------------------------------------------------------------
class TestScenarioSweep:
    def test_scenario_points_product(self):
        points = scenario_points(["kv", "bank"], ["FUZZYCOPY", "COUCOPY"])
        assert len(points) == 4
        assert points[0] == {"scenario": "kv", "algorithm": "FUZZYCOPY"}

    def test_sweep_over_scenario_axis(self):
        result = repro.sweep(
            run_scenario_cell,
            points=scenario_points(["write-storm"], ["FUZZYCOPY", "COUCOPY"]),
            fixed={"scale": 1024, "seed": 7, "duration": 4.0},
            workers=1)
        values = [cell.value for cell in result]
        assert len(values) == 2
        for value in values:
            assert value["scenario"] == "write-storm"
            assert value["offered"] > 0
            assert value["served"] > 0
            assert value["clean"]
        # same workload seed => identical arrival counts across algorithms
        assert values[0]["submitted"] == values[1]["submitted"]

    def test_cell_reruns_are_byte_identical(self):
        first = run_scenario_cell(scenario="kv", algorithm="FUZZYCOPY",
                                  scale=1024, duration=3.0, seed=13)
        second = run_scenario_cell(scenario="kv", algorithm="FUZZYCOPY",
                                   scale=1024, duration=3.0, seed=13)
        assert first == second
