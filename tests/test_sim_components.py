"""The componentized simulation core: ports and builder.

Two seams introduced by the componentization, each locked by tests:

* :mod:`repro.sim.ports` -- the default components structurally satisfy
  their protocols (and the protocols stay minimal);
* :class:`repro.sim.builder.SystemBuilder` -- a subclass that overrides
  one ``build_*`` method replaces that component with a fake without
  touching the rest of the wiring, the built system behaves identically
  to ``SimulatedSystem(config)``, and the checkpointer's
  :class:`~repro.sim.ports.ImageWriter` is its only path to the backup
  disks.
"""

from __future__ import annotations

import pytest

from tests.helpers import build_system, run_crash_recover
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.sim import ports
from repro.sim.builder import COMPONENTS, SystemBuilder
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.storage.array import SimulatedImageWriter


def _config(params, algorithm="FUZZYCOPY", seed=1, **overrides):
    return SimulationConfig(params=params, algorithm=algorithm, seed=seed,
                            policy=CheckpointPolicy(interval=None),
                            preload_backup=True, **overrides)


# ---------------------------------------------------------------------------
# ports: the defaults satisfy their protocols
# ---------------------------------------------------------------------------
class TestPorts:
    def test_default_components_satisfy_ports(self, small_params):
        system = build_system(small_params, seed=1)
        conformance = [
            (system.checkpointer.writer, ports.ImageWriter),
            (system.log, ports.LogDevice),
            (system.backup, ports.BackupTarget),
            (system.checkpointer, ports.CheckpointerPort),
            (system.workload, ports.WorkloadSource),
            (FaultInjector(FaultPlan()), ports.FaultHook),
            (system.telemetry, ports.TelemetrySink),
        ]
        for component, port in conformance:
            assert ports.missing_methods(component, port) == [], (
                f"{type(component).__name__} does not satisfy "
                f"{port.__name__}")
            assert isinstance(component, port)

    def test_missing_methods_reports_gaps(self):
        class HalfABackup:
            images = ()

            def crash(self):
                pass

        gaps = ports.missing_methods(HalfABackup(), ports.BackupTarget)
        assert "latest_complete_image" in gaps
        assert "media_failure" in gaps
        assert "crash" not in gaps


# ---------------------------------------------------------------------------
# builder: substitution and equivalence
# ---------------------------------------------------------------------------
class RecordingRegistry(MetricsRegistry):
    """A registry that remembers every metric name it was fed."""

    def __init__(self):
        super().__init__()
        self.events = []

    def count(self, name, n=1):
        self.events.append(("count", name))
        super().count(name, n)

    def observe(self, name, value):
        self.events.append(("observe", name))
        super().observe(name, value)


class RecordingTelemetry:
    """A fake TelemetrySink (enabled + registry + snapshot, per the port).

    Instrumented call sites guard on ``enabled`` and talk to
    ``registry`` directly, so recording happens in the registry.
    """

    def __init__(self):
        self.enabled = True
        self.registry = RecordingRegistry()

    @property
    def events(self):
        return self.registry.events

    def snapshot(self):
        return self.registry.snapshot()


class RecordingWriter(SimulatedImageWriter):
    """A fake ImageWriter that records the segment writes it carries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued = []
        self.completed = 0

    def write(self, image, index, data, data_timestamp, done):
        self.issued.append((image.index, index))

        def completed():
            self.completed += 1
            done()

        super().write(image, index, data, data_timestamp, completed)


class RecordingWriterBuilder(SystemBuilder):
    def build_image_writer(self):
        self.writer = RecordingWriter(self.array, self.engine,
                                      faults=self.faults)
        return self.writer


class RecordingTelemetryBuilder(SystemBuilder):
    def build_telemetry(self):
        return RecordingTelemetry()


class TestSystemBuilder:
    def test_builder_build_matches_direct_construction(self, small_params):
        direct = SimulatedSystem(_config(small_params, seed=3))
        built = SystemBuilder(_config(small_params, seed=3)).build()
        m1, _, mis1 = run_crash_recover(direct, 2.0)
        m2, _, mis2 = run_crash_recover(built, 2.0)
        assert m1 == m2
        assert mis1 == mis2 == []

    def test_sim_package_exports_kernel_lazily(self):
        import repro.sim as sim
        assert sim.SimulatedSystem is SimulatedSystem
        assert sim.SystemBuilder is SystemBuilder
        assert "SimulationConfig" in dir(sim)

    def test_component_record_covers_every_attribute(self, small_params):
        """The system's components are the builder's, one per name."""
        builder = SystemBuilder(_config(small_params, seed=1))
        system = builder.build()
        for name in COMPONENTS:
            assert getattr(system, name) is getattr(builder, name)

    def test_fake_telemetry_sink_is_used(self, small_params):
        builder = RecordingTelemetryBuilder(_config(small_params, seed=2))
        system = builder.build()
        sink = builder.telemetry
        assert isinstance(sink, RecordingTelemetry)
        assert system.telemetry is sink
        # later factories found the override on the builder
        assert system.log.telemetry is system.array.telemetry is sink
        system.run(1.0)
        assert sink.events, "instrumented components never hit the sink"
        assert system.telemetry_snapshot() == sink.snapshot()

    def test_fake_image_writer_is_used(self, small_params):
        builder = RecordingWriterBuilder(_config(small_params, seed=4))
        system = builder.build()
        writer = builder.writer
        assert system.checkpointer.writer is writer
        _, _, mismatches = run_crash_recover(system, 2.0)
        assert mismatches == []
        # Every segment write of the run went through the port, into
        # both images, and every completion came back through ``done``.
        assert {image for image, _ in writer.issued} == {0, 1}
        flushed = sum(stats.segments_flushed
                      for stats in system.checkpointer.history)
        assert 0 < flushed <= writer.completed <= len(writer.issued)
        assert system.array.requests == len(writer.issued)

    def test_substituted_run_matches_default_run(self, small_params):
        """A recording writer must not perturb the simulation."""
        default = build_system(small_params, seed=5)
        substituted = RecordingWriterBuilder(
            _config(small_params, seed=5)).build()
        m1, _, mis1 = run_crash_recover(default, 2.0)
        m2, _, mis2 = run_crash_recover(substituted, 2.0)
        assert m1 == m2
        assert mis1 == mis2 == []


# ---------------------------------------------------------------------------
# behaviour preservation: fixed seed => identical outcomes
# ---------------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["FUZZYCOPY", "2CCOPY", "COUCOPY"])
    def test_fixed_seed_runs_are_identical(self, small_params, algorithm):
        outcomes = []
        for _ in range(2):
            system = build_system(small_params, algorithm, seed=7)
            metrics, result, mismatches = run_crash_recover(system, 2.0)
            outcomes.append((metrics, result.used_checkpoint_id,
                             result.transactions_replayed, mismatches))
        assert outcomes[0] == outcomes[1]
