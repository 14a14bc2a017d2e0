"""The componentized simulation core: ports, builder, storage backends.

Three seams introduced by the componentization, each locked by tests:

* :mod:`repro.sim.ports` -- the default components structurally satisfy
  their protocols (and the protocols stay minimal);
* :class:`repro.sim.builder.SystemBuilder` -- any slot can be replaced
  by a fake without touching the rest of the wiring, and the built
  system behaves identically to ``SimulatedSystem(config)``;
* :mod:`repro.storage.backends` -- the file-backed backend is a drop-in
  replacement for the in-memory one, surviving crash + recovery.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import build_system, run_crash_recover
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.sim import ports
from repro.sim.builder import SystemBuilder, SystemComponents
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.storage.backends import (
    FileStorageBackend,
    InMemoryStorageBackend,
    create_backend_factory,
    storage_backend_names,
)


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
            (system.backup.images[0].backend, ports.StorageBackend),
            (system.log, ports.LogDevice),
            (system.backup, ports.BackupTarget),
            (system.checkpointer, ports.CheckpointerPort),
            (system.workload, ports.WorkloadSource),
            (system.faults, ports.FaultHook),
            (system.telemetry, ports.TelemetrySink),
        ]
        for component, port in conformance:
            assert ports.missing_methods(component, port) == [], (
                f"{type(component).__name__} does not satisfy "
                f"{port.__name__}")
            assert isinstance(component, port)

    def test_missing_methods_reports_gaps(self):
        class HalfABackend:
            name = "half"

            def write_segment(self, index, data):
                pass

        gaps = ports.missing_methods(HalfABackend(), ports.StorageBackend)
        assert "read_segment" in gaps
        assert "wipe" in gaps
        assert "write_segment" not in gaps


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


class RecordingBackend(InMemoryStorageBackend):
    """A fake StorageBackend that counts the segment writes it lands."""

    def __init__(self, params, image_index):
        super().__init__(params)
        self.image_index = image_index
        self.segment_writes = 0

    def write_segment(self, segment_index, data):
        self.segment_writes += 1
        super().write_segment(segment_index, data)


class TestSystemBuilder:
    def test_unknown_slot_is_rejected(self, small_params):
        builder = SystemBuilder(_config(small_params))
        with pytest.raises(ConfigurationError, match="unknown component slot"):
            builder.with_component("databaze", object())

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
        system = build_system(small_params, seed=1)
        for name in SystemComponents.slot_names():
            assert getattr(system, name) is getattr(system.components, name)

    def test_fake_telemetry_sink_is_used(self, small_params):
        sink = RecordingTelemetry()
        system = (SystemBuilder(_config(small_params, seed=2))
                  .with_component("telemetry", sink)
                  .build())
        assert system.telemetry is sink
        system.run(1.0)
        assert sink.events, "instrumented components never hit the sink"
        assert system.telemetry_snapshot() == sink.snapshot()

    def test_fake_storage_backend_is_used(self, small_params):
        backends = {}

        def factory(image_index):
            backend = RecordingBackend(small_params, image_index)
            backends[image_index] = backend
            return backend

        system = (SystemBuilder(_config(small_params, seed=4))
                  .with_storage_backend(factory)
                  .build())
        assert sorted(backends) == [0, 1]
        for index, backend in backends.items():
            assert system.backup.image(index).backend is backend
        _, _, mismatches = run_crash_recover(system, 2.0)
        assert mismatches == []
        assert sum(b.segment_writes for b in backends.values()) > 0

    def test_substituted_run_matches_default_run(self, small_params):
        """A recording backend must not perturb the simulation."""
        default = build_system(small_params, seed=5)
        substituted = (SystemBuilder(_config(small_params, seed=5))
                       .with_storage_backend(
                           lambda i: RecordingBackend(small_params, i))
                       .build())
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


# ---------------------------------------------------------------------------
# storage backends
# ---------------------------------------------------------------------------
class TestStorageBackends:
    def test_registry_names(self):
        names = storage_backend_names()
        assert "memory" in names and "file" in names

    def test_unknown_backend_is_rejected(self, small_params):
        with pytest.raises(ConfigurationError, match="unknown storage"):
            create_backend_factory("punchcards", small_params)

    def test_file_backend_round_trip(self, small_params, tmp_path):
        backend = FileStorageBackend(small_params,
                                     tmp_path / "image0.img")
        data = np.arange(small_params.records_per_segment, dtype=np.int64)
        backend.write_segment(1, data)
        np.testing.assert_array_equal(backend.read_segment(1), data)
        backend.close()
        # A fresh backend over the same path sees the durable bytes --
        # the property the in-memory backend only simulates.
        reopened = FileStorageBackend(small_params,
                                      tmp_path / "image0.img")
        np.testing.assert_array_equal(reopened.read_segment(1), data)
        reopened.close()

    def test_file_backend_torn_prefix(self, small_params, tmp_path):
        backend = FileStorageBackend(small_params, tmp_path / "torn.img")
        data = np.full(small_params.records_per_segment, 9, dtype=np.int64)
        backend.write_segment(0, data)
        backend.write_prefix(0, data[:3] * 0)
        stored = backend.read_segment(0)
        assert list(stored[:3]) == [0, 0, 0]
        assert all(stored[3:] == 9)
        backend.close()

    def test_config_selects_file_backend(self, small_params, tmp_path):
        system = build_system(small_params, "COUCOPY", seed=11,
                              storage_backend="file",
                              storage_dir=str(tmp_path))
        assert system.backup.image(0).backend.name == "file"
        assert (tmp_path / "image0.img").exists()
        assert (tmp_path / "image1.img").exists()
        _, _, mismatches = run_crash_recover(system, 2.0)
        assert mismatches == []

    def test_file_backend_matches_memory_backend(self, small_params,
                                                 tmp_path):
        """Same seed, different medium: identical simulation results."""
        memory = build_system(small_params, seed=12)
        file_backed = build_system(small_params, seed=12,
                                   storage_backend="file",
                                   storage_dir=str(tmp_path))
        m1, _, mis1 = run_crash_recover(memory, 2.0)
        m2, _, mis2 = run_crash_recover(file_backed, 2.0)
        assert m1 == m2
        assert mis1 == mis2 == []
