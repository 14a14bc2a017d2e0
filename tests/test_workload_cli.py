"""The ``simulate`` workload flags: ``--workload FILE|-``, the skew
shorthands and ``--uniform-arrivals``.  Runs are kept short -- these
tests pin the command wiring and report shape, not simulation
statistics (that is ``test_workload_engine.py``'s job).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestSimulateWorkloadFlags:
    ARGS = ("simulate", "--scale", "1024", "--duration", "1", "--seed", "4")

    def test_workload_flag_accepts_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"distribution": "hotspot", "hot_fraction": 0.2}))
        out = run_cli(capsys, *self.ARGS, "--workload", str(spec_path))
        assert "workload             hotspot(0.2@0.8) rate=params.lam" in out
        # the offered rate is the fixed --lam (default 200/s)
        assert "offered/served       200.0 / " in out

    def test_skew_shorthands(self, capsys):
        out = run_cli(capsys, *self.ARGS, "--zipf-theta", "1.5")
        assert "zipf(theta=1.5)" in out
        out = run_cli(capsys, *self.ARGS, "--hot-fraction", "0.05",
                      "--hot-probability", "0.9")
        assert "hotspot(0.05@0.9)" in out

    def test_uniform_arrivals_overrides_the_spec_file(self, capsys,
                                                       tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"distribution": "zipf", "zipf_theta": 1.3}))
        out = run_cli(capsys, *self.ARGS, "--workload", str(spec_path),
                      "--uniform-arrivals")
        assert "zipf(theta=1.3) paced" in out

    def test_spec_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"distribution": "hotspot", "hot_fraction": 0.2})))
        out = run_cli(capsys, *self.ARGS, "--workload", "-")
        assert "hotspot(0.2@0.8)" in out

    def test_a_schedule_spec_file_is_refused(self, capsys, tmp_path):
        # a spec written for time-varying arrivals must not run at the
        # fixed rate
        spec_path = tmp_path / "burst.json"
        spec_path.write_text(json.dumps({
            "distribution": "uniform",
            "schedule": {"phases": [
                {"kind": "constant", "rate": 100.0, "duration": 2.0}]}}))
        with pytest.raises(ConfigurationError, match="'schedule'"):
            main([*self.ARGS, "--workload", str(spec_path)])

    def test_a_scenario_name_is_not_a_spec_file(self, capsys):
        with pytest.raises(FileNotFoundError):
            main([*self.ARGS, "--workload", "kv"])

    def test_conflicting_flags_fail(self, capsys):
        with pytest.raises(ConfigurationError, match="conflicts"):
            main([*self.ARGS, "--zipf-theta", "1.5", "--hot-fraction", "0.1"])

    def test_default_simulate_output_unchanged(self, capsys):
        # without workload flags there is no workload line: the legacy
        # report shape (and the underlying stream) are untouched
        out = run_cli(capsys, "simulate", "--scale", "1024",
                      "--duration", "1", "--seed", "4")
        assert "workload" not in out
        assert "offered/served" not in out
        assert "committed" in out
