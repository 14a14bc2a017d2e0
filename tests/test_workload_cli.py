"""CLI surface of the workload engine.

``repro workload list/describe/run/sweep`` plus the new ``simulate``
workload flags (``--workload``, the skew shorthands,
``--uniform-arrivals``).  Runs are kept short -- these tests pin the
command wiring and report shape, not simulation statistics (that is
``test_workload_engine.py``'s job).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.workload import WorkloadSpec, get_scenario, scenario_names


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestWorkloadList:
    def test_lists_every_registered_scenario(self, capsys):
        out = run_cli(capsys, "workload", "list")
        for name in scenario_names():
            assert name in out
        assert "write-storm" in out and "spike" in out

    def test_json_catalog_round_trips(self, capsys):
        catalog = json.loads(run_cli(capsys, "workload", "list", "--json"))
        assert [entry["name"] for entry in catalog] == list(scenario_names())
        # every listed spec is strict-deserialisable
        for entry in catalog:
            WorkloadSpec.from_dict(entry["spec"])


class TestWorkloadDescribe:
    def test_text_description(self, capsys):
        out = run_cli(capsys, "workload", "describe", "write-storm")
        assert "write-storm" in out
        assert "schedule" in out
        assert "offered/cycle" in out
        assert "2700" in out  # 150*2 + (150*4 + 750*2) + 150*2

    def test_json_is_the_scenario_dict(self, capsys):
        payload = json.loads(
            run_cli(capsys, "workload", "describe", "kv", "--json"))
        assert payload["name"] == "kv"
        assert WorkloadSpec.from_dict(payload["spec"]) == \
            get_scenario("kv").spec

    def test_unknown_scenario_fails(self, capsys):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            main(["workload", "describe", "no-such-load"])


class TestWorkloadRun:
    def test_run_scenario_reports_offered_vs_served(self, capsys):
        out = run_cli(capsys, "workload", "run", "--scenario", "kv",
                      "--duration", "2", "--seed", "7")
        assert "kv under COUCOPY" in out
        assert "offered" in out and "served" in out
        assert "submitted" in out

    def test_run_crash_verifies_recovery(self, capsys):
        out = run_cli(capsys, "workload", "run", "--scenario", "write-storm",
                      "--duration", "4", "--seed", "7", "--crash",
                      "--algorithm", "FUZZYCOPY")
        assert "crash+recover" in out
        assert "PASS" in out and "FAIL" not in out

    def test_run_json_payload(self, capsys):
        payload = json.loads(run_cli(
            capsys, "workload", "run", "--scenario", "kv",
            "--duration", "2", "--seed", "3", "--json"))
        assert payload["workload"]["name"] == "kv"
        assert payload["offered"] == pytest.approx(600.0)
        assert payload["arrivals"] == payload["summary"][
            "transactions_submitted"]
        assert payload["clean"] is True

    def test_run_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "burst.json"
        spec_path.write_text(json.dumps({
            "distribution": "uniform",
            "schedule": {"phases": [
                {"kind": "constant", "rate": 100.0, "duration": 2.0}]},
            "name": "burst",
        }))
        out = run_cli(capsys, "workload", "run", "--spec", str(spec_path),
                      "--duration", "2", "--seed", "1")
        assert "burst under COUCOPY" in out

    def test_run_requires_exactly_one_designator(self, capsys):
        with pytest.raises(ConfigurationError, match="exactly one"):
            main(["workload", "run"])
        with pytest.raises(ConfigurationError, match="exactly one"):
            main(["workload", "run", "--scenario", "kv", "--spec", "x.json"])


class TestWorkloadSweep:
    def test_sweep_table(self, capsys):
        out = run_cli(capsys, "workload", "sweep",
                      "--scenarios", "kv,write-storm",
                      "--algorithms", "FUZZYCOPY",
                      "--duration", "2", "--seed", "5",
                      "--workers", "1", "--no-cache")
        assert "2 scenarios x 1 algorithms = 2 cells" in out
        assert "kv" in out and "write-storm" in out
        assert "offered/s" in out and "served/s" in out

    def test_sweep_json_cells(self, capsys):
        payload = json.loads(run_cli(
            capsys, "workload", "sweep", "--scenarios", "kv",
            "--algorithms", "FUZZYCOPY,COUCOPY", "--duration", "2",
            "--seed", "5", "--workers", "1", "--no-cache", "--json"))
        assert payload["sweep_failures"] == []
        cells = payload["cells"]
        assert [cell["algorithm"] for cell in cells] == \
            ["FUZZYCOPY", "COUCOPY"]
        for cell in cells:
            assert cell["scenario"] == "kv"
            assert cell["offered"] > 0 and cell["served"] > 0


class TestSimulateWorkloadFlags:
    ARGS = ("simulate", "--scale", "1024", "--duration", "1", "--seed", "4")

    def test_workload_flag_accepts_scenario_name(self, capsys):
        out = run_cli(capsys, *self.ARGS, "--workload", "kv")
        assert "workload" in out
        assert "offered/served" in out
        assert "zipf(theta=1.3)" in out

    def test_workload_flag_accepts_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"distribution": "hotspot", "hot_fraction": 0.2}))
        out = run_cli(capsys, *self.ARGS, "--workload", str(spec_path))
        assert "hotspot(0.2@0.8)" in out

    def test_skew_shorthands(self, capsys):
        out = run_cli(capsys, *self.ARGS, "--zipf-theta", "1.5")
        assert "zipf(theta=1.5)" in out
        out = run_cli(capsys, *self.ARGS, "--hot-fraction", "0.05",
                      "--hot-probability", "0.9")
        assert "hotspot(0.05@0.9)" in out

    def test_uniform_arrivals_overrides_scenario(self, capsys):
        out = run_cli(capsys, *self.ARGS, "--workload", "kv",
                      "--uniform-arrivals")
        assert "paced" in out

    def test_scenario_name_wins_over_a_same_named_directory(
            self, capsys, tmp_path, monkeypatch):
        # `mkdir kv` in the working directory must not turn the
        # registered scenario into an unreadable "spec file".
        (tmp_path / "kv").mkdir()
        monkeypatch.chdir(tmp_path)
        out = run_cli(capsys, *self.ARGS, "--workload", "kv")
        assert "zipf(theta=1.3)" in out

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
