"""Tests for the CPU-capacity model and the report generator."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.capacity import capacity_table
from repro.experiments.report import generate_report
from repro.model.utilization import cpu_utilization, throughput_capacity
from repro.params import PAPER_DEFAULTS


class TestCpuUtilization:
    def test_transaction_cpu_rate(self, paper_params):
        util = cpu_utilization("COUCOPY", paper_params, mips=50.0)
        assert (util.transaction_instructions_per_second
                == paper_params.lam * paper_params.c_trans)

    def test_checkpoint_share_between_zero_and_one(self, paper_params):
        util = cpu_utilization("COUCOPY", paper_params, mips=50.0)
        assert 0 < util.checkpoint_share < 1

    def test_utilization_increases_with_load(self, paper_params):
        low = cpu_utilization("COUCOPY", paper_params.replace(lam=100),
                              mips=50.0)
        high = cpu_utilization("COUCOPY", paper_params.replace(lam=1500),
                               mips=50.0)
        assert high.utilization > low.utilization

    def test_infeasible_configuration_flagged(self, paper_params):
        util = cpu_utilization("2CCOPY", paper_params.replace(lam=3000),
                               mips=10.0)
        assert not util.feasible
        assert util.utilization > 1.0

    def test_mips_validation(self, paper_params):
        with pytest.raises(ConfigurationError):
            cpu_utilization("COUCOPY", paper_params, mips=0.0)
        with pytest.raises(ConfigurationError):
            throughput_capacity("COUCOPY", paper_params, mips=-1.0)


class TestThroughputCapacity:
    def test_capacity_below_ideal(self, paper_params):
        ideal = 50e6 / paper_params.c_trans
        capacity = throughput_capacity("COUCOPY", paper_params, mips=50.0)
        assert 0 < capacity < ideal

    def test_capacity_is_the_saturation_point(self, paper_params):
        capacity = throughput_capacity("COUCOPY", paper_params, mips=50.0)
        from repro.model.duration import minimum_duration
        interval = minimum_duration(paper_params)
        just_under = cpu_utilization(
            "COUCOPY", paper_params.replace(lam=capacity * 0.999),
            mips=50.0, interval=interval)
        just_over = cpu_utilization(
            "COUCOPY", paper_params.replace(lam=capacity * 1.01),
            mips=50.0, interval=interval)
        assert just_under.utilization <= 1.0
        assert just_over.utilization > 1.0

    def test_capacity_scales_with_mips(self, paper_params):
        small = throughput_capacity("COUCOPY", paper_params, mips=25.0)
        large = throughput_capacity("COUCOPY", paper_params, mips=100.0)
        assert large > 3 * small

    def test_two_color_costs_two_thirds_of_the_machine(self, paper_params):
        """At saturation the two-color algorithms run every transaction
        ~3x (two reruns), so they reach only ~1/3 of ideal throughput."""
        ideal = 50e6 / paper_params.c_trans
        two_color = throughput_capacity("2CCOPY", paper_params, mips=50.0)
        assert 0.25 * ideal < two_color < 0.40 * ideal

    def test_fastfuzzy_nearly_ideal(self, paper_params):
        params = paper_params.replace(stable_log_tail=True)
        ideal = 50e6 / params.c_trans
        capacity = throughput_capacity("FASTFUZZY", params, mips=50.0)
        assert capacity > 0.97 * ideal


class TestCapacityTable:
    @pytest.fixture(scope="class")
    def points(self):
        return {p.algorithm: p for p in capacity_table(PAPER_DEFAULTS)}

    def test_ordering_matches_overheads(self, points):
        assert (points["FASTFUZZY"].max_throughput
                > points["FUZZYCOPY"].max_throughput
                > points["2CCOPY"].max_throughput)

    def test_cou_and_fuzzy_close(self, points):
        assert points["COUCOPY"].max_throughput == pytest.approx(
            points["FUZZYCOPY"].max_throughput, rel=0.05)

    def test_checkpoint_share_dominates_for_two_color(self, points):
        assert points["2CCOPY"].checkpoint_share_at_capacity > 0.5
        assert points["FASTFUZZY"].checkpoint_share_at_capacity < 0.05

    def test_instruction_gap_becomes_a_capacity_gap(self, points):
        """The paper's 15x instruction gap is a ~3x capacity gap."""
        ideal = 50e6 / PAPER_DEFAULTS.c_trans
        assert points["FASTFUZZY"].max_throughput > 0.97 * ideal
        assert points["COUCOPY"].max_throughput > 0.90 * ideal
        assert points["2CCOPY"].max_throughput < 0.40 * ideal


class TestReportGenerator:
    def test_fast_report_contents(self, tmp_path):
        path = generate_report(tmp_path, include_simulations=False)
        text = path.read_text()
        for fragment in ("Table 2a", "Figure 4a", "Figure 4e",
                         "Throughput capacity", "ablations"):
            assert fragment in text
        assert (tmp_path / "csv" / "fig4c.csv").exists()
        # Simulation sections skipped in fast mode.
        assert "Model vs testbed" not in text

    def test_cli_report_fast(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path), "--fast"]) == 0
        out = capsys.readouterr().out
        assert "REPORT.md" in out
        assert (tmp_path / "REPORT.md").exists()

    def test_cli_capacity(self, capsys):
        assert main(["capacity", "--mips", "25"]) == 0
        out = capsys.readouterr().out
        assert "25-MIPS" in out
        assert "FASTFUZZY" in out
