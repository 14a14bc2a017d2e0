"""Tests for the CLI, the ASCII plotter, and the experiment renderers."""

from __future__ import annotations

import pytest

from repro.checkpoint.registry import ALL_ALGORITHM_NAMES
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments import (
    ablations,
    extensions,
    fig4a,
    fig4b,
    fig4c,
    fig4d,
    fig4e,
    tables,
)
from repro.experiments.ascii_plot import AsciiPlot


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCliCommands:
    def test_tables(self, capsys):
        out = run_cli(capsys, "tables")
        for fragment in ("Table 2a", "Table 2b", "Table 2c", "Table 2d",
                         "C_lock", "N_bdisks", "S_seg", "C_trans"):
            assert fragment in out

    def test_figures_single(self, capsys):
        out = run_cli(capsys, "figures", "4a")
        assert "Figure 4a" in out
        assert "FUZZYCOPY" in out and "2CCOPY" in out

    def test_figures_all(self, capsys):
        out = run_cli(capsys, "figures", "all")
        for name in ("Figure 4a", "Figure 4b", "Figure 4c", "Figure 4d",
                     "Figure 4e"):
            assert name in out

    def test_figures_plot(self, capsys):
        out = run_cli(capsys, "figures", "4c", "--plot")
        assert "legend:" in out
        assert "FUZZYCOPY" in out

    def test_evaluate(self, capsys):
        out = run_cli(capsys, "evaluate", "--algorithm", "coucopy")
        assert "COUCOPY" in out
        assert "overhead_per_txn" in out
        assert "recovery_time" in out

    def test_evaluate_with_overrides(self, capsys):
        base = run_cli(capsys, "evaluate", "--algorithm", "2CCOPY")
        fast = run_cli(capsys, "evaluate", "--algorithm", "2CCOPY",
                       "--disks", "40")
        assert base != fast

    def test_evaluate_stable_tail_enables_fastfuzzy(self, capsys):
        out = run_cli(capsys, "evaluate", "--algorithm", "FASTFUZZY",
                      "--stable-tail")
        assert "FASTFUZZY" in out

    def test_simulate_with_crash(self, capsys):
        out = run_cli(capsys, "simulate", "--algorithm", "COUCOPY",
                      "--duration", "2", "--scale", "1024", "--lam", "100",
                      "--crash")
        assert "committed" in out
        assert "oracle" in out and "PASS" in out

    def test_simulate_extension_algorithm(self, capsys):
        out = run_cli(capsys, "simulate", "--algorithm", "NAIVELOCK",
                      "--duration", "1", "--scale", "1024", "--lam", "100")
        assert "NAIVELOCK" in out

    def test_ablations(self, capsys):
        out = run_cli(capsys, "ablations")
        assert "dirty_window" in out and "t_seek" in out

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parser_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "4z"])


#: every command that builds and runs one testbed system
RUN_COMMANDS = {
    "simulate": ("simulate", "--crash"),
    "workload-run": ("workload", "run", "--scenario", "kv", "--crash"),
    "metrics": ("metrics", "--json"),
    "trace": ("trace", "--attribution"),
    "faults": ("faults", "--crash-at", "0.3", "--torn-writes"),
}


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_every_run_command_accepts_every_algorithm(capsys, command,
                                                   algorithm):
    """One assembler, so no command is missing an algorithm's recipe
    (FASTFUZZY's stable log tail used to reach only some of them)."""
    out = run_cli(capsys, *RUN_COMMANDS[command], "--algorithm", algorithm,
                  "--scale", "2048", "--duration", "0.5")
    assert algorithm in out
    assert "FAIL" not in out


class TestAsciiPlot:
    def test_basic_render(self):
        plot = AsciiPlot(title="demo", x_label="x", y_label="y")
        plot.add_series("line", [(0, 0), (1, 1), (2, 4)])
        out = plot.render()
        assert "demo" in out
        assert "legend: o=line" in out
        assert "o" in out

    def test_multiple_series_get_distinct_glyphs(self):
        plot = AsciiPlot()
        plot.add_series("a", [(0, 0), (1, 1)])
        plot.add_series("b", [(0, 1), (1, 0)])
        out = plot.render()
        assert "o=a" in out and "x=b" in out

    def test_log_axes(self):
        plot = AsciiPlot(log_x=True, log_y=True)
        plot.add_series("s", [(1, 10), (100, 1000)])
        out = plot.render()
        assert "[log y]" not in out  # labels only shown with axis labels
        plot2 = AsciiPlot(log_y=True, x_label="x", y_label="y")
        plot2.add_series("s", [(1, 10), (100, 1000)])
        assert "[log y]" in plot2.render()

    def test_log_axis_rejects_nonpositive(self):
        plot = AsciiPlot(log_y=True)
        plot.add_series("s", [(0, 0), (1, 1)])
        with pytest.raises(ConfigurationError):
            plot.render()

    def test_empty_plot_rejected(self):
        with pytest.raises(ConfigurationError):
            AsciiPlot().render()

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ConfigurationError):
            AsciiPlot(width=5, height=2)

    def test_constant_series_renders(self):
        plot = AsciiPlot()
        plot.add_series("flat", [(0, 5), (1, 5), (2, 5)])
        assert "flat" in plot.render()


class TestExperimentRenderers:
    """Every render() produces a non-trivial table (smoke + content)."""

    def test_fig4a_render(self):
        out = fig4a.render()
        assert "Figure 4a" in out and "COUFLUSH" in out

    def test_fig4b_render(self):
        out = fig4b.render()
        assert "20 disks" in out and "40 disks" in out

    def test_fig4c_render(self):
        out = fig4c.render()
        assert "lam (tps)" in out

    def test_fig4d_render(self):
        out = fig4d.render()
        assert "dotted" in out and "solid" in out

    def test_fig4e_render(self):
        out = fig4e.render()
        assert "FASTFUZZY" in out

    def test_tables_render(self):
        out = tables.render()
        assert out.count("Table 2") == 4

    def test_ablations_render(self):
        out = ablations.render()
        assert "restart_log_bulk" in out

    def test_ablation_shapes(self):
        by_key = {(row.ablation, row.setting, row.algorithm): row
                  for row in ablations.all_ablations()}
        # Restart log bulk only affects recovery time (via log volume).
        none = by_key[("restart_log_bulk", "fraction=0.0", "2CCOPY")]
        full = by_key[("restart_log_bulk", "fraction=1.0", "2CCOPY")]
        assert full.recovery_time > none.recovery_time
        assert full.overhead_per_txn == none.overhead_per_txn
        # Full checkpoints never cost less than partial ones.
        for algorithm in ("FUZZYCOPY", "2CFLUSH", "COUCOPY"):
            partial = by_key[("scope", "partial", algorithm)]
            fully = by_key[("scope", "full", algorithm)]
            assert fully.overhead_per_txn >= 0.95 * partial.overhead_per_txn
        # Longer seeks stretch the checkpoint, hence recovery time.
        assert (by_key[("t_seek", "50 ms", "COUCOPY")].recovery_time
                > by_key[("t_seek", "10 ms", "COUCOPY")].recovery_time)
        # Ping-pong (2-interval) vs single-interval staleness barely
        # matters at the default load: everything is dirty either way.
        for algorithm in ("FUZZYCOPY", "COUCOPY"):
            one = by_key[("dirty_window", "1 interval(s)", algorithm)]
            two = by_key[("dirty_window", "2 interval(s)", algorithm)]
            assert (abs(one.overhead_per_txn - two.overhead_per_txn)
                    < 0.1 * two.overhead_per_txn)

    def test_extensions_spectrum(self):
        points = extensions.consistency_spectrum()
        by_name = {p.algorithm: p for p in points}
        assert (by_name["ACFLUSH"].overhead_per_txn
                < by_name["FUZZYCOPY"].overhead_per_txn)
        # AC is within a lock pair of fuzzy, far below the two-color family.
        assert (by_name["ACCOPY"].overhead_per_txn
                < 1.05 * by_name["FUZZYCOPY"].overhead_per_txn)
        assert (by_name["ACCOPY"].overhead_per_txn
                < 0.1 * by_name["2CCOPY"].overhead_per_txn)

    def test_extensions_latency_profile(self):
        by_name = {row.algorithm: row for row in extensions.latency_profile()}
        naive = by_name["NAIVELOCK"]
        polite = by_name["COUCOPY"]
        # "Unacceptably frequent and long lock delays", quantified:
        assert naive.lock_waits > 100
        assert naive.mean_response_ms > 100 * max(0.01,
                                                  polite.mean_response_ms)
        assert naive.aborts == 0
