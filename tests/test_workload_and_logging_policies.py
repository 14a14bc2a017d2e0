"""Tests for transaction-size mixtures, flush-on-commit, and CSV export."""

from __future__ import annotations

import csv

import pytest

from tests.helpers import build_system, run_crash_recover
from repro.errors import ConfigurationError
from repro.experiments.export import export_all
from repro.params import SystemParameters
from repro.sim.rng import RandomStreams
from repro.txn.workload import WorkloadGenerator
from repro.workload.spec import WorkloadSpec


class TestUpdateCountMix:
    def _generator(self, params, spec, seed=0):
        return WorkloadGenerator(params, spec, RandomStreams(seed))

    def test_sizes_drawn_from_mixture(self, tiny_params):
        spec = WorkloadSpec(update_count_mix=((2, 1.0), (8, 1.0)))
        gen = self._generator(tiny_params, spec)
        sizes = {len(gen.make_transaction(0.0).record_ids)
                 for _ in range(200)}
        assert sizes == {2, 8}

    def test_mixture_weights_respected(self, tiny_params):
        spec = WorkloadSpec(update_count_mix=((1, 9.0), (10, 1.0)))
        gen = self._generator(tiny_params, spec)
        sizes = [len(gen.make_transaction(0.0).record_ids)
                 for _ in range(2000)]
        small_share = sizes.count(1) / len(sizes)
        assert small_share == pytest.approx(0.9, abs=0.03)

    def test_mean_update_count(self):
        spec = WorkloadSpec(update_count_mix=((1, 1.0), (9, 1.0)))
        assert spec.mean_update_count == pytest.approx(5.0)
        assert WorkloadSpec().mean_update_count is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(update_count_mix=())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(update_count_mix=((0, 1.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(update_count_mix=((2, 0.0),))

    def test_mixture_capped_at_database_size(self):
        params = SystemParameters(s_db=8192, lam=10.0)  # 256 records
        spec = WorkloadSpec(update_count_mix=((100000, 1.0),))
        gen = self._generator(params, spec)
        txn = gen.make_transaction(0.0)
        assert len(txn.record_ids) == params.n_records

    def test_recovery_correct_with_mixture(self, small_params):
        spec = WorkloadSpec(update_count_mix=((1, 2.0), (12, 1.0)))
        system = build_system(small_params, "COUCOPY", seed=61,
                              workload=spec)
        _, _, mismatches = run_crash_recover(system, 3.0)
        assert mismatches == []

    def test_wide_transactions_dominate_two_color_aborts(self, small_params):
        """The heterogeneity mechanism, observed directly: under a 1-vs-12
        update mixture, essentially every two-color abort hits a wide
        transaction (a single-record transaction cannot span colors)."""
        spec = WorkloadSpec(update_count_mix=((1, 1.0), (12, 1.0)))
        system = build_system(small_params, "2CCOPY", seed=62,
                              workload=spec, spans=True)
        widths = {}

        def note_width(txn):
            widths[txn.txn_id] = len(txn.record_ids)

        system.txn_manager.on_commit = note_width
        system.run(4.0)
        aborted_ids = {span["fields"]["txn_id"]
                       for span in system.spans_snapshot()
                       if span["name"] == "txn.backoff"}
        assert aborted_ids
        wide_aborts = sum(1 for txn_id in aborted_ids
                          if widths.get(txn_id) == 12)
        narrow_aborts = sum(1 for txn_id in aborted_ids
                            if widths.get(txn_id) == 1)
        assert narrow_aborts == 0
        assert wide_aborts > 0


class TestFlushOnCommit:
    def test_every_commit_immediately_durable(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=63,
                              log_flush_on_commit=True)
        system.run(1.0)
        assert system.log.tail_records == 0
        system.oracle.feed(system.log.drain_newly_stable())
        assert (system.oracle.durable_commits
                == system.txn_manager.stats.committed)

    def test_crash_loses_nothing_committed(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=64,
                              log_flush_on_commit=True)
        system.run(1.5)
        committed = system.txn_manager.stats.committed
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
        assert system.oracle.durable_commits == committed

    def test_group_commit_can_lose_the_tail(self, tiny_params):
        """The contrast: with a slow group commit, some commits die."""
        system = build_system(tiny_params, "FUZZYCOPY", seed=64,
                              log_flush_interval=0.8)
        system.run(1.5)
        committed = system.txn_manager.stats.committed
        system.crash()
        system.recover()
        assert system.verify_recovery() == []
        assert system.oracle.durable_commits < committed

    def test_logging_cost_charged_outside_checkpoint_metric(self, tiny_params):
        from repro.cpu.accounting import CostCategory
        system = build_system(tiny_params, "FUZZYCOPY", seed=65,
                              log_flush_on_commit=True)
        system.run(1.0)
        logged = system.ledger.by_category().get(CostCategory.LOGGING, 0)
        assert logged > 0
        assert (system.ledger.checkpoint_overhead_total()
                < system.ledger.total)


class TestCsvExport:
    def test_export_all_writes_five_files(self, tmp_path):
        written = export_all(tmp_path)
        assert len(written) == 5
        names = {p.name for p in written}
        assert names == {"fig4a.csv", "fig4b.csv", "fig4c.csv",
                         "fig4d.csv", "fig4e.csv"}

    def test_fig4a_csv_contents(self, tmp_path):
        export_all(tmp_path)
        with (tmp_path / "fig4a.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        algorithms = {row["algorithm"] for row in rows}
        assert algorithms == {"FUZZYCOPY", "2CFLUSH", "2CCOPY",
                              "COUFLUSH", "COUCOPY"}
        two_color = next(r for r in rows if r["algorithm"] == "2CCOPY")
        assert float(two_color["overhead_per_txn"]) > 40000

    def test_fig4b_csv_has_both_disk_counts(self, tmp_path):
        export_all(tmp_path)
        with (tmp_path / "fig4b.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert {row["n_bdisks"] for row in rows} == {"20", "40"}

    def test_fig4d_csv_has_both_policies(self, tmp_path):
        export_all(tmp_path)
        with (tmp_path / "fig4d.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert {row["policy"] for row in rows} == {"fixed_300s",
                                                   "min_duration"}
