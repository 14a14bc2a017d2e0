"""The observability layer's contracts.

What these tests pin down:

* histogram merging is associative and order-independent (the property
  that makes per-cell sweep telemetry safely mergeable);
* registry snapshots round-trip exactly (``from_snapshot . snapshot``
  is the identity on the serialised form);
* the tracer's ring accounting counts each eviction exactly once, and
  the JSONL event stream reloads bit-identically;
* telemetry is observational only: a fixed-seed run produces the same
  ``SimulationMetrics`` with telemetry on and off;
* a run exported to JSONL and reloaded reproduces the identical metrics
  summary (the round-trip determinism acceptance criterion);
* sweep cells carry telemetry snapshots and merge across the result.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict

import pytest

import repro
from repro.errors import ConfigurationError
from repro.obs.export import export_run, export_system_run, load_run
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeline,
)
from repro.obs.presets import PRESETS, get_preset
from repro.obs.report import render_metrics_report
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.params import SystemParameters
from repro.sim.trace import Tracer
from repro.sweep import SweepRunner, SweepSpec

from tests.helpers import build_system


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------

def _samples(seed: int, n: int = 500):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]


def test_histogram_merge_is_associative_and_order_independent():
    parts = [_samples(seed) for seed in (1, 2, 3)]
    hists = []
    for part in parts:
        hist = Histogram()
        for value in part:
            hist.observe(value)
        hists.append(hist)
    a, b, c = hists

    left = Histogram()
    left.merge(a)
    left.merge(b)
    left.merge(c)

    right = Histogram()
    right.merge(b)
    right.merge(c)
    right.merge(a)

    single = Histogram()
    for value in parts[0] + parts[1] + parts[2]:
        single.observe(value)

    assert left.buckets == right.buckets == single.buckets
    assert left.count == right.count == single.count == 1500
    assert left.min == single.min and left.max == single.max
    assert left.total == pytest.approx(single.total)
    for q in (50.0, 90.0, 99.0):
        assert left.quantile(q) == right.quantile(q) == single.quantile(q)


def test_histogram_quantiles_are_bucket_accurate():
    hist = Histogram()
    values = sorted(_samples(7, 2000))
    for value in values:
        hist.observe(value)
    # A log-bucket histogram's quantile error is bounded by the bucket
    # growth factor (~9% for the default growth of 2**0.125).
    for q in (10.0, 50.0, 90.0, 99.0):
        exact = values[min(len(values) - 1, int(q / 100.0 * len(values)))]
        assert hist.quantile(q) == pytest.approx(exact, rel=0.10)
    assert hist.quantile(0.0) == pytest.approx(hist.min)
    assert hist.quantile(100.0) == pytest.approx(hist.max)


def test_histogram_zero_and_negative_samples_use_zeros_bucket():
    hist = Histogram()
    hist.observe(0.0)
    hist.observe(-1.0)
    hist.observe(1.0)
    assert hist.count == 3
    assert hist.zeros == 2
    assert hist.quantile(10.0) <= 0.0


def test_histogram_merge_rejects_mismatched_growth():
    a = Histogram()
    b = Histogram(growth=4.0)
    with pytest.raises(ConfigurationError):
        a.merge(b)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.count("events", 3)
    registry.count("events", 2)
    registry.set_gauge("depth", 7.0)
    for value in _samples(11, 100):
        registry.observe("latency", value)
    registry.add_busy("busy", 0.1, 0.4)
    registry.add_busy("busy", 1.0, 0.25)
    return registry


def test_registry_snapshot_round_trips_exactly():
    registry = _populated_registry()
    snapshot = registry.snapshot()
    rebuilt = MetricsRegistry.from_snapshot(snapshot)
    assert rebuilt.snapshot() == snapshot
    # And the snapshot itself is plain JSON.
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_registry_merge_snapshots_adds_counters_and_histograms():
    snapshots = [_populated_registry().snapshot() for _ in range(3)]
    merged = MetricsRegistry.merge_snapshots(snapshots + [None])
    snap = merged.snapshot()
    assert snap["counters"]["events"] == 15
    assert snap["histograms"]["latency"]["count"] == 300
    assert snap["gauges"]["depth"]["value"] == 7.0


def test_timeline_splits_busy_across_windows():
    timeline = Timeline(window=1.0)
    timeline.add(0.5, 1.0)  # half in window 0, half in window 1
    util = dict(timeline.utilisation())
    assert util[0.0] == pytest.approx(0.5)
    assert util[1.0] == pytest.approx(0.5)


def test_null_telemetry_records_nothing():
    assert not NULL_TELEMETRY.enabled
    NULL_TELEMETRY.count("x")
    NULL_TELEMETRY.observe("y", 1.0)
    assert NULL_TELEMETRY.snapshot() is None
    live = Telemetry(enabled=True)
    live.count("x")
    assert live.snapshot()["counters"]["x"] == 1


# ----------------------------------------------------------------------
# tracer ring + JSONL
# ----------------------------------------------------------------------

def test_tracer_counts_each_eviction_exactly_once():
    tracer = Tracer(capacity=4, enabled=True)
    for i in range(10):
        tracer.record(float(i), "tick", index=i)
    assert tracer.recorded == 10
    assert tracer.dropped == 6
    assert len(tracer) == 4
    assert tracer.drop_rate == pytest.approx(0.6)
    assert [event.index for event in tracer] == [6, 7, 8, 9]


def test_tracer_drop_rate_is_zero_when_empty():
    assert Tracer(enabled=True).drop_rate == 0.0


def test_tracer_jsonl_round_trip(tmp_path):
    tracer = Tracer(enabled=True)
    tracer.record(0.25, "commit", txn_id=1)
    tracer.record(0.50, "abort", txn_id=2, reason="two-color")
    path = tmp_path / "events.jsonl"
    assert tracer.to_jsonl(path) == 2
    reloaded = Tracer.from_jsonl(path)
    assert list(reloaded.event_dicts()) == list(tracer.event_dicts())


# ----------------------------------------------------------------------
# telemetry never perturbs the simulation
# ----------------------------------------------------------------------

def test_fixed_seed_metrics_identical_with_telemetry_on_and_off():
    kwargs = dict(algorithm="2CCOPY", scale=1024, lam=150.0, seed=9,
                  duration=2.0)
    plain = repro.simulate(**kwargs)
    instrumented = repro.simulate(**kwargs, telemetry=True)
    assert asdict(plain.metrics) == asdict(instrumented.metrics)
    assert plain.telemetry is None
    assert instrumented.telemetry is not None
    assert instrumented.telemetry["counters"]["txn.commits"] == \
        instrumented.metrics.transactions_committed
    assert instrumented.telemetry["histograms"]["wal.flush.latency"][
        "count"] > 0
    # Spans obey the same invariant: recording them (alone or alongside
    # telemetry) must not perturb the fixed-seed run.
    spanned = repro.simulate(**kwargs, spans=True)
    both = repro.simulate(**kwargs, telemetry=True, spans=True)
    assert asdict(spanned.metrics) == asdict(plain.metrics)
    assert asdict(both.metrics) == asdict(plain.metrics)
    assert plain.spans is None
    assert spanned.spans and both.spans == spanned.spans


# ----------------------------------------------------------------------
# run export round-trip (acceptance criterion)
# ----------------------------------------------------------------------

def _run_instrumented_system(duration: float = 2.0):
    params = SystemParameters.scaled_down(1024, lam=150.0)
    system = build_system(params, "COUCOPY", seed=5,
                          telemetry=True, trace=True)
    metrics = system.run(duration)
    return system, metrics


def test_exported_run_reloads_with_identical_metrics(tmp_path):
    system, metrics = _run_instrumented_system()
    path = tmp_path / "run.jsonl"
    export_system_run(path, system, meta={"note": "round-trip"})

    record = load_run(path)
    assert record.summary == asdict(metrics)
    assert record.telemetry == system.telemetry_snapshot()
    assert record.checkpoints == [asdict(stats)
                                  for stats in system.checkpointer.history]
    assert record.meta["algorithm"] == "COUCOPY"
    assert record.meta["note"] == "round-trip"
    assert list(record.tracer.event_dicts()) == \
        list(system.tracer.event_dicts())

    # Exporting the reloaded record again produces byte-identical lines
    # (modulo the meta fields export_system_run derives from the system).
    second = tmp_path / "again.jsonl"
    export_run(second, tracer=record.tracer, summary=record.summary,
               telemetry=record.telemetry, checkpoints=record.checkpoints,
               meta=record.meta)
    assert second.read_text() == path.read_text()


def test_load_run_rejects_garbage_and_empty_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigurationError):
        load_run(empty)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"what": "is this"}\n')
    with pytest.raises(ConfigurationError):
        load_run(bad)


def test_render_metrics_report_covers_every_section():
    system, metrics = _run_instrumented_system(duration=1.0)
    text = render_metrics_report(
        summary=asdict(metrics),
        telemetry=system.telemetry_snapshot(),
        checkpoints=[asdict(stats) for stats in system.checkpointer.history],
        meta={"algorithm": "COUCOPY"})
    assert "run summary" in text
    assert "latency / size distributions" in text
    assert "checkpoint phase timings" in text
    assert "abort taxonomy" in text
    assert "txn.commit.latency" in text


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------

def _simulate_point(algorithm: str, seed: int):
    return repro.simulate(algorithm, scale=2048, lam=100.0, seed=seed,
                          duration=1.0, telemetry=True)


def test_sweep_cells_carry_and_merge_telemetry():
    spec = SweepSpec.from_grid(
        _simulate_point, {"algorithm": ["FUZZYCOPY", "COUCOPY"]},
        replicates=2, seed_arg="seed")
    result = SweepRunner(workers=1).run(spec)
    result.raise_failures()

    snapshots = result.telemetry_snapshots()
    assert len(snapshots) == 4
    merged = result.merged_telemetry().snapshot()
    expected_commits = sum(cell.value.metrics.transactions_committed
                           for cell in result)
    assert merged["counters"]["txn.commits"] == expected_commits
    assert merged["histograms"]["txn.commit.latency"]["count"] == \
        expected_commits


def test_sweep_verbose_logs_each_cell(capsys):
    spec = SweepSpec.from_grid(
        lambda x: x * 2, {"x": [1, 2, 3]})
    runner = SweepRunner(workers=1, verbose=True)
    result = runner.run(spec)
    assert result.values() == [2, 4, 6]
    err = capsys.readouterr().err
    assert "[sweep 1/3]" in err and "[sweep 3/3]" in err
    assert "failed=0" in err


# ----------------------------------------------------------------------
# presets + CLI
# ----------------------------------------------------------------------

def test_presets_build_valid_configs():
    assert "fig4b-small" in PRESETS
    for preset in PRESETS.values():
        config = preset.build_system(telemetry=True).config
        assert config.telemetry
        assert config.algorithm == preset.algorithm
    with pytest.raises(ConfigurationError):
        get_preset("no-such-preset")


def test_cli_metrics_json_and_reload(tmp_path, capsys):
    from repro.cli import main
    trace_path = tmp_path / "run.jsonl"
    assert main(["metrics", "--preset", "fuzzy-small", "--duration", "1.0",
                 "--json", "--trace-out", str(trace_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("meta", "summary", "telemetry", "checkpoints"):
        assert key in payload
    assert payload["summary"]["transactions_committed"] > 0
    assert payload["telemetry"]["counters"]["txn.commits"] == \
        payload["summary"]["transactions_committed"]

    assert main(["metrics", "--load", str(trace_path)]) == 0
    text = capsys.readouterr().out
    assert "run summary" in text
    assert "fuzzy-small" in text


def test_cli_metrics_json_satisfies_checked_in_schema(capsys):
    """The CI smoke contract: payload validates against the repo schema."""
    import importlib.util
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "check_schema", root / "scripts" / "check_schema.py")
    validator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(validator)
    schema = json.loads(
        (root / "schemas" / "metrics.schema.json").read_text())

    from repro.cli import main
    assert main(["metrics", "--preset", "fig4b-small", "--duration", "1.0",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert validator.validate(payload, schema) == []
    # And the validator does reject a broken payload.
    assert validator.validate({"meta": {}}, schema) != []


def test_cli_trace_summarises_run_and_file(tmp_path, capsys):
    from repro.cli import main
    out_path = tmp_path / "trace.jsonl"
    assert main(["trace", "--algorithm", "FUZZYCOPY", "--scale", "1024",
                 "--duration", "1.0", "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "events by kind:" in text
    assert "commit" in text

    assert main(["trace", "--load", str(out_path), "--tail", "3"]) == 0
    text = capsys.readouterr().out
    assert "events by kind:" in text
