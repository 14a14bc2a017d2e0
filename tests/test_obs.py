"""The observability layer's contracts.

What these tests pin down:

* registry snapshots round-trip exactly (``from_snapshot . snapshot``
  is the identity on the serialised form);
* telemetry is observational only: a fixed-seed run produces the same
  ``SimulationMetrics`` with telemetry on and off;
* a run saved as a run document and reloaded reproduces the identical
  metrics summary, telemetry and spans, byte for byte on a second save
  (the round-trip determinism acceptance criterion), through
  :mod:`repro.obs.export` and through the CLI (``trace --out`` /
  ``metrics --json`` -> ``metrics --load`` / ``trace --load``), and the
  document satisfies ``schemas/metrics.schema.json``;
* ``--load`` of anything that is not a run document -- an old JSONL
  export, an empty file, a directory -- is a ``ConfigurationError``
  naming the path.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict

import pytest

import repro
from repro.errors import ConfigurationError
from repro.obs.export import load_run, run_document
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    Timeline,
)
from repro.obs.presets import PRESETS, get_preset
from repro.obs.report import render_metrics_report
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.params import SystemParameters

from tests.helpers import build_system


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------

def _samples(seed: int, n: int = 500):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]


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


def test_timeline_splits_busy_across_windows():
    timeline = Timeline(window=1.0)
    timeline.add(0.5, 1.0)  # half in window 0, half in window 1
    util = dict(timeline.utilisation())
    assert util[0.0] == pytest.approx(0.5)
    assert util[1.0] == pytest.approx(0.5)


def test_null_telemetry_records_nothing():
    assert not NULL_TELEMETRY.enabled
    assert NULL_TELEMETRY.snapshot() is None
    live = Telemetry(enabled=True)
    live.registry.count("x")
    assert live.snapshot()["counters"]["x"] == 1


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
                          telemetry=True, spans=True)
    metrics = system.run(duration)
    return system, metrics


def test_exported_run_reloads_with_identical_metrics(tmp_path):
    system, metrics = _run_instrumented_system()
    path = tmp_path / "run.json"
    meta = {"algorithm": "COUCOPY", "seed": 5, "duration": 2.0,
            "note": "round-trip"}
    path.write_text(json.dumps(run_document(system, meta), sort_keys=True))

    document = load_run(path)
    assert document["summary"] == asdict(metrics)
    assert document["telemetry"] == system.telemetry_snapshot()
    assert document["checkpoints"] == [
        asdict(stats) for stats in system.checkpointer.history]
    assert document["meta"] == meta
    assert document["spans"] == system.spans_snapshot()
    assert document["spans_dropped"] == 0

    # Saving the reloaded document again produces byte-identical text.
    assert json.dumps(document, sort_keys=True) == path.read_text()


#: the two-line shape ``export_run`` wrote before the run document
_OLD_JSONL = ('{"algorithm": "COUCOPY", "seed": 5, "type": "meta"}\n'
              '{"fields": {"txn_id": 1}, "kind": "arrival", "time": 0.1}\n'
              '{"checkpoints": [], "spans": null, "summary": null, '
              '"telemetry": null, "type": "metrics"}\n')


def _not_run_documents(tmp_path):
    old = tmp_path / "old-export.jsonl"
    old.write_text(_OLD_JSONL)
    empty = tmp_path / "empty.json"
    empty.write_text("")
    wrong_shape = tmp_path / "wrong-shape.json"
    wrong_shape.write_text('{"what": "is this"}\n')
    directory = tmp_path / "a-directory"
    directory.mkdir()
    return [old, empty, wrong_shape, directory, tmp_path / "missing.json"]


def test_load_run_rejects_garbage_and_empty_files(tmp_path):
    for path in _not_run_documents(tmp_path):
        with pytest.raises(ConfigurationError, match=path.name):
            load_run(path)
    with pytest.raises(ConfigurationError, match="has to be re-exported"):
        load_run(tmp_path / "old-export.jsonl")


@pytest.mark.parametrize("command", ["metrics", "trace"])
def test_cli_load_of_a_non_document_is_a_typed_error(tmp_path, command):
    from repro.cli import main
    for path in _not_run_documents(tmp_path):
        with pytest.raises(ConfigurationError, match=path.name):
            main([command, "--load", str(path)])


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
    run = ["metrics", "--preset", "fuzzy-small", "--duration", "1.0"]
    assert main(run + ["--json"]) == 0
    saved = capsys.readouterr().out
    payload = json.loads(saved)
    assert sorted(payload) == ["checkpoints", "meta", "summary", "telemetry"]
    assert payload["summary"]["transactions_committed"] > 0
    assert payload["telemetry"]["counters"]["txn.commits"] == \
        payload["summary"]["transactions_committed"]

    # ``metrics --json > file`` is a run document: reloading it renders
    # exactly what the direct run renders, as text and as JSON.
    path = tmp_path / "metrics.json"
    path.write_text(saved)
    assert main(run) == 0
    direct_text = capsys.readouterr().out
    assert "run summary" in direct_text and "fuzzy-small" in direct_text
    assert main(["metrics", "--load", str(path)]) == 0
    assert capsys.readouterr().out == direct_text
    assert main(["metrics", "--load", str(path), "--json"]) == 0
    assert capsys.readouterr().out == saved


def _schema_violations(document):
    """``scripts/check_schema.py`` against ``schemas/metrics.schema.json``."""
    import importlib.util
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "check_schema", root / "scripts" / "check_schema.py")
    validator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(validator)
    schema = json.loads(
        (root / "schemas" / "metrics.schema.json").read_text())
    return validator.validate(document, schema)


def test_cli_metrics_json_satisfies_checked_in_schema(capsys):
    """The CI smoke contract: payload validates against the repo schema."""
    from repro.cli import main
    assert main(["metrics", "--preset", "fig4b-small", "--duration", "1.0",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert _schema_violations(payload) == []
    # And the validator does reject a broken payload.
    assert _schema_violations({"meta": {}}) != []
    payload["spans"] = [{"name": "txn"}]
    assert _schema_violations(payload) != []


def test_cli_trace_summarises_run_and_file(tmp_path, capsys):
    from repro.cli import main
    out_path = tmp_path / "run.json"
    assert main(["trace", "--algorithm", "FUZZYCOPY", "--scale", "1024",
                 "--duration", "1.0", "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "spans recorded, 0 dropped" in text
    assert "spans by name:" in text
    assert "last 20 spans" in text
    assert "\n  txn  " in text and "\n  ckpt.io  " in text

    assert main(["trace", "--load", str(out_path)]) == 0
    assert capsys.readouterr().out == text
    assert main(["trace", "--load", str(out_path), "--tail", "3"]) == 0
    assert "last 3 spans" in capsys.readouterr().out


def test_cli_run_document_round_trip(tmp_path, capsys):
    """One run file: ``trace --out`` writes what the schema describes,
    and both ``--load`` readers reproduce the direct run from it."""
    from repro.cli import main
    run = ["--algorithm", "2CCOPY", "--scale", "1024", "--seed", "9",
           "--duration", "1.0"]
    out_path = tmp_path / "run.json"
    chrome_direct = tmp_path / "direct.chrome.json"
    assert main(["trace", *run, "--out", str(out_path), "--attribution",
                 "--chrome-out", str(chrome_direct), "--tail", "4"]) == 0
    direct_trace = capsys.readouterr().out
    document = json.loads(out_path.read_text())
    assert _schema_violations(document) == []
    assert document["spans"] and document["spans_dropped"] == 0

    for extra in ([], ["--json"]):
        assert main(["metrics", *run, *extra]) == 0
        direct = capsys.readouterr().out
        assert main(["metrics", "--load", str(out_path), *extra]) == 0
        assert capsys.readouterr().out == direct

    chrome_loaded = tmp_path / "loaded.chrome.json"
    assert main(["trace", "--load", str(out_path), "--attribution",
                 "--chrome-out", str(chrome_loaded), "--tail", "4"]) == 0
    assert capsys.readouterr().out == direct_trace
    assert "checkpoint-stall attribution (2CCOPY)" in direct_trace
    # (the saved document sorts its keys, so compare the parsed traces)
    assert json.loads(chrome_loaded.read_text()) == \
        json.loads(chrome_direct.read_text())
