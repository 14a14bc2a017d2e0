"""The frozen benchmark's hold on the program, checked by the fast suite.

``benchmarks/ckptbench`` times the live host from outside: it wraps
public functions and methods by name, probes per-record helpers, and
builds power-loss images by interposing ``os.fsync`` on the WAL path.
A refactor of ``src/`` that breaks any of those ties would otherwise
show only in the benchmark's own job.  Three checks, one per tie.
"""

import os
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "ckptbench"


@pytest.fixture()
def harness(monkeypatch):
    """The harness modules, imported the way ``run.py`` imports them."""
    monkeypatch.syspath_prepend(str(HARNESS))
    import crashimage
    import layers
    import tracing
    yield tracing, layers, crashimage
    for name in ("crashimage", "layers", "tracing", "launcher", "stats"):
        sys.modules.pop(name, None)


def test_every_traced_layer_is_wrapped_and_restored(harness):
    tracing, _, _ = harness
    from repro.live.host import LiveHost
    from repro.live.wal import DurableLog

    originals = (LiveHost.submit, DurableLog.flush, os.fsync)
    tracer = tracing.Tracer()
    tracing.trace_live_layers(tracer)
    try:
        assert LiveHost.submit is not originals[0]
        assert DurableLog.flush is not originals[1]
    finally:
        tracer.unwrap_all()
    assert (LiveHost.submit, DurableLog.flush, os.fsync) == originals


def test_per_record_probes_time_the_run_updates(harness):
    _, layers, _ = harness
    metrics = layers.probe_metrics([(i, i * 7) for i in range(100)], 2048)
    assert set(metrics) == {"live.wal.encode_us_per_record",
                            "mmdb.install_us_per_record"}
    for value, unit, samples in metrics.values():
        assert value > 0.0 and unit == "us" and samples == 100


def test_the_crash_image_checker_catches_a_lost_commit(harness, tmp_path):
    _, _, crashimage = harness
    assert crashimage.checker_catches_lost_commit(tmp_path, 1)
