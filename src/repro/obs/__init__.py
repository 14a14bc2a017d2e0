"""Observability substrate: metrics, telemetry, run export, reports.

The paper's argument is *measured* interference between checkpointing
and transaction processing; this subsystem is the measuring equipment.

* :mod:`repro.obs.metrics` -- counters, gauges, mergeable log-bucket
  histograms, utilisation timelines, and the :class:`MetricsRegistry`
  namespace holding them;
* :mod:`repro.obs.telemetry` -- the :class:`Telemetry` handle every
  instrumented component keys off (and its no-op default);
* :mod:`repro.obs.export` -- the run document: one JSON object per run
  (summary, registry snapshot, checkpoint history, spans), written and
  reloaded bit-identically;
* :mod:`repro.obs.report` -- quantile tables, checkpoint phase timings,
  abort taxonomy, timeline sparklines (the ``repro metrics`` output);
* :mod:`repro.obs.spans` -- begin/end spans with parent links: per-
  transaction and per-checkpoint timed windows with causal structure
  (and the Chrome-trace exporter for Perfetto);
* :mod:`repro.obs.attribution` -- the stall-attribution pass joining
  transaction spans against overlapping checkpoint spans (the
  ``repro trace --attribution`` output);
* :mod:`repro.obs.partition` -- partition-aware joins: span tagging by
  ``ckpt.partition``, per-shard telemetry merging, replay-rate gauges;
* :mod:`repro.obs.presets` -- named scenarios for the CLI and CI.

See ``docs/OBSERVABILITY.md`` for the metric catalog and span names.
"""

from .attribution import (
    attribute_stalls,
    decompose_quantiles,
    latency_timeline,
    render_attribution,
)
from .export import load_run, run_document
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeline,
)
from .partition import (
    PARTITION_FIELD,
    merge_partition_spans,
    merge_partition_telemetry,
    record_replay_rates,
    tag_spans_with_partition,
)
from .report import render_merged_sweep_telemetry, render_metrics_report
from .spans import NULL_SPANS, SpanRecorder, chrome_trace
from .telemetry import NULL_TELEMETRY, Telemetry

# NOTE: repro.obs.presets is deliberately NOT imported here -- it needs
# repro.sim.system, which itself imports repro.obs.telemetry, and
# eagerly importing it from this __init__ would close that cycle while
# sim.system is still half-initialised.  Import it directly:
# ``from repro.obs.presets import get_preset``.

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPANS",
    "NULL_TELEMETRY",
    "PARTITION_FIELD",
    "SpanRecorder",
    "Telemetry",
    "Timeline",
    "attribute_stalls",
    "chrome_trace",
    "decompose_quantiles",
    "latency_timeline",
    "load_run",
    "merge_partition_spans",
    "merge_partition_telemetry",
    "record_replay_rates",
    "render_attribution",
    "render_merged_sweep_telemetry",
    "render_metrics_report",
    "run_document",
    "tag_spans_with_partition",
]
