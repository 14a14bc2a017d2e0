"""Observability substrate: metrics, telemetry, run export, reports.

The paper's argument is *measured* interference between checkpointing
and transaction processing; this subsystem is the measuring equipment.

* :mod:`repro.obs.metrics` -- counters, gauges, log-bucket
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
* :mod:`repro.obs.presets` -- named scenarios for the CLI and CI.

See ``docs/OBSERVABILITY.md`` for the metric catalog and span names.
"""

from .._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "attribute_stalls": ".attribution",
    "decompose_quantiles": ".attribution",
    "latency_timeline": ".attribution",
    "render_attribution": ".attribution",
    "load_run": ".export",
    "run_document": ".export",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "Timeline": ".metrics",
    "render_metrics_report": ".report",
    "NULL_SPANS": ".spans",
    "SpanRecorder": ".spans",
    "chrome_trace": ".spans",
    "NULL_TELEMETRY": ".telemetry",
    "Telemetry": ".telemetry",
})

# repro.obs.presets is not on this surface: it builds runs through
# repro.api, the whole simulator.  Import it directly:
# ``from repro.obs.presets import get_preset``.

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPANS",
    "NULL_TELEMETRY",
    "SpanRecorder",
    "Telemetry",
    "Timeline",
    "attribute_stalls",
    "chrome_trace",
    "decompose_quantiles",
    "latency_timeline",
    "load_run",
    "render_attribution",
    "render_metrics_report",
    "run_document",
]
