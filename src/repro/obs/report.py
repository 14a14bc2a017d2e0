"""Human-readable telemetry reports: quantile tables, phase timings,
abort taxonomy, utilisation timelines.

These renderers consume the *serialised* forms (metrics snapshot dicts,
checkpoint-history dicts, summary dicts), so the same code formats a
live run and a run reloaded from a JSONL export.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..units import fmt_compact, text_table
from .metrics import Histogram, MetricsRegistry, Timeline

QUANTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)

#: the tail quantiles of the dedicated latency section
LATENCY_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

#: wait-time histograms that are latencies but don't carry the suffix
_LATENCY_EXTRAS: Tuple[str, ...] = ("txn.lock_wait.time", "ckpt.wal_wait")

#: Timeline sparkline glyphs, lowest to highest utilisation.
_SPARK = " .:-=+*#%@"


def render_quantile_table(histograms: Dict[str, Any],
                          title: str = "latency / size distributions") -> str:
    """One row per histogram: count, mean, p50/p90/p99, max."""
    rows: List[Sequence[object]] = []
    for name in sorted(histograms):
        hist = Histogram.from_dict(histograms[name])
        if hist.count == 0:
            continue
        quantiles = hist.quantiles(QUANTILES)
        rows.append([name, hist.count, fmt_compact(hist.mean)]
                    + [fmt_compact(q) for q in quantiles]
                    + [fmt_compact(hist.max)])
    if not rows:
        return f"{title}\n  (no samples)"
    headers = ["metric", "count", "mean"] + [f"p{int(q)}" for q in QUANTILES] \
        + ["max"]
    return text_table(headers, rows, title=title)


def render_latency_section(histograms: Dict[str, Any],
                           title: str = "latency tails (seconds)") -> str:
    """p50/p95/p99 for every latency histogram the run recorded.

    ``wal.flush.latency`` and ``txn.commit.latency``/
    ``txn.abort.latency`` are always recorded by an instrumented run
    but the generic quantile table only shows p50/p90/p99 alongside
    size distributions; this section isolates the latencies at the
    tail quantiles the checkpointing literature reports.
    """
    rows: List[Sequence[object]] = []
    for name in sorted(histograms):
        if not (name.endswith(".latency") or name in _LATENCY_EXTRAS):
            continue
        hist = Histogram.from_dict(histograms[name])
        if hist.count == 0:
            continue
        quantiles = hist.quantiles(LATENCY_QUANTILES)
        rows.append([name, hist.count, fmt_compact(hist.mean)]
                    + [fmt_compact(q) for q in quantiles]
                    + [fmt_compact(hist.max)])
    if not rows:
        return f"{title}\n  (no latency samples)"
    headers = (["metric", "count", "mean"]
               + [f"p{int(q)}" for q in LATENCY_QUANTILES] + ["max"])
    return text_table(headers, rows, title=title)


def render_counters(counters: Dict[str, Any], title: str = "counters") -> str:
    rows = [[name, fmt_compact(float(counters[name]))]
            for name in sorted(counters)]
    if not rows:
        return f"{title}\n  (none)"
    return text_table(["counter", "value"], rows, title=title)


def render_timelines(timelines: Dict[str, Any],
                     title: str = "utilisation timelines") -> str:
    """One sparkline per timeline: busy fraction per window."""
    lines = [title]
    if not timelines:
        lines.append("  (none)")
        return "\n".join(lines)
    for name in sorted(timelines):
        timeline = Timeline.from_dict(timelines[name])
        series = timeline.utilisation()
        if not series:
            continue
        last_index = max(timeline.buckets)
        dense = [timeline.buckets.get(i, 0.0) / timeline.window
                 for i in range(0, last_index + 1)]
        glyphs = "".join(
            _SPARK[min(len(_SPARK) - 1, int(fraction * (len(_SPARK) - 1)))]
            for fraction in dense[:120])
        mean_util = sum(dense) / len(dense)
        lines.append(f"  {name}  window={timeline.window:g}s "
                     f"mean={mean_util:.0%}")
        lines.append(f"    |{glyphs}|")
    return "\n".join(lines)


def render_checkpoint_phases(checkpoints: List[Dict[str, Any]]) -> str:
    """Per-checkpoint phase timing table (from CheckpointStats dicts)."""
    title = "checkpoint phase timings"
    if not checkpoints:
        return f"{title}\n  (no checkpoints completed)"
    rows = []
    for stats in checkpoints:
        duration = stats["ended_at"] - stats["began_at"]
        rows.append([
            stats["checkpoint_id"], stats["image"],
            fmt_compact(duration),
            fmt_compact(stats.get("quiesce_time", 0.0)),
            fmt_compact(stats.get("wal_wait_time", 0.0)),
            fmt_compact(stats.get("io_time", 0.0)),
            stats["segments_flushed"], stats["segments_skipped"],
            stats["buffer_copies"], stats["cou_copies"],
            stats["words_written"],
        ])
    return text_table(
        ["ckpt", "img", "duration", "quiesce", "wal-wait", "io-time",
         "flushed", "skipped", "buf-cp", "cow-cp", "words"],
        rows, title=title)


def render_abort_taxonomy(summary: Optional[Dict[str, Any]],
                          counters: Dict[str, Any]) -> str:
    """Aborts by cause, from the run summary and/or telemetry counters."""
    title = "abort taxonomy"
    causes: Dict[str, float] = {}
    if summary:
        for reason, count in (summary.get("aborts") or {}).items():
            causes[reason] = causes.get(reason, 0) + count
    else:
        for name, value in counters.items():
            if name.startswith("txn.aborts."):
                reason = name[len("txn.aborts."):]
                causes[reason] = causes.get(reason, 0) + value
    if not causes:
        return f"{title}\n  (no aborts)"
    total = sum(causes.values())
    rows = [[reason, int(causes[reason]), f"{causes[reason] / total:.1%}"]
            for reason in sorted(causes)]
    return text_table(["cause", "count", "share"], rows, title=title)


def render_offered_vs_served(summary: Dict[str, Any],
                             counters: Dict[str, Any]) -> str:
    """Offered vs served load: the open-system workload's health check.

    ``offered_rate`` is the workload schedule's analytic expectation
    over the run, ``workload.arrivals`` the sampled stream's actual
    count, and the commit throughput what the system kept up with --
    a served rate well below the offered rate is the system saturating.
    """
    title = "offered vs served load"
    offered = summary.get("offered_rate")
    served = summary.get("served_rate")
    if not offered and not served:
        return f"{title}\n  (no workload rate telemetry)"
    elapsed = summary.get("elapsed") or 0.0
    rows: List[Sequence[object]] = [
        ["offered (expected arrivals/s)", fmt_compact(offered or 0.0)],
        ["submitted (sampled arrivals/s)",
         fmt_compact((summary.get("transactions_submitted") or 0) / elapsed
              if elapsed else 0.0)],
        ["served (commits/s)", fmt_compact(served or 0.0)],
    ]
    arrivals = counters.get("workload.arrivals")
    if arrivals is not None:
        rows.append(["arrivals counted by telemetry", int(arrivals)])
    if offered:
        rows.append(["served/offered", f"{(served or 0.0) / offered:.1%}"])
    return text_table(["load", "value"], rows, title=title)


def render_summary(summary: Dict[str, Any],
                   title: str = "run summary") -> str:
    rows = []
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, dict):
            value = value or "{}"
        elif isinstance(value, float):
            value = fmt_compact(value)
        rows.append([key, value])
    return text_table(["metric", "value"], rows, title=title)


def render_metrics_report(
    *,
    summary: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    checkpoints: Optional[List[Dict[str, Any]]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """The full ``repro metrics`` breakdown, section by section."""
    blocks: List[str] = []
    if meta:
        parts = ", ".join(f"{key}={meta[key]}" for key in sorted(meta))
        blocks.append(f"run: {parts}")
    if summary:
        blocks.append(render_summary(summary))
    registry = telemetry or {}
    if summary:
        blocks.append(render_offered_vs_served(
            summary, registry.get("counters", {})))
    blocks.append(render_quantile_table(registry.get("histograms", {})))
    blocks.append(render_latency_section(registry.get("histograms", {})))
    blocks.append(render_checkpoint_phases(checkpoints or []))
    blocks.append(render_abort_taxonomy(summary,
                                        registry.get("counters", {})))
    if registry.get("counters"):
        blocks.append(render_counters(registry["counters"]))
    if registry.get("timelines"):
        blocks.append(render_timelines(registry["timelines"]))
    return "\n\n".join(blocks)


def render_merged_sweep_telemetry(
        snapshots: Iterable[Optional[Dict[str, Any]]]) -> str:
    """Quantile tables over the histograms merged across sweep cells."""
    merged: MetricsRegistry = MetricsRegistry.merge_snapshots(snapshots)
    snapshot = merged.snapshot()
    blocks = [render_quantile_table(snapshot["histograms"],
                                    title="merged sweep distributions")]
    if snapshot["counters"]:
        blocks.append(render_counters(snapshot["counters"],
                                      title="merged sweep counters"))
    return "\n\n".join(blocks)
