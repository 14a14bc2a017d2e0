"""Per-layer metrics of the live host, computed from benchmark spans.

Every metric is ``(value, unit, samples)``.  A layer the workload never
entered reports 0 with 0 samples.  Span names are the ones
:func:`tracing.trace_live_layers` assigns.
"""

from __future__ import annotations

import bisect
import time
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from stats import median, percentile, self_times, stalled, window_stall

Metric = Tuple[float, str, int]
Metrics = Dict[str, Metric]


class Outcome(NamedTuple):
    """What one workload run hands back to ``run.py``."""

    #: operations sent plus correctness checks made
    attempted: int
    #: operations that failed, were refused or timed out
    failed_ops: int
    #: one line per correctness check that did not hold
    problems: List[str]
    metrics: Metrics


def _by_name(spans: Iterable[dict]) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = {}
    for span in spans:
        groups.setdefault(span["name"], []).append(span)
    return groups


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def _median_ms(spans: Sequence[dict]) -> Metric:
    return median([_ms(s) for s in spans]), "ms", len(spans)


def _us_per_record(spans: Sequence[dict]) -> Metric:
    records = sum(s.get("records", 0) for s in spans)
    busy = sum(s["end"] - s["start"] for s in spans)
    return (busy / records * 1e6 if records else 0.0), "us", records


def client_metrics(samples,
                   windows: Optional[Tuple[float, float, float]] = None
                   ) -> Metrics:
    """Tail diagnostics from the load generator's own samples.

    ``windows`` is ``(start, end, checkpoint interval)`` of the measured
    period, for the worst commit per checkpoint interval.
    """
    commits = [s.latency * 1e3 for s in samples if s.kind == "txn" and s.ok]
    stall, caught = stalled(commits)
    worst, n_windows = (0.0, 0) if windows is None else window_stall(
        [(s.received_at, s.latency * 1e3) for s in samples
         if s.kind == "txn" and s.ok], *windows)
    reads = [s.latency * 1e3 for s in samples if s.kind == "get" and s.ok]
    overhead = [(s.latency - (s.host_latency or 0.0)) * 1e3
                for s in samples if s.ok]
    return {
        "client.commit_p99_ms": (percentile(commits, 99), "ms", len(commits)),
        "client.commit_max_ms": (max(commits, default=0.0), "ms", len(commits)),
        "client.stall_ms": (stall, "ms", caught),
        "client.stalled_commits": (caught, "count", len(commits)),
        "client.window_worst_ms": (worst, "ms", n_windows),
        "client.read_p50_ms": (median(reads), "ms", len(reads)),
        "client.read_p99_ms": (percentile(reads, 99), "ms", len(reads)),
        "client.ops_attempted": (len(samples), "count", len(samples)),
        "client.ops_failed": (sum(not s.ok for s in samples), "count",
                              len(samples)),
        # round trip minus the reply's own host latency: socket, JSON
        # parse and reply on both sides (the whole round trip of a get)
        "live.server.overhead_ms": (median(overhead), "ms", len(overhead)),
        "live.server.requests": (len(samples), "count", len(samples)),
    }


def live_metrics(spans: Sequence[dict],
                 elsewhere: Sequence[dict] = ()) -> Metrics:
    """Everything the spans of one traced process can say.

    ``elsewhere`` holds the spans of a second process run for the same
    workload (the in-process restart after a live run, the in-process
    build before a restart); it supplies the layers ``spans`` never
    entered.
    """
    metrics = _live_metrics(spans)
    if elsewhere:
        other = _live_metrics(elsewhere)
        metrics = {name: metric if metric[2] else other[name]
                   for name, metric in metrics.items()}
    return metrics


def _live_metrics(spans: Sequence[dict]) -> Metrics:
    groups = _by_name(spans)
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)

    def named(name: str) -> List[dict]:
        return groups.get(name, [])

    def child_of(span: dict, parent_name: str) -> bool:
        parent = by_id.get(span.get("parent"))
        return parent is not None and parent["name"] == parent_name

    callbacks = named("live.scheduler.callback")
    executes = [s for s in callbacks if s.get("fn") == "execute"]
    finishes = [s for s in callbacks if s.get("fn") == "finish"]
    flushes = [s for s in named("live.wal.flush") if s.get("records")]
    fsyncs = [s for s in named("os.fsync") if child_of(s, "live.wal.flush")]
    submits = named("live.host.submit")
    syncs = named("live.ckpt.sync")
    truncates = [s for s in named("live.wal.truncate") if s.get("bytes")]
    installs = named("live.store.install")
    recovers = named("live.host.recover")
    scans = named("live.wal.scan")

    # host latency = queue wait + execute + tick wait + flush + fsync;
    # the acking flush is the last one begun before submit() returned
    execute_of = {s["parent"]: s for s in executes}
    flush_starts = [s["start"] for s in flushes]
    tick_waits: List[float] = []
    for submit in submits:
        execute = execute_of.get(submit["id"])
        at = bisect.bisect_right(flush_starts, submit["end"]) - 1
        if execute is None or at < 0:
            continue
        flush = flushes[at]
        tick_waits.append((submit["end"] - submit["start"] - execute["wait"]
                           - (execute["end"] - execute["start"])
                           - (flush["end"] - flush["start"])) * 1e3)

    # a checkpoint runs from its sync phase to the end of its finish
    # callback; the window may open between the two
    sync_starts = [s["start"] for s in syncs]
    totals = [(finish["end"] - sync_starts[at]) * 1e3
              for finish in finishes
              for at in [bisect.bisect_right(sync_starts, finish["start"]) - 1]
              if at >= 0]
    snapshots = [s for s in named("mmdb.snapshot")
                 if child_of(s, "live.ckpt.sync")]
    updates = sum(s.get("updates", 0) for s in submits)
    appended = sum(s.get("bytes", 0) for s in flushes)

    metrics: Metrics = {
        "live.scheduler.queue_wait_ms": (
            median([s["wait"] * 1e3 for s in callbacks]), "ms",
            len(callbacks)),
        "live.scheduler.callbacks": (len(callbacks), "count", len(callbacks)),
        "live.host.execute_us": (
            median([_ms(s) * 1e3 for s in executes]), "us", len(executes)),
        "live.host.tick_wait_ms": (median(tick_waits), "ms", len(tick_waits)),
        "live.host.init_ms": _median_ms(named("live.host.init")),
        "live.host.recover_s": (
            median([_ms(s) / 1e3 for s in recovers]), "s", len(recovers)),
        "live.wal.flush_ms": (
            median([own[s["id"]] * 1e3 for s in flushes]), "ms",
            len(flushes)),
        "live.wal.fsync_ms": _median_ms(fsyncs),
        "live.wal.flushes": (len(flushes), "count", len(flushes)),
        "live.wal.fsyncs": (len(fsyncs), "count", len(fsyncs)),
        "live.wal.records_per_flush": (
            (sum(s["records"] for s in flushes) / len(flushes)
             if flushes else 0.0), "count", len(flushes)),
        # 8 bytes of user data per acknowledged update
        "live.wal.bytes_per_user_byte": (
            (appended / (8.0 * updates) if updates else 0.0), "ratio",
            updates),
        "live.wal.scan_us_per_record": _us_per_record(scans),
        # both scans of one restart together (repair + read_wal)
        "live.wal.scan_ms": (
            (sum(_ms(s) for s in scans) / len(recovers) if recovers else 0.0),
            "ms", len(scans)),
        "live.wal.scans_per_restart": (
            (len(scans) / len(recovers) if recovers else 0.0), "count",
            len(recovers)),
        "live.wal.hydrate_ms": _median_ms(named("live.wal.hydrate")),
        "live.wal.truncate_ms": _median_ms(truncates),
        "live.wal.truncate_bytes": (
            median([s["bytes"] for s in truncates]), "B", len(truncates)),
        "live.ckpt.sync_ms": _median_ms(syncs),
        "live.ckpt.finish_ms": _median_ms(finishes),
        "live.ckpt.total_ms": (median(totals), "ms", len(totals)),
        "live.ckpt.completed": (len(finishes), "count", len(finishes)),
        "live.store.install_ms": _median_ms(installs),
        "live.store.image_bytes": (
            median([s.get("bytes", 0) for s in installs]), "B",
            len(installs)),
        "live.store.load_ms": _median_ms(named("live.store.load")),
        "mmdb.snapshot_ms": _median_ms(snapshots),
        "mmdb.load_values_ms": _median_ms(named("mmdb.load_values")),
        "recovery.redo_us_per_record": _us_per_record(named("recovery.redo")),
        "sim.oracle.feed_us_per_record": _us_per_record(
            named("sim.oracle.feed")),
        "proc.boot_ms": _median_ms(named("proc.boot")),
    }
    return metrics


def probe_metrics(updates: Sequence[Tuple[int, int]], scale: int) -> Metrics:
    """Per-record costs too small to span, timed over the run's own
    acknowledged updates: WAL line encoding and the in-memory install."""
    from repro.live.wal import encode_record
    from repro.mmdb.database import Database
    from repro.params import SystemParameters
    from repro.wal.records import UpdateRecord

    records = [UpdateRecord(lsn + 1, 1 + lsn // 5, record, value)
               for lsn, (record, value) in enumerate(updates)]
    if not records:
        return {"live.wal.encode_us_per_record": (0.0, "us", 0),
                "mmdb.install_us_per_record": (0.0, "us", 0)}
    began = time.perf_counter()
    for record in records:
        encode_record(record)
    encode = time.perf_counter() - began
    database = Database(SystemParameters.scaled_down(scale))
    install = database.install_record
    began = time.perf_counter()
    for record in records:
        install(record.record_id, record.value, timestamp=1.0, lsn=record.lsn)
    installed = time.perf_counter() - began
    return {
        "live.wal.encode_us_per_record": (
            encode / len(records) * 1e6, "us", len(records)),
        "mmdb.install_us_per_record": (
            installed / len(records) * 1e6, "us", len(records)),
    }


def commit_budget(client: Metrics, live: Metrics,
                  commit_p50_ms: float) -> Metrics:
    """Terms of the commit round trip, their sum and what is left."""
    terms = (client["live.server.overhead_ms"][0]
             + live["live.scheduler.queue_wait_ms"][0]
             + live["live.host.execute_us"][0] / 1e3
             + live["live.host.tick_wait_ms"][0]
             + live["live.wal.flush_ms"][0]
             + live["live.wal.fsync_ms"][0])
    return _budget(terms, commit_p50_ms)


def restart_budget(live: Metrics, restart_ms: float) -> Metrics:
    """Terms of one traced restart: interpreter boot, host construction
    (with the torn-tail scan), recovery.  The residual is the server
    binding its socket and answering the first ``get``."""
    terms = (live["proc.boot_ms"][0] + live["live.host.init_ms"][0]
             + live["live.host.recover_s"][0] * 1e3)
    return _budget(terms, restart_ms)


def _budget(terms_ms: float, total_ms: float) -> Metrics:
    residual = (total_ms - terms_ms) / total_ms if total_ms else 0.0
    return {"budget.terms_ms": (terms_ms, "ms", 1),
            "budget.residual_share": (residual, "ratio", 1)}
