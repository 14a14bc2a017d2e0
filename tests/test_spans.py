"""The span layer's contracts: recording, attribution, CLI.

What these tests pin down:

* the :class:`SpanRecorder` begin/end/emit surface -- handles, parent
  links, the -1 no-op handle, the capacity cap with drop accounting,
  and open-span clamping in snapshots;
* spans are observational only: fixed-seed ``SimulationMetrics`` *and*
  ``verify_recovery`` outcomes are bit-identical with spans on or off
  (the PR 2 telemetry invariant, extended to spans);
* the Chrome-trace exporter emits structurally valid Trace Event JSON
  (the format Perfetto / ``chrome://tracing`` loads);
* stall attribution decomposes tail latency by the right cause per
  algorithm family: COUCOPY's quiesce, 2CCOPY's paint-abort backoff,
  FUZZYCOPY's near-zero checkpoint share;
* the run document carries spans through a save/reload round-trip and
  the ``repro trace`` CLI surfaces attribution / chrome export / reload;
* the bounded response-time reservoir is exact under the cap and
  bounded beyond it;
* the ``repro metrics`` latency section and the PR 6 offered-vs-served
  section render.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict

import pytest

import repro
from repro.errors import ConfigurationError
from repro.obs.attribution import (
    CAUSES,
    attribute_stalls,
    checkpoint_intervals,
    decompose_quantiles,
    latency_timeline,
    render_attribution,
)
from repro.obs.export import load_run, run_document
from repro.obs.spans import NULL_SPANS, SpanRecorder, chrome_trace
from repro.params import SystemParameters
from repro.txn.manager import TransactionStats

from tests.helpers import build_system


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


# ----------------------------------------------------------------------
# SpanRecorder surface
# ----------------------------------------------------------------------

def test_span_recorder_begin_end_parent_links():
    clock = _FakeClock()
    spans = SpanRecorder(enabled=True, clock=clock)
    root = spans.begin("txn", txn_id=7)
    clock.now = 1.0
    child = spans.begin("txn.lock_wait", parent=root, segment=3)
    clock.now = 2.5
    spans.end(child)
    clock.now = 3.0
    spans.end(root, outcome="commit")

    snapshot = spans.snapshot()
    assert len(snapshot) == 2
    by_name = {span["name"]: span for span in snapshot}
    assert by_name["txn"]["start"] == 0.0
    assert by_name["txn"]["end"] == 3.0
    assert by_name["txn"]["fields"] == {"txn_id": 7, "outcome": "commit"}
    assert by_name["txn.lock_wait"]["parent"] == by_name["txn"]["id"]
    assert by_name["txn.lock_wait"]["start"] == 1.0
    assert by_name["txn.lock_wait"]["end"] == 2.5
    # Snapshots are plain JSON.
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_span_recorder_emit_and_counts():
    spans = SpanRecorder(enabled=True)
    spans.emit("wal.flush", 1.0, 0.0, records=4)
    spans.emit("fault.backoff", 2.0, 0.5, attempt=1)
    spans.emit("wal.flush", 3.0, 0.0, records=1)
    snap = spans.snapshot()
    assert Counter(span["name"] for span in snap) == {"wal.flush": 2,
                                                      "fault.backoff": 1}
    assert snap[1]["end"] == pytest.approx(2.5)


def test_disabled_recorder_and_negative_handles_are_noops():
    assert not NULL_SPANS.enabled
    assert NULL_SPANS.begin("txn") == -1
    assert NULL_SPANS.emit("txn", 0.0, 1.0) == -1
    NULL_SPANS.end(-1)  # must not raise
    assert len(NULL_SPANS) == 0
    live = SpanRecorder(enabled=True)
    live.end(-1, outcome="ignored")  # closures may end unconditionally
    assert len(live) == 0


def test_span_capacity_cap_counts_drops():
    """At the cap the oldest span makes room: the recorder keeps the
    most recent spans, under their original ids, and counts the rest."""
    clock = _FakeClock()
    spans = SpanRecorder(enabled=True, clock=clock, capacity=4)
    handles = []
    for i in range(10):
        clock.now = float(i)
        handles.append(spans.begin(f"s{i}") if i % 2
                       else spans.emit(f"s{i}", clock.now, 0.5))
    assert handles == list(range(10))
    assert spans.dropped == 6
    assert len(spans) == 4
    snapshot = spans.snapshot()
    assert [span["id"] for span in snapshot] == [6, 7, 8, 9]
    assert [span["name"] for span in snapshot] == ["s6", "s7", "s8", "s9"]
    clock.now = 20.0
    spans.end(handles[1], outcome="late")   # evicted: a no-op
    spans.end(handles[7], outcome="done")
    assert spans.snapshot()[1]["end"] == 20.0
    assert spans.snapshot()[1]["fields"] == {"outcome": "done"}
    assert spans.dropped == 6 and len(spans) == 4


def test_children_of_evicted_parents_break_no_consumer():
    clock = _FakeClock()
    spans = SpanRecorder(enabled=True, clock=clock, capacity=3)
    old_root = spans.emit("txn", 0.0, 2.0, outcome="commit", txn_id=1)
    spans.emit("txn.cpu", 0.0, 1.0, parent=old_root)
    root = spans.emit("txn", 1.0, 2.0, outcome="commit", txn_id=2)
    spans.emit("txn.lock_wait", 1.0, 0.5, parent=root)
    spans.emit("txn.cpu", 1.5, 1.0, parent=old_root)  # parent evicted
    snapshot = spans.snapshot()
    assert [span["id"] for span in snapshot] == [2, 3, 4]
    [attribution] = attribute_stalls(snapshot)
    assert attribution.txn_id == 2
    assert attribution.causes["lock"] == pytest.approx(0.5)
    events = chrome_trace(snapshot)["traceEvents"]
    assert [e["args"].get("parent") for e in events if e["ph"] == "X"] == \
        [None, 2, old_root]


def test_snapshot_clamps_abandoned_open_spans():
    clock = _FakeClock()
    spans = SpanRecorder(enabled=True, clock=clock)
    orphan = spans.begin("txn", txn_id=1)
    clock.now = 4.0
    closed = spans.begin("txn.lock_wait", parent=orphan)
    clock.now = 5.0
    spans.end(closed)
    del orphan  # the crash dropped the handle; the span stays open
    snapshot = spans.snapshot()
    root = snapshot[0]
    assert root["open"] is True
    assert root["end"] == 5.0  # clamped to the trace horizon
    assert "open" not in snapshot[1]


# ----------------------------------------------------------------------
# spans never perturb the simulation (acceptance criterion)
# ----------------------------------------------------------------------

def test_fixed_seed_crash_recovery_identical_with_spans_on_and_off():
    kwargs = dict(algorithm="COUCOPY", scale=1024, lam=150.0, seed=11,
                  duration=2.0, crash=True, cou_quiesce_latency=True)
    plain = repro.simulate(**kwargs)
    spanned = repro.simulate(**kwargs, spans=True)
    assert asdict(plain.metrics) == asdict(spanned.metrics)
    assert plain.mismatches == spanned.mismatches == []
    assert plain.recovery.transactions_replayed == \
        spanned.recovery.transactions_replayed
    assert plain.recovery.used_checkpoint_id == \
        spanned.recovery.used_checkpoint_id
    assert plain.spans is None
    assert spanned.spans  # the instrumented run did record


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------

def _spanned_outcome(**overrides):
    kwargs = dict(algorithm="2CCOPY", scale=1024, lam=200.0, seed=3,
                  duration=2.0, spans=True)
    kwargs.update(overrides)
    return repro.simulate(**kwargs)


def test_chrome_trace_is_structurally_valid_trace_event_json():
    outcome = _spanned_outcome()
    trace = chrome_trace(outcome.spans)
    # Serialisable as-is: what Perfetto's JSON importer requires.
    parsed = json.loads(json.dumps(trace))
    events = parsed["traceEvents"]
    assert events
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == len(outcome.spans)
    assert {e["ph"] for e in events} == {"X", "M"}
    for event in complete:
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        assert event["pid"] == 1
        assert isinstance(event["tid"], int)
        assert isinstance(event["args"], dict)
    # One thread_name metadata row per span family, named after it.
    families = {e["name"].split(".", 1)[0] for e in complete}
    assert {m["args"]["name"] for m in meta} == families
    tid_of = {m["args"]["name"]: m["tid"] for m in meta}
    for event in complete:
        assert event["tid"] == tid_of[event["name"].split(".", 1)[0]]


# ----------------------------------------------------------------------
# stall attribution
# ----------------------------------------------------------------------

def test_attribution_covers_each_committed_txn_exactly():
    outcome = _spanned_outcome()
    attributions = attribute_stalls(outcome.spans)
    assert len(attributions) == outcome.metrics.transactions_committed
    for att in attributions:
        assert att.latency >= 0.0
        total = sum(att.causes.values())
        assert total == pytest.approx(att.latency, abs=1e-9)
        assert 0.0 <= att.ckpt_share <= 1.0


def test_two_color_tail_is_blamed_on_checkpoint_backoff():
    outcome = _spanned_outcome()
    decomposition = decompose_quantiles(attribute_stalls(outcome.spans))
    assert set(decomposition) == {"p50", "p95", "p99"}
    p99 = decomposition["p99"]
    assert p99["latency"] > 0.0
    assert set(p99["causes"]) == set(CAUSES)
    # Two-color aborts happen only while a checkpoint paints, so the
    # rerun backoff lands in the checkpoint-attributable bucket.
    assert p99["causes"]["ckpt.backoff"] > 0.0
    assert p99["ckpt_share"] > 0.5


def test_coucopy_tail_is_blamed_on_quiesce():
    outcome = _spanned_outcome(algorithm="COUCOPY", seed=11,
                               cou_quiesce_latency=True)
    p99 = decompose_quantiles(attribute_stalls(outcome.spans))["p99"]
    assert p99["causes"]["ckpt.quiesce"] > 0.0
    assert p99["ckpt_share"] > 0.5


def test_fuzzycopy_under_cpu_contention_has_low_ckpt_share():
    outcome = _spanned_outcome(algorithm="FUZZYCOPY", cpu_mips=5.0)
    p99 = decompose_quantiles(attribute_stalls(outcome.spans))["p99"]
    # Fuzzy checkpointing is non-intrusive: the tail is CPU queueing,
    # not checkpoint interference -- the paper's Section 3.1 claim.
    assert p99["causes"]["cpu"] > 0.0
    assert p99["ckpt_share"] < 0.2


def test_latency_timeline_buckets_every_commit():
    outcome = _spanned_outcome()
    attributions = attribute_stalls(outcome.spans)
    intervals = checkpoint_intervals(outcome.spans)
    assert intervals and all(c1 >= c0 for c0, c1 in intervals)
    rows = latency_timeline(attributions, intervals, buckets=40)
    assert len(rows) == 40
    assert sum(row["count"] for row in rows) == len(attributions)
    assert any(row["ckpt_active"] for row in rows)


def test_render_attribution_reports_tails_and_timeline():
    outcome = _spanned_outcome()
    text = render_attribution(outcome.spans)
    assert "checkpoint-stall attribution (2CCOPY)" in text
    assert "p99" in text and "ckpt-share" in text
    assert "latency timeline" in text
    assert render_attribution([]).endswith("(no committed transactions "
                                           "in the trace)")


def test_fault_backoff_windows_become_spans():
    from repro.faults.plan import FaultPlan, IOFaultSpec
    plan = FaultPlan(seed=5, io=IOFaultSpec(error_rate=0.2, max_retries=12,
                                            backoff_base=0.002))
    outcome = repro.simulate("FUZZYCOPY", scale=1024, lam=150.0, seed=4,
                             duration=2.0, spans=True, fault_plan=plan)
    backoffs = [s for s in outcome.spans if s["name"] == "fault.backoff"]
    assert backoffs
    for span in backoffs:
        assert span["end"] > span["start"]
        assert span["fields"]["attempt"] >= 1


# ----------------------------------------------------------------------
# export round-trip + CLI
# ----------------------------------------------------------------------

def test_run_export_round_trips_spans(tmp_path):
    params = SystemParameters.scaled_down(1024, lam=150.0)
    meta = {"algorithm": "COUCOPY", "seed": 5, "duration": 1.5}
    system = build_system(params, "COUCOPY", seed=5, telemetry=True,
                          spans=True)
    system.run(1.5)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run_document(system, meta)))
    document = load_run(path)
    assert document["spans"] == system.spans_snapshot()
    assert document["spans_dropped"] == system.spans.dropped == 0
    # A spanless run's document has no span keys: absent, not empty.
    plain = build_system(params, "COUCOPY", seed=5, telemetry=True)
    plain.run(0.5)
    assert "spans" not in run_document(plain, meta)
    assert "spans_dropped" not in run_document(plain, meta)


def test_cli_trace_attribution_and_chrome_export(tmp_path, capsys):
    from repro.cli import main
    chrome_path = tmp_path / "chrome.json"
    assert main(["trace", "--algorithm", "2CCOPY", "--scale", "1024",
                 "--duration", "1.0", "--attribution",
                 "--chrome-out", str(chrome_path), "--tail", "0"]) == 0
    text = capsys.readouterr().out
    assert "spans" in text
    assert "checkpoint-stall attribution (2CCOPY)" in text
    trace = json.loads(chrome_path.read_text())
    assert trace["traceEvents"]


def test_cli_trace_reload_preserves_events_and_spans(tmp_path, capsys):
    from repro.cli import main
    out_path = tmp_path / "run.json"
    assert main(["trace", "--algorithm", "2CCOPY", "--scale", "1024",
                 "--duration", "1.0", "--out", str(out_path),
                 "--tail", "0"]) == 0
    live = capsys.readouterr().out

    assert main(["trace", "--load", str(out_path), "--attribution",
                 "--tail", "0"]) == 0
    reloaded = capsys.readouterr().out
    assert "checkpoint-stall attribution (2CCOPY)" in reloaded
    # The whole span summary is reproduced from the saved document.
    assert "spans by name:" in live
    assert reloaded.startswith(live)


def test_cli_trace_load_without_spans_rejects_attribution(tmp_path, capsys):
    from repro.cli import main
    # ``metrics`` records no spans, so its document carries none.
    out_path = tmp_path / "metrics.json"
    assert main(["metrics", "--algorithm", "FUZZYCOPY", "--scale", "1024",
                 "--duration", "0.5", "--json"]) == 0
    out_path.write_text(capsys.readouterr().out)
    with pytest.raises(ConfigurationError, match="carries no span trace"):
        main(["trace", "--load", str(out_path), "--attribution"])


# ----------------------------------------------------------------------
# bounded response-time reservoir
# ----------------------------------------------------------------------

def test_response_times_exact_under_the_cap():
    stats = TransactionStats(reservoir_limit=100)
    for i in range(50):
        stats.record_commit(float(i))
    assert stats.response_times == [float(i) for i in range(50)]
    assert stats.response_samples == 50
    # Exact percentiles while under the cap (interpolated ranks).
    assert stats.response_percentile(100.0) == 49.0
    assert stats.response_percentile(50.0) == pytest.approx(24.5)


def test_response_times_bounded_beyond_the_cap():
    stats = TransactionStats(reservoir_limit=64)
    for i in range(10_000):
        stats.record_commit(float(i))
    assert len(stats.response_times) == 64
    assert stats.response_samples == 10_000
    assert stats.committed == 10_000
    assert stats.total_response_time == pytest.approx(sum(range(10_000)))
    # The reservoir is a uniform sample: its median estimates the true
    # median (5000) far better than the first 64 values ever could.
    assert stats.response_percentile(50.0) == pytest.approx(5000, rel=0.35)

    # And the replacement stream is deterministic.
    again = TransactionStats(reservoir_limit=64)
    for i in range(10_000):
        again.record_commit(float(i))
    assert again.response_times == stats.response_times


# ----------------------------------------------------------------------
# report sections (satellites)
# ----------------------------------------------------------------------

def _instrumented_payload(**kwargs):
    defaults = dict(algorithm="FUZZYCOPY", scale=1024, lam=200.0, seed=3,
                    duration=2.0, telemetry=True)
    defaults.update(kwargs)
    outcome = repro.simulate(**defaults)
    return asdict(outcome.metrics), outcome.telemetry


def test_metrics_report_renders_latency_tails_section():
    from repro.obs.report import render_latency_section, render_metrics_report
    summary, telemetry = _instrumented_payload()
    section = render_latency_section(telemetry["histograms"])
    assert "latency tails" in section
    assert "wal.flush.latency" in section
    assert "txn.commit.latency" in section
    assert "p95" in section and "p99" in section
    # Non-latency histograms (sizes, counts) stay out of this section.
    assert "wal.flush.records" not in section
    # And the full report includes it.
    report = render_metrics_report(summary=summary, telemetry=telemetry)
    assert "latency tails" in report
    assert render_latency_section({}) == \
        "latency tails (seconds)\n  (no latency samples)"


def test_metrics_report_renders_offered_vs_served_section():
    from repro.obs.report import render_metrics_report, render_offered_vs_served
    summary, telemetry = _instrumented_payload()
    assert telemetry["counters"]["workload.arrivals"] == \
        summary["transactions_submitted"]
    section = render_offered_vs_served(summary, telemetry["counters"])
    assert "offered vs served load" in section
    assert "served/offered" in section
    assert "arrivals counted by telemetry" in section
    report = render_metrics_report(summary=summary, telemetry=telemetry)
    assert "offered vs served load" in report
    # Without rate telemetry the section degrades, not crashes.
    assert "(no workload rate telemetry)" in \
        render_offered_vs_served({}, {})
