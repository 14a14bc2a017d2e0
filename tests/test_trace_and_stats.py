"""Tests for lifecycle tracing (the span recorder wired through the
simulated system), the statistics helpers, and replication."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from tests.helpers import build_system
from repro.errors import ConfigurationError
from repro.experiments.replication import replicate, separated
from repro.experiments.stats import SampleSummary, summarize
from repro.obs.spans import NULL_SPANS
from repro.units import percentile


def _named(spans, name):
    return [span for span in spans if span["name"] == name]


class TestSystemTracing:
    """Every lifecycle event is a span boundary (docs/OBSERVABILITY.md,
    "Lifecycle events as spans")."""

    def test_lifecycle_events_recorded(self, tiny_params):
        system = build_system(tiny_params, "COUCOPY", seed=3, spans=True)
        system.run(1.0)
        system.crash()
        result = system.recover()
        counts = system.spans.counts()
        assert counts.get("txn", 0) > 0
        assert counts.get("ckpt", 0) > 0
        spans = system.spans_snapshot()
        assert any(span["fields"].get("outcome") == "commit"
                   for span in _named(spans, "txn"))
        crash, = _named(spans, "sys.crash")
        recover, = _named(spans, "sys.recover")
        assert crash["start"] == crash["end"] == system.engine.now
        assert recover["fields"] == {
            "checkpoint_id": result.used_checkpoint_id,
            "replayed": result.transactions_replayed}

    def test_tracing_off_by_default(self, tiny_params):
        system = build_system(tiny_params, "COUCOPY", seed=3)
        system.run(0.5)
        system.crash()
        system.recover()
        assert system.spans is NULL_SPANS
        assert system.spans_snapshot() is None
        assert len(NULL_SPANS) == 0

    def test_checkpoint_events_match_history(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=4, spans=True)
        system.run(1.0)
        closed = [span for span in _named(system.spans_snapshot(), "ckpt")
                  if not span.get("open")]
        assert len(closed) == len(system.checkpointer.history)
        for span, stats in zip(closed, system.checkpointer.history):
            assert span["fields"]["checkpoint_id"] == stats.checkpoint_id
            assert span["fields"]["image"] == stats.image
            assert span["fields"]["segments_flushed"] == stats.segments_flushed
            assert span["end"] - span["start"] == pytest.approx(stats.duration)

    def test_abort_events_for_two_color(self, small_params):
        system = build_system(small_params, "2CCOPY", seed=5, spans=True)
        system.run(2.0)
        backoffs = _named(system.spans_snapshot(), "txn.backoff")
        assert backoffs
        assert all(span["fields"]["reason"] == "two-color"
                   for span in backoffs)

    @pytest.mark.parametrize("algorithm", ["FUZZYCOPY", "COUCOPY", "2CCOPY"])
    def test_every_tracer_event_is_a_span_boundary(self, small_params,
                                                   algorithm):
        """What the deleted ``Tracer`` counted, read off the spans."""
        system = build_system(small_params, algorithm, seed=11, spans=True)
        metrics = system.run(2.0)
        plain = build_system(small_params, algorithm, seed=11)
        assert asdict(plain.run(2.0)) == asdict(metrics)

        spans = system.spans_snapshot()
        txns = _named(spans, "txn")
        # arrival: one ``txn`` root per generated transaction, opened at
        # its arrival instant, ids in arrival order
        assert len(txns) == system.workload.transactions_created
        assert [span["fields"]["txn_id"] for span in txns] == \
            list(range(1, len(txns) + 1))
        # commit
        commits = [span for span in txns
                   if span["fields"].get("outcome") == "commit"]
        assert len(commits) == metrics.transactions_committed
        assert all(span["fields"]["attempts"] >= 1 for span in commits)
        # abort: every aborted attempt either backs off or fails for good
        failed = [span for span in txns
                  if span["fields"].get("outcome") == "failed"]
        stats = system.txn_manager.stats
        assert len(_named(spans, "txn.backoff")) + len(failed) == \
            stats.total_aborts
        assert (stats.total_aborts > 0) == (algorithm == "2CCOPY")
        # checkpoint
        closed = [span for span in _named(spans, "ckpt")
                  if not span.get("open")]
        assert len(closed) == metrics.checkpoints_completed > 0
        # crash / recover: none before, exactly one of each after
        assert not _named(spans, "sys.crash")
        system.crash()
        system.recover()
        after = system.spans_snapshot()
        assert len(_named(after, "sys.crash")) == 1
        assert len(_named(after, "sys.recover")) == 1
        assert system.verify_recovery() == []


class TestSummarize:
    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.ci_low == s.ci_high == 5.0

    def test_known_sample(self):
        s = summarize([2.0, 4.0, 6.0])
        assert s.mean == pytest.approx(4.0)
        assert s.stddev == pytest.approx(2.0)
        assert s.ci_low < 4.0 < s.ci_high

    def test_confidence_widens_interval(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = summarize(sample, confidence=0.80)
        wide = summarize(sample, confidence=0.99)
        assert wide.ci_half_width > narrow.ci_half_width

    def test_overlap_detection(self):
        a = SampleSummary(3, 10.0, 1.0, 9.0, 11.0, 0.95)
        b = SampleSummary(3, 10.5, 1.0, 9.5, 11.5, 0.95)
        c = SampleSummary(3, 20.0, 1.0, 19.0, 21.0, 0.95)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            summarize([])
        with pytest.raises(ConfigurationError):
            summarize([1.0], confidence=1.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [3, 1, 2]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1], 101)


class TestReplication:
    @pytest.fixture(scope="class")
    def results(self):
        seeds = (1, 2, 3)
        return {
            name: replicate(name, seeds=seeds, duration=4.0, warmup=2.0)
            for name in ("FUZZYCOPY", "2CCOPY")
        }

    def test_summaries_have_uncertainty(self, results):
        fuzzy = results["FUZZYCOPY"]
        assert fuzzy.overhead.n == 3
        assert fuzzy.overhead.mean > 0
        assert fuzzy.committed_total > 0

    def test_two_color_statistically_separated_from_fuzzy(self, results):
        """The figure-4a gap survives seed noise."""
        assert separated(results["2CCOPY"], results["FUZZYCOPY"])
        assert (results["2CCOPY"].overhead.ci_low
                > results["FUZZYCOPY"].overhead.ci_high)

    def test_abort_probability_ci(self, results):
        two_color = results["2CCOPY"].abort_probability
        assert 0.5 < two_color.mean < 0.95
        fuzzy = results["FUZZYCOPY"].abort_probability
        assert fuzzy.mean == 0.0


class TestResponsePercentiles:
    def test_p95_reported(self, small_params):
        system = build_system(small_params, "NAIVELOCK", seed=6)
        metrics = system.run(3.0)
        assert metrics.response_time_p95 >= metrics.mean_response_time
        assert metrics.response_time_p95 > 0
