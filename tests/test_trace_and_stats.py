"""Tests for the tracer, the statistics helpers, and replication."""

from __future__ import annotations

import pytest

from tests.helpers import build_system
from repro.errors import ConfigurationError
from repro.experiments.replication import replicate, separated
from repro.experiments.stats import SampleSummary, summarize
from repro.sim.trace import Tracer
from repro.units import percentile


class TestTracer:
    def test_record_and_query(self):
        tracer = Tracer()
        tracer.record(1.0, "commit", txn_id=7)
        tracer.record(2.0, "abort", txn_id=8, reason="two-color")
        tracer.record(3.0, "commit", txn_id=9)
        assert len(tracer) == 3
        commits = tracer.of_kind("commit")
        assert [e.txn_id for e in commits] == [7, 9]
        assert tracer.last("abort").reason == "two-color"
        assert tracer.kinds() == {"commit": 2, "abort": 1}

    def test_between(self):
        tracer = Tracer()
        for t in (0.5, 1.5, 2.5):
            tracer.record(t, "tick")
        assert len(tracer.between(1.0, 2.0)) == 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "commit")
        assert len(tracer) == 0
        assert tracer.last() is None

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record(float(i), "tick", seq=i)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.seq for e in tracer] == [2, 3, 4]

    def test_unknown_field_raises(self):
        tracer = Tracer()
        tracer.record(1.0, "tick")
        with pytest.raises(AttributeError):
            _ = tracer.last().missing_field

    def test_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "tick")
        tracer.clear()
        assert len(tracer) == 0 and tracer.recorded == 0


class TestSystemTracing:
    def test_lifecycle_events_recorded(self, tiny_params):
        system = build_system(tiny_params, "COUCOPY", seed=3, trace=True)
        system.run(1.0)
        system.crash()
        system.recover()
        kinds = system.tracer.kinds()
        assert kinds.get("arrival", 0) > 0
        assert kinds.get("commit", 0) > 0
        assert kinds.get("checkpoint", 0) > 0
        assert kinds.get("crash") == 1
        assert kinds.get("recover") == 1

    def test_tracing_off_by_default(self, tiny_params):
        system = build_system(tiny_params, "COUCOPY", seed=3)
        system.run(0.5)
        assert len(system.tracer) == 0

    def test_checkpoint_events_match_history(self, tiny_params):
        system = build_system(tiny_params, "FUZZYCOPY", seed=4, trace=True)
        system.run(1.0)
        traced = system.tracer.of_kind("checkpoint")
        assert len(traced) == len(system.checkpointer.history)
        for event, stats in zip(traced, system.checkpointer.history):
            assert event.checkpoint_id == stats.checkpoint_id
            assert event.flushed == stats.segments_flushed

    def test_abort_events_for_two_color(self, small_params):
        system = build_system(small_params, "2CCOPY", seed=5, trace=True)
        system.run(2.0)
        aborts = system.tracer.of_kind("abort")
        assert aborts
        assert all(e.reason == "two-color" for e in aborts)


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
