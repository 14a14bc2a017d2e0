"""Tests of the benchmark itself (``pytest benchmarks/ckptbench``).

Not part of tier-1: ``pyproject.toml`` collects ``tests/`` only.  The
arithmetic tests are instant; the durability tests build small crash
images in-process; the smoke test runs every workload for 2 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HERE))

import crashimage  # noqa: E402
from stats import (median, percentile, relative_gap, self_times,  # noqa: E402
                   stalled, window_stall)
from tracing import Tracer  # noqa: E402

CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- arithmetic ----------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile(values, 21) == 2.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_median_of_nothing_is_zero():
    assert median([]) == 0.0
    assert median([3.0, 1.0]) == 2.0


def test_window_stall_takes_worst_per_window_then_median():
    # three whole 2 s windows in [10, 16.5); the partial fourth is dropped
    samples = [(10.1, 5.0), (11.9, 80.0),      # window 0: worst 80
               (12.0, 6.0), (13.0, 60.0),      # window 1: worst 60
               (14.5, 7.0), (15.9, 300.0),     # window 2: worst 300
               (16.2, 999.0),                  # partial window: ignored
               (9.9, 999.0)]                   # before the start: ignored
    assert window_stall(samples, 10.0, 16.5, 2.0) == (80.0, 3)


def test_window_stall_skips_windows_without_samples():
    assert window_stall([(0.5, 4.0), (4.5, 8.0)], 0.0, 6.0, 2.0) == (6.0, 2)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "flush", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "fsync", "start": 2.0, "end": 5.0, "parent": 1},
        # overlaps the first child: 4..7 adds only 5..7
        {"id": 3, "name": "write", "start": 4.0, "end": 7.0, "parent": 1},
        # sticks out past the parent: clipped at 10
        {"id": 4, "name": "late", "start": 9.0, "end": 12.0, "parent": 1},
        {"id": 5, "name": "grandchild", "start": 2.5, "end": 3.0, "parent": 2},
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (3.0 + 2.0 + 1.0))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[5] == pytest.approx(0.5)


def test_stalled_is_the_median_of_the_slow_group():
    # median 5: the stalled group is everything above 15
    latencies = [5.0] * 95 + [40.0, 45.0, 50.0, 300.0, 14.0]
    assert stalled(latencies) == (47.5, 4)
    # nothing stalled: the slowest stands in, over zero samples
    assert stalled([5.0, 6.0, 7.0]) == (7.0, 0)
    assert stalled([]) == (0.0, 0)


def test_gap_is_signed_by_direction():
    assert relative_gap(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert relative_gap(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert relative_gap(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_tracer_links_children_and_restores_functions():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.inner
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer", root=True)
    tracer.wrap(Layer, "inner", "inner",
                after=lambda span, result, layer: span.update(got=result))
    assert Layer().outer() == 2
    tracer.unwrap_all()
    assert Layer.inner is original
    inner, outer = tracer.spans
    assert (inner["name"], outer["name"]) == ("inner", "outer")
    assert inner["parent"] == outer["id"]
    assert inner["request"] == outer["request"] == 1
    assert inner["got"] == 1
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# -- durability ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_image(tmp_path_factory):
    return crashimage.build_crash_image(
        tmp_path_factory.mktemp("image"), seed=7, scale=2048,
        small_commits=4, bulk_commits=8, bulk_updates=32)


def test_crash_image_keeps_only_fsynced_bytes_plus_a_torn_tail(small_image):
    wal_size = (small_image.directory / small_image.wal_name).stat().st_size
    assert small_image.torn_bytes > 0
    assert wal_size == small_image.synced_sizes[-1] + small_image.torn_bytes
    # the commit in flight at the crash was never acknowledged
    assert len(small_image.acked) < 4 + 8


def test_restart_from_crash_image_serves_every_ack(small_image, tmp_path):
    copy = crashimage.copy_image(small_image, tmp_path / "copy")
    missing, recovery = crashimage.missing_after_recovery(
        copy, small_image.scale, small_image.shadow())
    assert missing == 0
    assert recovery["torn_tail"] is True
    assert recovery["checkpoint_id"] == 1


def test_image_missing_an_acked_commit_is_caught(small_image, tmp_path):
    damaged = crashimage.copy_image(
        small_image, tmp_path / "damaged",
        wal_size=small_image.synced_sizes[-2])
    missing, _ = crashimage.missing_after_recovery(
        damaged, small_image.scale, small_image.shadow())
    assert missing > 0


def test_negative_selftest_used_by_live_restart(tmp_path):
    assert crashimage.checker_catches_lost_commit(tmp_path, seed=3)


# -- the contract file -----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_in_contract_format():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ckptbench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(CONTRACT["per_layer"]) <= 128


# -- end to end ------------------------------------------------------------------

def test_quick_run_prints_every_declared_name():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    printed = set(re.findall(r"^\s*metric (\S+) (\S+) ", done.stdout,
                             flags=re.MULTILINE))
    for workload in CONTRACT["workloads"]:
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert (workload["name"], metric["name"]) in printed
        assert f"failed_share {workload['name']} 0 " in done.stdout
    assert "layer budget: commit on live_oltp" in done.stdout
    assert "layer budget: restart on live_restart" in done.stdout
