"""SIGKILL the live server mid-checkpoint (and right after an ack);
prove no acked write is lost.

The full crash-consistency loop, end to end and out of process: a real
``repro serve`` subprocess with fsync on, real acknowledged commits over
a real socket, a checkpoint parked at a phase boundary (image written
but not renamed, or renamed but the log not yet truncated), a genuine
``SIGKILL``, and then the restart verdict -- ``repro serve --check``
recovers from whatever bytes survived and the independent committed-state
oracle must report **zero** mismatches, after which a restarted server
must return every value the dead one acknowledged.  One more test keeps
a server busy with bulk commits and reads its resident set: it must
stop growing once the log is being truncated.

Marked ``livesmoke``: subprocesses + real fsyncs make these seconds-slow,
so tier-1 deselects them (run via ``pytest -m livesmoke``; CI has a
dedicated job).
"""

import json
import os
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.live.server import request

pytestmark = pytest.mark.livesmoke

SRC = Path(__file__).resolve().parents[1] / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_server(data_dir, *extra_args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", str(data_dir), "--port", "0",
         "--flush-interval", "0.002", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=_env())
    line = proc.stdout.readline()
    assert line, "server exited before announcing readiness"
    ready = json.loads(line)
    assert ready["event"] == "ready"
    return proc, ready


def _check_disk(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", str(data_dir), "--check"],
        capture_output=True, text=True, env=_env())
    report = json.loads(proc.stdout)
    assert report["event"] == "check"
    return proc.returncode, report


@pytest.mark.parametrize("hold_phase", ["pre-install", "post-install"])
def test_sigkill_at_checkpoint_phase_boundary_loses_nothing(
        tmp_path, hold_phase):
    proc, ready = _spawn_server(tmp_path, "--no-checkpoints")
    port = ready["port"]
    acked = {}
    try:
        for i in range(40):
            response = request(port, {"op": "put", "record": i,
                                      "value": 5000 + i})
            assert response["ok"], response
            acked[i] = 5000 + i

        # Park the next checkpoint's writer at the boundary under test,
        # then kill the process inside the window.
        response = request(port, {"op": "checkpoint",
                                  "hold_phase": hold_phase,
                                  "hold_seconds": 8.0})
        assert response.get("started"), response
        time.sleep(0.4)  # let the writer reach the hold
        proc.kill()  # SIGKILL: no atexit, no flush, no cleanup
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # Restart + REDO + independent oracle: zero mismatches or bust.
    code, report = _check_disk(tmp_path)
    assert code == 0, report
    assert report["mismatches"] == []
    assert report["consistent"] is True
    if hold_phase == "post-install":
        # the rename happened, so recovery starts from the new image;
        # the acked commits live inside it, below the replay horizon
        assert report["recovery"]["checkpoint_id"] == 1
    else:
        # no rename: every acked commit must still replay from the WAL
        assert report["durable_commits"] >= len(acked)

    # And a restarted server actually serves every acknowledged value.
    reborn, _ready = _spawn_server(tmp_path, "--no-checkpoints")
    try:
        reborn_port = _ready["port"]
        for record, value in acked.items():
            response = request(reborn_port, {"op": "get", "record": record})
            assert response["ok"] and response["value"] == value, (
                record, value, response)
        response = request(reborn_port, {"op": "verify"})
        assert response["ok"] and response["mismatches"] == []
        request(reborn_port, {"op": "shutdown"})
        reborn.wait(timeout=10)
    finally:
        if reborn.poll() is None:
            reborn.kill()
            reborn.wait(timeout=10)


def test_sigkill_right_after_an_ack_no_timer_flushed(tmp_path):
    """Ack-after-fsync for a flush the commit itself asked for: with a
    30 s tick, nothing but the commit-driven group flush can have put
    the acknowledged record on disk before the kill."""
    proc, ready = _spawn_server(tmp_path, "--no-checkpoints",
                                "--flush-interval", "30")
    try:
        response = request(ready["port"], {"op": "put", "record": 9,
                                           "value": 9009}, timeout=5.0)
        assert response["ok"], response
        proc.kill()  # SIGKILL, with the reply the only thing it got out
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    code, report = _check_disk(tmp_path)
    assert code == 0, report
    assert report["consistent"] is True
    assert report["durable_commits"] == 1

    reborn, _ready = _spawn_server(tmp_path, "--no-checkpoints",
                                   "--flush-interval", "30")
    try:
        reborn_port = _ready["port"]
        response = request(reborn_port, {"op": "get", "record": 9})
        assert response["ok"] and response["value"] == 9009, response
        response = request(reborn_port, {"op": "verify"})
        assert response["ok"] and response["mismatches"] == []
        request(reborn_port, {"op": "shutdown"})
        reborn.wait(timeout=10)
    finally:
        if reborn.poll() is None:
            reborn.kill()
            reborn.wait(timeout=10)


def _vm_rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError("VmRSS not reported")


def test_server_memory_stays_flat_under_bulk_commits(tmp_path):
    """A server with spans on (its default) keeps what the log window
    needs, not what it has ever logged: across ~2,000 1024-update
    commits and the checkpoints between them, its resident set stops
    growing once the first third is done."""
    proc, ready = _spawn_server(tmp_path, "--scale", "64", "--no-fsync",
                                "--checkpoint-interval", "0.5")
    rng = random.Random(26)
    n_records = ready["n_records"]
    try:
        with socket.create_connection(("127.0.0.1", ready["port"]),
                                      timeout=30) as conn:
            replies = conn.makefile("rb")
            readings = []
            for i in range(2001):
                if i in (667, 2000):
                    readings.append(_vm_rss_mb(ready["pid"]))
                updates = [[rng.randrange(n_records), i] for _ in range(1024)]
                conn.sendall(json.dumps({"op": "txn", "updates": updates})
                             .encode() + b"\n")
                assert json.loads(replies.readline())["ok"]
        stats = request(ready["port"], {"op": "stats"})["stats"]
        assert stats["checkpoints_completed"] >= 3
        assert request(ready["port"], {"op": "verify"})["mismatches"] == []
        request(ready["port"], {"op": "shutdown"})
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    third, end = readings
    # the records logged in between would be ~180 MB if kept
    assert end - third < 20.0, readings


def test_server_round_trip_and_graceful_shutdown(tmp_path):
    proc, ready = _spawn_server(tmp_path, "--checkpoint-interval", "0.5")
    port = ready["port"]
    try:
        assert request(port, {"op": "ping"})["pong"] is True
        response = request(port, {"op": "txn",
                                  "updates": [[1, 10], [2, 20], [3, 30]]})
        assert response["ok"] and response["latency"] >= 0.0
        assert request(port, {"op": "get", "record": 2})["value"] == 20
        stats = request(port, {"op": "stats"})["stats"]
        assert stats["commits"] == 1
        assert request(port, {"op": "verify"})["mismatches"] == []
        spans = request(port, {"op": "spans"})["spans"]
        assert any(span["name"] == "txn" for span in spans)
        request(port, {"op": "shutdown"})
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
