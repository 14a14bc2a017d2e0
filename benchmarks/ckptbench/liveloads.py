"""The three live-host workloads: ``live_oltp``, ``live_bulk``,
``live_restart``.

Flush policy, everywhere: ``fsync=True``, ``flush_interval=0.005`` (see
:mod:`launcher`).  Latencies are those of this sandbox's page-cache
fsync, not of a device.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

import numpy as np

import crashimage
import layers
from layers import Metrics, Outcome
from loadgen import (REPO_ROOT, WORK_ROOT, Connection, LoadResult, Sample,
                     Server, child_env, closed_loop, fresh_dir, now,
                     read_back, seeded_sample)
from stats import median
from tracing import live_layers_traced, read_spans

#: spawn-to-ready is measured on the server that takes the load and on
#: this many throwaway servers before it and again after it; the median
#: is reported.  The first spawn in a fresh checkout pays for cold
#: caches, and the machine's slow spells last seconds, so the samples
#: are spread over the run instead of taken back to back.
EXTRA_SPAWNS = 2
CHECKPOINT_INTERVAL = 2.0
#: a traced run measures the same load twice: this share of ``--seconds``
#: against an unwrapped server, the rest against the wrapped one
PLAIN_SHARE = 0.4


class LiveSpec(NamedTuple):
    name: str
    scale: int
    warmup: float
    #: user updates per transaction (throughput is counted in these
    #: when a transaction is the only kind of operation)
    txn_updates: int
    read_share: float
    #: shadowed acks read back over the socket after the run
    read_back_limit: int
    #: peak memory is read when connection 0 has done this many
    #: operations per second of run: about two thirds of what it manages,
    #: so the reading is taken at the same amount of work every run (the
    #: server's memory grows with the records it has logged)
    rss_at_ops_per_second: float


#: 4 M records, 32 MB image: the checkpoint copy is what hurts
OLTP = LiveSpec("live_oltp", scale=2, warmup=3.0, txn_updates=5,
                read_share=0.5, read_back_limit=20000,
                rss_at_ops_per_second=200.0)
#: 131 k records, 1 MB image: the dispatcher's per-record work is
BULK = LiveSpec("live_bulk", scale=64, warmup=2.0, txn_updates=1024,
                read_share=0.0, read_back_limit=5000,
                rss_at_ops_per_second=30.0)


def _op_maker(spec: LiveSpec, n_records: int) -> Callable:
    def make_op(rng: np.random.Generator, value: int) -> dict:
        if spec.read_share and rng.random() < spec.read_share:
            return {"op": "get", "record": int(rng.integers(n_records))}
        records = rng.integers(n_records, size=spec.txn_updates).tolist()
        return {"op": "txn", "updates": [[r, value] for r in records]}
    return make_op


def _throughput(spec: LiveSpec, load: LoadResult, seconds: float) -> float:
    done = [s for s in load.measured() if s.ok]
    if spec.read_share:
        return len(done) / seconds
    return len(done) * spec.txn_updates / seconds


def _verify(server: Server, load: LoadResult, spec: LiveSpec, seed: int,
            problems: List[str]) -> int:
    """Oracle verdict + read-back of the client's acks; returns checks.

    ``verify`` covers every record against the server's own oracle; the
    read-back covers the acks the *client* saw.
    """
    connection = Connection(server.port)
    try:
        verdict = connection.request({"op": "verify"})
    finally:
        connection.close()
    if not verdict.get("ok") or verdict["mismatches"]:
        problems.append(f"{spec.name}: verify reported {verdict}")
    acked = load.acked_values()
    reads = read_back(server.port, acked,
                      seeded_sample(acked, spec.read_back_limit, seed))
    problems.extend(f"{spec.name}: acked value not served"
                    for read in reads if not read.ok)
    return 1 + len(reads)


def run_live(spec: LiveSpec, seed: int, seconds: float,
             trace: bool) -> Outcome:
    work = fresh_dir(spec.name)
    try:
        if trace:
            return _run_live_traced(spec, seed, seconds, work)
        return _run_live_untraced(spec, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _launch(spec: LiveSpec, data_dir: Path,
            trace_out: Optional[Path] = None) -> Server:
    return Server.launch(data_dir, scale=spec.scale,
                         checkpoint_interval=CHECKPOINT_INTERVAL,
                         trace_out=trace_out)


def _throwaway_spawns(spec: LiveSpec, work: Path) -> List[float]:
    """Spawn-to-ready seconds of ``EXTRA_SPAWNS`` servers on empty
    directories, each shut down at once."""
    ready: List[float] = []
    for index in range(EXTRA_SPAWNS):
        server = _launch(spec, work / str(index))
        ready.append(server.ready_s)
        server.shutdown()
    return ready


def _run_live_untraced(spec: LiveSpec, seed: int, seconds: float,
                       work: Path) -> Outcome:
    setups = _throwaway_spawns(spec, work / "before")
    server = _launch(spec, work / "data")
    setups.append(server.ready_s)
    problems: List[str] = []
    try:
        load = closed_loop(
            server.port, _op_maker(spec, server.ready["n_records"]),
            seed=seed, warmup=spec.warmup, seconds=seconds,
            probe=server.peak_rss_mb,
            probe_at_op=int(spec.rss_at_ops_per_second
                            * (spec.warmup + seconds)))
        rss = load.probed if load.probed is not None \
            else server.peak_rss_mb()
        checks = _verify(server, load, spec, seed, problems)
    finally:
        server.shutdown()
    setups += _throwaway_spawns(spec, work / "after")
    commits = [s.latency * 1e3 for s in load.measured("txn") if s.ok]
    failed_ops = sum(not s.ok for s in load.samples)
    metrics: Metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_per_s": (_throughput(spec, load, seconds), "1/s",
                             len(load.measured())),
        "latency_p50_ms": (median(commits), "ms", len(commits)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    return Outcome(len(load.samples) + checks, failed_ops, problems, metrics)


def _run_live_traced(spec: LiveSpec, seed: int, seconds: float,
                     work: Path) -> Outcome:
    problems: List[str] = []
    # tracing overhead: the same load against an unwrapped server first
    server = _launch(spec, work / "plain")
    try:
        plain = closed_loop(server.port,
                            _op_maker(spec, server.ready["n_records"]),
                            seed=seed, warmup=spec.warmup,
                            seconds=PLAIN_SHARE * seconds)
    finally:
        server.shutdown()
    span_file = spans_path(spec.name)
    data_dir = work / "traced"
    server = _launch(spec, data_dir, trace_out=span_file)
    try:
        load = closed_loop(server.port,
                           _op_maker(spec, server.ready["n_records"]),
                           seed=seed, warmup=spec.warmup,
                           seconds=(1 - PLAIN_SHARE) * seconds)
        checks = _verify(server, load, spec, seed, problems)
    finally:
        server.shutdown()
    spans = [s for s in read_spans(span_file)
             if load.measure_start <= s["start"] < load.measure_end]
    client = layers.client_metrics(
        load.measured(),
        windows=(load.measure_start, load.measure_end, CHECKPOINT_INTERVAL))

    # the directory a clean shutdown left must recover to every ack;
    # traced in-process, which also exercises the restart layers
    acked = load.acked_values()
    with live_layers_traced() as tracer:
        missing, _ = crashimage.missing_after_recovery(
            data_dir, spec.scale, acked)
    checks += 1
    if missing:
        problems.append(f"{spec.name}: {missing} acked values lost by a "
                        f"restart after clean shutdown")
    live = layers.live_metrics(spans, elsewhere=tracer.spans)

    commits = [s.latency * 1e3 for s in load.measured("txn") if s.ok]
    plain_rate = _throughput(spec, plain, PLAIN_SHARE * seconds)
    traced_rate = _throughput(spec, load, (1 - PLAIN_SHARE) * seconds)
    metrics: Metrics = {**client, **live}
    metrics.update(layers.probe_metrics(
        list(acked.items())[:20000], spec.scale))
    metrics.update(layers.commit_budget(client, live, median(commits)))
    metrics["trace.overhead_share"] = (
        (plain_rate - traced_rate) / plain_rate if plain_rate else 0.0,
        "ratio", 1)
    failed_ops = sum(not s.ok for s in plain.samples + load.samples)
    return Outcome(len(plain.samples) + len(load.samples) + checks,
                   failed_ops, problems, metrics)


def spans_path(workload: str) -> Path:
    directory = WORK_ROOT / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{workload}.jsonl"


# -- live_restart ------------------------------------------------------------

RESTART_SCALE = 64
#: five-update commits that end up only in the checkpoint image
SMALL_COMMITS = 200
#: 1024-update commits that restart must scan, decode and replay
BULK_COMMITS = 200
MIN_RESTARTS = 5


def _build(work: Path, seed: int) -> crashimage.CrashImage:
    return crashimage.build_crash_image(
        work, seed=seed, scale=RESTART_SCALE, small_commits=SMALL_COMMITS,
        bulk_commits=BULK_COMMITS, bulk_updates=1024)


class Restart(NamedTuple):
    server: Server
    seconds: float


def _restart(image: crashimage.CrashImage, target: Path, expected: dict,
             problems: List[str], trace_out: Optional[Path] = None) -> Restart:
    """Spawn a server on a fresh copy; time spawn -> first ``get`` reply.

    ``expected`` is the recovery summary ``serve --check`` gave for the
    same image: every restart must find the same torn log.
    """
    crashimage.copy_image(image, target)
    if trace_out is None:
        server = Server.repro_serve(target, scale=image.scale)
    else:
        server = Server.launch(target, scale=image.scale,
                               checkpoint_interval=None, trace_out=trace_out)
    connection = Connection(server.port)
    try:
        reply = connection.request({"op": "get", "record": 0})
    finally:
        connection.close()
    elapsed = now() - server.spawned_at
    if not reply.get("ok"):
        problems.append(f"live_restart: first get failed: {reply}")
    if server.ready["recovery"] != expected:
        problems.append(f"live_restart: recovered {server.ready['recovery']}, "
                        f"serve --check said {expected}")
    return Restart(server, elapsed)


def _read_back_restart(server: Server, image: crashimage.CrashImage,
                       seed: int, problems: List[str]) -> List[Sample]:
    """Read acked values from the restarted server: every record of the
    image-only commits and of the last three commits before the crash
    (the ones a lost flush would take), plus a seeded sample of the rest.
    """
    shadow = image.shadow()
    at_risk = {record for commit in
               image.acked[:image.in_image] + image.acked[-3:]
               for record, _ in commit}
    reads = read_back(server.port, shadow,
                      sorted(at_risk | set(seeded_sample(shadow, 4000, seed))))
    problems.extend("live_restart: acked value not served"
                    for read in reads if not read.ok)
    return reads


def _serve_check(image: crashimage.CrashImage, target: Path,
                 problems: List[str]) -> dict:
    """``repro serve --check`` on a fresh copy must say ``consistent``,
    see the torn tail, and replay exactly the commits the image does not
    hold.  Returns its recovery summary."""
    crashimage.copy_image(image, target)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--data-dir", str(target),
         "--scale", str(image.scale), "--check"],
        cwd=REPO_ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120)
    try:
        report = json.loads(done.stdout)
    except ValueError:
        report = {}
    recovery = report.get("recovery", {})
    if done.returncode != 0 or not report.get("consistent"):
        problems.append(f"live_restart: serve --check failed "
                        f"(exit {done.returncode}): {done.stdout[-300:]}")
    elif not recovery["torn_tail"]:
        problems.append("live_restart: serve --check saw no torn tail")
    elif (recovery["transactions_replayed"]
          != len(image.acked) - image.in_image):
        problems.append(
            f"live_restart: {recovery['transactions_replayed']} commits "
            f"replayed, {len(image.acked) - image.in_image} acked after "
            f"the checkpoint")
    return recovery


def run_restart(seed: int, seconds: float, trace: bool) -> Outcome:
    work = fresh_dir("live_restart")
    try:
        problems: List[str] = []
        if not crashimage.checker_catches_lost_commit(work, seed):
            problems.append("live_restart: the durability check did not "
                            "catch an image with an acked commit removed")
        if trace:
            return _run_restart_traced(seed, work, problems)
        return _run_restart_untraced(seed, seconds, work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_restart_untraced(seed: int, seconds: float, work: Path,
                          problems: List[str]) -> Outcome:
    image = _build(work / "first", seed)
    # first process on this memory and these files: not a measurement
    expected = _serve_check(image, work / "check", problems)
    restarts: List[float] = []
    rss: List[float] = []
    deadline = now() + seconds
    server: Optional[Server] = None
    try:
        while len(restarts) < MIN_RESTARTS or now() < deadline:
            if server is not None:
                server.shutdown()
            server, elapsed = _restart(image, work / "restart", expected,
                                       problems)
            restarts.append(elapsed)
            rss.append(server.peak_rss_mb())
        reads = _read_back_restart(server, image, seed, problems)
    finally:
        if server is not None:
            server.shutdown()
    # set-up a second time, away from the first (see EXTRA_SPAWNS)
    builds = [image.build_s, _build(work / "second", seed).build_s]
    typical = median(restarts)
    metrics: Metrics = {
        "setup_s": (median(builds), "s", len(builds)),
        "throughput_per_s": (expected.get("records_scanned", 0) / typical,
                             "1/s", len(restarts)),
        "latency_p50_ms": (typical * 1e3, "ms", len(restarts)),
        "peak_rss_mb": (median(rss), "MB", len(rss)),
    }
    # attempted: restarts, read-backs, the --check and the self-test
    attempted = len(restarts) + len(reads) + 2
    return Outcome(attempted, 0, problems, metrics)


def _run_restart_traced(seed: int, work: Path,
                        problems: List[str]) -> Outcome:
    with live_layers_traced() as tracer:
        image = _build(work, seed)
    expected = _serve_check(image, work / "check", problems)
    plain = _restart(image, work / "restart", expected, problems)
    plain.server.shutdown()
    span_file = spans_path("live_restart")
    traced = _restart(image, work / "restart", expected, problems,
                      trace_out=span_file)
    try:
        reads = _read_back_restart(traced.server, image, seed, problems)
    finally:
        traced.server.shutdown()
    # the build's spans supply the commit-path layers a restart bypasses
    live = layers.live_metrics(read_spans(span_file),
                               elsewhere=tracer.spans)
    updates = [u for commit in image.acked[-20:] for u in commit]
    metrics: Metrics = {**layers.client_metrics(reads), **live}
    metrics.update(layers.probe_metrics(updates, image.scale))
    metrics.update(layers.restart_budget(live, traced.seconds * 1e3))
    metrics["trace.overhead_share"] = (
        (traced.seconds - plain.seconds) / plain.seconds, "ratio", 1)
    tracer.write(spans_path("live_restart.build"))
    attempted = 2 + len(reads) + 2
    return Outcome(attempted, 0, problems, metrics)
