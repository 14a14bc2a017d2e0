"""Server subprocesses and the closed-loop load generator.

Load model: ``CONNECTIONS`` persistent connections, each sending its
next request only when the previous reply has arrived -- callers that
wait for an answer, which is what a client of a durable-ack store is.
Two connections on a two-core box: one more would only queue behind the
generator's own interpreter lock.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
WORK_ROOT = REPO_ROOT / ".ckptbench_work"

CONNECTIONS = 2
#: generous: a reply this late is a failure, not a latency
REPLY_TIMEOUT = 60.0

now = time.monotonic


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory under the benchmark's work root."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class Connection:
    """One persistent JSON-line connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        self.sock.sendall(json.dumps(payload, separators=(",", ":")).encode()
                          + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """A live host in a subprocess, from spawn to reaped exit."""

    def __init__(self, argv: List[str]) -> None:
        self.spawned_at = now()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, cwd=REPO_ROOT, env=child_env())
        try:
            line = self.process.stdout.readline()
            self.ready = json.loads(line)
        except ValueError:
            self.kill()
            raise RuntimeError(f"server did not announce readiness: {line!r}")
        self.ready_s = now() - self.spawned_at
        self.port: int = self.ready["port"]
        self.pid: int = self.ready["pid"]

    @classmethod
    def launch(cls, data_dir: Path, *, scale: int,
               checkpoint_interval: Optional[float],
               trace_out: Optional[Path] = None) -> "Server":
        """Start the benchmark's launcher (``serve`` with ``spans=False``)."""
        argv = [sys.executable, str(HERE / "launcher.py"),
                "--data-dir", str(data_dir), "--scale", str(scale)]
        if checkpoint_interval is not None:
            argv += ["--checkpoint-interval", str(checkpoint_interval)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out),
                     "--spawned-at", repr(now())]
        return cls(argv)

    @classmethod
    def repro_serve(cls, data_dir: Path, *, scale: int) -> "Server":
        """Start the program's own entry point, as an operator would."""
        return cls([sys.executable, "-m", "repro", "serve", "--data-dir",
                    str(data_dir), "--scale", str(scale), "--no-checkpoints"])

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def shutdown(self) -> None:
        """Graceful stop; the process is reaped before this returns."""
        try:
            connection = Connection(self.port)
            try:
                connection.request({"op": "shutdown"})
            finally:
                connection.close()
            self.process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class Sample(NamedTuple):
    kind: str            # "get" | "txn"
    sent_at: float
    received_at: float
    #: the reply's own ``latency`` field (host submit -> durable ack), s
    host_latency: Optional[float]
    ok: bool

    @property
    def latency(self) -> float:
        return self.received_at - self.sent_at


#: record -> (txn_id, value) of the latest acknowledged write
Shadow = Dict[int, Tuple[int, int]]

#: builds one connection's next request from its own generator
OpMaker = Callable[[np.random.Generator, int], dict]


class LoadResult(NamedTuple):
    samples: List[Sample]     # every op, warm-up included
    #: latest acknowledged write per record, across connections
    shadow: Shadow
    measure_start: float
    measure_end: float
    #: what ``probe`` returned when connection 0 finished its
    #: ``probe_at_op``-th operation (None: it never got that far)
    probed: Optional[float]

    def measured(self, kind: Optional[str] = None) -> List[Sample]:
        return [s for s in self.samples
                if self.measure_start <= s.received_at < self.measure_end
                and (kind is None or s.kind == kind)]

    def acked_values(self) -> Dict[int, int]:
        return {record: value for record, (_, value) in self.shadow.items()}


def _merge_ack(shadow: Shadow, updates, txn_id: int) -> None:
    for record, value in updates:
        held = shadow.get(record)
        if held is None or held[0] <= txn_id:
            shadow[record] = (txn_id, value)


def closed_loop(port: int, make_op: OpMaker, *, seed: int, warmup: float,
                seconds: float, probe: Optional[Callable[[], float]] = None,
                probe_at_op: int = 0) -> LoadResult:
    """Drive ``CONNECTIONS`` closed loops for ``warmup + seconds``.

    Each connection owns a generator seeded from ``(seed, connection)``,
    so the request stream is a function of the seed alone; how far along
    it a run gets depends on the server.  ``probe`` is called once, when
    connection 0 has completed ``probe_at_op`` operations: a reading
    taken at a fixed amount of work, not at a fixed time.
    """
    start = now() + 0.05
    measure_start = start + warmup
    measure_end = measure_start + seconds
    per_connection: List[Tuple[List[Sample], Shadow]] = []
    probed: List[float] = []

    def loop(index: int) -> None:
        rng = np.random.default_rng([seed, index])
        samples: List[Sample] = []
        shadow: Shadow = {}
        per_connection.append((samples, shadow))
        connection = Connection(port)
        try:
            time.sleep(max(0.0, start - now()))
            sequence = 0
            while True:
                sequence += 1
                op = make_op(rng, index * 10**9 + sequence)
                sent_at = now()
                if sent_at >= measure_end:
                    break
                try:
                    reply = connection.request(op)
                except (OSError, ValueError):
                    samples.append(Sample(op["op"], sent_at, now(), None, False))
                    break
                received_at = now()
                ok = bool(reply.get("ok"))
                samples.append(Sample(op["op"], sent_at, received_at,
                                      reply.get("latency"), ok))
                if ok and op["op"] == "txn":
                    _merge_ack(shadow, op["updates"], reply["txn_id"])
                if probe is not None and index == 0 \
                        and sequence == probe_at_op:
                    probed.append(probe())
        finally:
            connection.close()

    threads = [threading.Thread(target=loop, args=(i,), name=f"loadgen-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples: List[Sample] = []
    shadow: Shadow = {}
    for conn_samples, conn_shadow in per_connection:
        samples.extend(conn_samples)
        for record, (txn_id, value) in conn_shadow.items():
            _merge_ack(shadow, [(record, value)], txn_id)
    return LoadResult(samples, shadow, measure_start, measure_end,
                      probed[0] if probed else None)


def seeded_sample(records: Sequence[int], limit: int, seed: int) -> List[int]:
    """All of ``records`` when there are at most ``limit``; otherwise a
    seeded sample of ``limit`` of them."""
    records = sorted(records)
    if len(records) <= limit:
        return records
    rng = np.random.default_rng([seed, 0xACE])
    return [records[i] for i in
            rng.choice(len(records), size=limit, replace=False)]


def read_back(port: int, expected: Dict[int, int],
              records: Iterable[int]) -> List[Sample]:
    """``get`` each of ``records``; a sample is ``ok`` when the server
    served the acknowledged value in ``expected``."""
    samples: List[Sample] = []
    connection = Connection(port)
    try:
        for record in records:
            sent_at = now()
            reply = connection.request({"op": "get", "record": record})
            ok = bool(reply.get("ok")) and reply["value"] == expected[record]
            samples.append(Sample("get", sent_at, now(), None, ok))
    finally:
        connection.close()
    return samples
