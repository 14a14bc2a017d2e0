"""``repro serve``: the live host behind a get/put socket.

A deliberately small wire protocol -- one JSON object per line in each
direction -- because the server exists to close the loop on the paper's
claims, not to be a product: a real client produces real arrival times,
real fsync latency shows up in real acknowledgement times, and a real
``kill -9`` tests the recovery story against an actual filesystem.

Requests (``op`` selects):

``ping``                         liveness probe
``put {record, value}``          one-record transaction, ack after fsync
``txn {updates: [[r, v], ...]}`` multi-record atomic transaction
``get {record}``                 read one record
``stats``                        host counters
``spans``                        span snapshot (stall attribution input)
``checkpoint {hold_phase?, hold_seconds?}``
                                 start a checkpoint now, optionally
                                 parking the writer at a phase boundary
                                 for 0-60 s (the crash tests' SIGKILL
                                 window)
``verify``                       oracle-vs-database mismatch report
``shutdown``                     graceful stop

Record ids and values are JSON integers: a float, a string or a bool is
refused with ``{"ok": false}`` before anything is logged, never coerced.
Likewise ``hold_seconds`` must be a number (not a bool) in [0, 60]: a
longer hold would keep the log from ever being truncated.  A request
line may hold at most 1 MiB, its newline included (about 40 times a
1024-update ``txn``): the server reads no further, answers
``{"ok": false}`` and closes the connection, so a client that never
sends a newline cannot make it buffer without bound.

On startup the server prints a single JSON "ready" line (port, pid,
recovery summary, recovery timing) to stdout, which is how the bench
client finds the ephemeral port and how tests learn the pid to kill.
``check(data_dir)`` is the restart-verdict entry point (``repro serve
--check``): recover, verify against the oracle, report, exit -- no
socket.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from typing import Optional

from .host import LiveConfig, LiveHost

__all__ = ["check", "serve"]


def _record(request: dict) -> int:
    record = request["record"]
    if type(record) is not int:
        raise TypeError(f"record must be an integer, got {record!r}")
    return record


#: the longest a ``checkpoint`` op may park its writer, in seconds
_MAX_HOLD_SECONDS = 60.0

#: the longest request line read, newline included, in bytes
_MAX_LINE_BYTES = 1 << 20


def _hold_seconds(request: dict) -> float:
    seconds = request.get("hold_seconds", 1.0)
    # the range test also refuses NaN and the infinities
    if (type(seconds) not in (int, float)
            or not 0 <= seconds <= _MAX_HOLD_SECONDS):
        raise ValueError("hold_seconds must be a number in "
                         f"[0, {_MAX_HOLD_SECONDS:g}], got {seconds!r}")
    return float(seconds)


def _handle(host: LiveHost, request: dict) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op in ("put", "txn"):
        # the host takes the pairs as they came, ints only: a float, a
        # string or a bool is refused, never coerced
        result = host.submit([(request["record"], request["value"])]
                             if op == "put" else request["updates"])
        return {"ok": True, "txn_id": result.txn_id,
                "commit_lsn": result.commit_lsn, "latency": result.latency}
    if op == "get":
        return {"ok": True, "value": host.read(_record(request))}
    if op == "stats":
        return {"ok": True, "stats": host.stats()}
    if op == "spans":
        return {"ok": True, "spans": host.spans_snapshot()}
    if op == "checkpoint":
        phase = request.get("hold_phase")
        hold_seconds = _hold_seconds(request)
        checkpointer = host.checkpointer

        def start() -> bool:
            # One dispatcher callback: the paced scheduler (or another
            # client) cannot start a checkpoint between the test and
            # the start.  A refused op arms nothing: its hold would
            # park the next checkpoint, which nobody asked for.
            if checkpointer.active:
                return False
            if phase:
                checkpointer.arm_hold(phase, hold_seconds)
            checkpointer.start_checkpoint()
            return True

        if host.scheduler.call(start):
            return {"ok": True, "started": True}
        return {"ok": True, "started": False, "already_active": True}
    if op == "verify":
        mismatches = host.verify(limit=int(request.get("limit", 10)))
        return {"ok": True, "mismatches": [m._asdict() for m in mismatches]}
    if op == "shutdown":
        return {"ok": True, "stopping": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via subprocess
        host: LiveHost = self.server.live_host  # type: ignore[attr-defined]
        while True:
            raw = self.rfile.readline(_MAX_LINE_BYTES + 1)
            if not raw:
                return
            if len(raw) > _MAX_LINE_BYTES:
                self._reply({"ok": False, "error": (
                    f"request line longer than {_MAX_LINE_BYTES} bytes; "
                    "closing the connection")})
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                response = _handle(host, request)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            self._reply(response)
            if response.get("stopping"):
                self.server.stop_event.set()  # type: ignore[attr-defined]
                return

    def _reply(self, response: dict) -> None:
        self.wfile.write(json.dumps(response).encode() + b"\n")
        self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve(data_dir: str, port: int = 0, *,
          scale: int = 2048,
          checkpoint_interval: Optional[float] = 2.0,
          flush_interval: float = 0.005,
          fsync: bool = True,
          spans: bool = True,
          ready_stream=None) -> int:
    """Run the live service until a ``shutdown`` op arrives.

    Binds ``127.0.0.1:port`` (0 = ephemeral), announces readiness as one
    JSON line on ``ready_stream`` (default stdout), then serves.
    Returns the exit code.

    A ``put``/``txn`` is answered after the group flush it asked for has
    fsynced its commit record; ``flush_interval`` (positive) only bounds
    how long a record nobody waits on stays volatile.  Once a WAL flush
    has failed, every later ``put``/``txn`` is answered ``{"ok": false,
    "error": "WALFailedError: ..."}`` at once.
    """
    import sys
    stream = ready_stream if ready_stream is not None else sys.stdout
    config = LiveConfig(data_dir=data_dir, scale=scale,
                        checkpoint_interval=checkpoint_interval,
                        flush_interval=flush_interval, fsync=fsync,
                        spans=spans)
    host = LiveHost(config)
    recovery = host.start()
    server = _Server(("127.0.0.1", port), _Handler)
    server.live_host = host  # type: ignore[attr-defined]
    server.stop_event = threading.Event()  # type: ignore[attr-defined]
    bound_port = server.server_address[1]
    print(json.dumps({
        "event": "ready",
        "port": bound_port,
        "pid": os.getpid(),
        "data_dir": data_dir,
        "n_records": host.params.n_records,
        "recovery": recovery.as_dict(),
        "recovery_timing": host.recovery_timing,
    }), file=stream, flush=True)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        server.stop_event.wait()  # type: ignore[attr-defined]
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    server.shutdown()
    server.server_close()
    host.stop()
    return 0


def check(data_dir: str, *, scale: int = 2048, limit: int = 10) -> dict:
    """Restart + REDO + oracle verdict, without serving.

    The post-crash half of the crash-consistency loop: rebuild from
    whatever is on disk, then ask the independent oracle whether the
    recovered database matches the durably committed state.  Returns the
    JSON-ready report (``repro serve --check`` prints it).
    """
    config = LiveConfig(data_dir=data_dir, scale=scale,
                        checkpoint_interval=None, spans=False)
    host = LiveHost(config)
    recovery = host.recover()
    mismatches = host.verify(limit=limit)
    host.log.close()
    return {
        "event": "check",
        "data_dir": data_dir,
        "recovery": recovery.as_dict(),
        "recovery_timing": host.recovery_timing,
        "durable_commits": host.oracle.durable_commits,
        "mismatches": [m._asdict() for m in mismatches],
        "consistent": not mismatches,
    }


def request(port: int, payload: dict, timeout: float = 30.0) -> dict:
    """One-shot client request against a running server (test helper)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode() + b"\n")
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buffer += chunk
        return json.loads(buffer)
