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
``get {record}``                 read one record, once no crash can
                                 take its value back
``stats``                        host counters
``spans``                        span snapshot (stall attribution input)
``checkpoint {hold_phase?, hold_seconds?}``
                                 start a checkpoint now, optionally
                                 parking the writer at a phase boundary
                                 for 0-60 s (the crash tests' SIGKILL
                                 window)
``verify``                       database vs. the state rebuilt from
                                 the image and WAL files
``shutdown``                     graceful stop

Record ids and values are JSON integers: a float, a string or a bool is
refused with ``{"ok": false}`` before anything is logged, never coerced.
Likewise ``hold_seconds`` must be a number (not a bool) in [0, 60]: a
longer hold would keep the log from ever being truncated.  A request
line may hold at most 1 MiB, its newline included (about 40 times a
1024-update ``txn``): the server reads no further, answers
``{"ok": false}`` and closes the connection, so a client that never
sends a newline cannot make it buffer without bound.

There are no socket threads.  The listening socket and every connection
are watched by the host's dispatcher
(:meth:`~repro.live.scheduler.LiveScheduler.watch`), so a request is
read, parsed and answered on the thread that runs the kernel, with no
hand-off between threads: a ``put``/``txn`` calls
:meth:`LiveHost.commit <repro.live.host.LiveHost.commit>`, a ``get``
:meth:`LiveHost.fetch <repro.live.host.LiveHost.fetch>`, and each
writes its reply from the callback that gets the outcome.  A connection
keeps one ``bytearray`` of input, split into lines, and has at most one
request in flight: its next line is parsed only once the reply to the
previous one has been handed to the kernel, so replies come back in
request order.  Sockets are non-blocking.  A reply the kernel will not
take at once waits for the socket to become writable, and the
connection is read no further meanwhile, so a client that sends but
never reads stalls only itself.  Lines complete before a client's end
of file are still answered; a partial one is dropped with the
connection.

On startup the server prints a single JSON "ready" line (port, pid,
recovery summary, recovery timing) to stdout, which is how the bench
client finds the ephemeral port and how tests learn the pid to kill.
``check(data_dir)`` is the restart-verdict entry point (``repro serve
--check``): recover, verify against the files, report, exit -- no
socket.
"""

from __future__ import annotations

import json
import os
import socket
from functools import partial
from selectors import EVENT_READ, EVENT_WRITE
from typing import Callable, Optional, Set, Union

from .host import LiveConfig, LiveHost, transaction_columns

__all__ = ["Endpoint", "check", "serve"]

Reply = Callable[[dict], None]


def _record(request: dict) -> int:
    record = request["record"]
    if type(record) is not int:
        raise TypeError(f"record must be an integer, got {record!r}")
    return record


#: the longest a ``checkpoint`` op may park its writer, in seconds
_MAX_HOLD_SECONDS = 60.0

#: the longest request line read, newline included, in bytes
_MAX_LINE_BYTES = 1 << 20

#: the most one ``recv`` takes from a connection
_RECV_BYTES = 1 << 16


def _hold_seconds(request: dict) -> float:
    seconds = request.get("hold_seconds", 1.0)
    # the range test also refuses NaN and the infinities
    if (type(seconds) not in (int, float)
            or not 0 <= seconds <= _MAX_HOLD_SECONDS):
        raise ValueError("hold_seconds must be a number in "
                         f"[0, {_MAX_HOLD_SECONDS:g}], got {seconds!r}")
    return float(seconds)


def _refusal(exc: BaseException) -> dict:
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _committed(reply: Reply, outcome) -> None:
    if isinstance(outcome, BaseException):
        reply(_refusal(outcome))
        return
    reply({"ok": True, "txn_id": outcome.txn_id,
           "commit_lsn": outcome.commit_lsn, "latency": outcome.latency})


def _fetched(reply: Reply, outcome) -> None:
    reply(_refusal(outcome) if isinstance(outcome, BaseException)
          else {"ok": True, "value": outcome})


def _handle(host: LiveHost, request: dict, reply: Reply) -> None:
    """Serve one request (dispatcher thread): ``reply`` gets the answer,
    now or from the host callback it was handed to.  An exception means
    the request was refused before anything was handed over."""
    op = request.get("op")
    if op in ("put", "txn"):
        # the host takes the pairs as they came, ints only: a float, a
        # string or a bool is refused, never coerced
        updates = ([(request["record"], request["value"])] if op == "put"
                   else request["updates"])
        host.commit(*transaction_columns(updates), partial(_committed, reply))
    elif op == "get":
        host.fetch(_record(request), partial(_fetched, reply))
    else:
        reply(_answer(host, op, request))


def _answer(host: LiveHost, op, request: dict) -> dict:
    """The ops answered at once."""
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {"ok": True, "stats": host.stats()}
    if op == "spans":
        return {"ok": True, "spans": host.spans_snapshot()}
    if op == "checkpoint":
        phase = request.get("hold_phase")
        hold_seconds = _hold_seconds(request)
        checkpointer = host.checkpointer
        # One dispatcher step: the paced scheduler (or another client)
        # cannot start a checkpoint between the test and the start.  A
        # refused op arms nothing: its hold would park the next
        # checkpoint, which nobody asked for.
        if checkpointer.active:
            return {"ok": True, "started": False, "already_active": True}
        if phase:
            checkpointer.arm_hold(phase, hold_seconds)
        checkpointer.start_checkpoint()
        return {"ok": True, "started": True}
    if op == "verify":
        mismatches = host.verify(limit=int(request.get("limit", 10)))
        return {"ok": True, "mismatches": [m._asdict() for m in mismatches]}
    if op == "shutdown":
        return {"ok": True, "stopping": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


class _Connection:
    """One client socket: its unparsed input, its unsent reply, and
    whether a request is in flight (dispatcher thread only)."""

    __slots__ = ("endpoint", "sock", "inbox", "unsent", "events", "busy",
                 "parsing", "eof", "stopping")

    def __init__(self, endpoint: "Endpoint", sock: socket.socket) -> None:
        self.endpoint = endpoint
        #: None once closed
        self.sock: Optional[socket.socket] = sock
        self.inbox = bytearray()
        self.unsent: Union[bytes, memoryview] = b""
        #: what the dispatcher watches the socket for
        self.events = 0
        #: a request was parsed and its reply is not yet with the kernel
        self.busy = False
        #: :meth:`_next` is on the stack (it serves the next line itself)
        self.parsing = False
        #: read no further: the client's end of file, an oversized line
        #: or a shutdown
        self.eof = False
        #: the reply being sent answers a ``shutdown``
        self.stopping = False
        self._rewatch()

    def ready(self, events: int) -> None:
        """The selector's callback."""
        if self.sock is None:  # closed earlier in this turn
            return
        try:
            if events & EVENT_WRITE:
                self._send()
            else:
                self._receive()
        except Exception as exc:  # noqa: BLE001 - this connection only
            self._failed(exc)

    def reply(self, response: dict) -> None:
        """Answer the request in flight, from whichever callback has
        the outcome."""
        if self.sock is None:
            return
        try:
            self.unsent = json.dumps(response).encode() + b"\n"
            if response.get("stopping"):
                self.stopping = self.eof = True
                self.inbox = bytearray()
            self._send()
        except Exception as exc:  # noqa: BLE001 - this connection only
            self._failed(exc)

    def close(self) -> None:
        sock = self.sock
        if sock is None:
            return
        if self.events:
            self.endpoint.scheduler.watch(sock, 0)
        sock.close()
        self.sock = None
        self.inbox = bytearray()
        self.unsent = b""
        self.endpoint.connections.discard(self)

    def _failed(self, exc: Exception) -> None:
        endpoint = self.endpoint
        endpoint.failures += 1
        endpoint.last_failure = exc
        self.close()

    def _receive(self) -> None:
        try:
            received = self.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            self.close()
            return
        if received:
            self.inbox += received
        else:
            self.eof = True
        self._next()

    def _next(self) -> None:
        """Serve complete lines until a request is in flight, then
        watch for whatever the connection waits on."""
        self.parsing = True
        try:
            while not self.busy and self.sock is not None:
                inbox = self.inbox
                end = inbox.find(b"\n", 0, _MAX_LINE_BYTES)
                if end < 0:
                    if len(inbox) >= _MAX_LINE_BYTES:
                        self.busy = self.eof = True
                        self.inbox = bytearray()
                        self.reply({"ok": False, "error": (
                            f"request line longer than {_MAX_LINE_BYTES} "
                            "bytes; closing the connection")})
                        continue  # closes once the reply is out
                    if self.eof:
                        self.close()
                    break
                if end + 1 == len(inbox):
                    line, self.inbox = inbox, bytearray()
                else:
                    line = inbox[:end + 1]
                    del inbox[:end + 1]
                if line.isspace():
                    continue
                self.busy = True
                try:
                    _handle(self.endpoint.host, json.loads(line), self.reply)
                except Exception as exc:  # noqa: BLE001 - told to the client
                    self.reply(_refusal(exc))
        finally:
            self.parsing = False
        self._rewatch()

    def _send(self) -> None:
        try:
            sent = self.sock.send(self.unsent)
        except BlockingIOError:
            sent = 0
        except OSError:  # the peer is gone
            self.close()
            return
        if sent < len(self.unsent):
            self.unsent = memoryview(self.unsent)[sent:]
            self._rewatch()
            return
        self.unsent = b""
        self.busy = False
        if self.stopping and self.endpoint.on_shutdown is not None:
            self.endpoint.on_shutdown()
        if not self.parsing and (self.inbox or self.eof):
            # never parse inside the callback that replied (a flush's
            # waiter, say): the next line is served as its own callback
            self.endpoint.scheduler.submit(self._next)
        else:
            self._rewatch()

    def _rewatch(self) -> None:
        if self.sock is None:
            return
        if self.unsent:
            events = EVENT_WRITE
        elif self.eof or len(self.inbox) >= _MAX_LINE_BYTES:
            events = 0  # nothing more to read, or enough already
        else:
            events = EVENT_READ
        if events != self.events:
            self.endpoint.scheduler.watch(self.sock, events, self.ready)
            self.events = events


class Endpoint:
    """The listening socket on ``127.0.0.1:port`` (0 = ephemeral) and its
    connections, served by ``host``'s dispatcher; ``on_shutdown()`` runs
    there once a ``shutdown`` op's reply is with the kernel.  Build it
    from any thread once the host has started; :meth:`close` it on the
    dispatcher (``host.scheduler.call(endpoint.close)``) before the host
    stops.

    An exception while serving one connection closes that connection
    only.  It is counted in ``failures`` and the latest one is kept in
    ``last_failure``: a client can cause any number of them, so none is
    appended to the scheduler's ``errors``, which nothing drains."""

    def __init__(self, host: LiveHost, port: int = 0,
                 on_shutdown: Optional[Callable[[], None]] = None) -> None:
        self.host = host
        self.scheduler = host.scheduler
        self.on_shutdown = on_shutdown
        self.connections: Set[_Connection] = set()
        #: connections closed by an exception serving them, and the
        #: latest such exception
        self.failures = 0
        self.last_failure: Optional[BaseException] = None
        self.listener = socket.create_server(("127.0.0.1", port))
        self.listener.setblocking(False)
        self.port: int = self.listener.getsockname()[1]
        self.scheduler.call(partial(self.scheduler.watch, self.listener,
                                    EVENT_READ, self._accept))

    def _accept(self, events: int) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:  # none left (or none to be had right now)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections.add(_Connection(self, sock))

    def close(self) -> None:
        """Close every connection and the listener (dispatcher thread)."""
        for connection in list(self.connections):
            connection.close()
        self.scheduler.watch(self.listener, 0)
        self.listener.close()


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
    endpoint: Optional[Endpoint] = None

    def announce(settle: Callable[[object], None]) -> None:
        nonlocal endpoint
        endpoint = Endpoint(host, port, on_shutdown=partial(settle, None))
        print(json.dumps({
            "event": "ready",
            "port": endpoint.port,
            "pid": os.getpid(),
            "data_dir": data_dir,
            "n_records": host.params.n_records,
            "recovery": recovery.as_dict(),
            "recovery_timing": host.recovery_timing,
        }), file=stream, flush=True)

    try:
        # serve until a shutdown op has been answered
        host.scheduler.wait(announce, timeout=None)
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        if endpoint is not None:
            host.scheduler.call(endpoint.close)
        host.stop()
    return 0


def check(data_dir: str, *, scale: int = 2048, limit: int = 10) -> dict:
    """Restart + REDO + verdict, without serving.

    The post-crash half of the crash-consistency loop: rebuild from
    whatever is on disk, then check the result against the files
    (:meth:`LiveHost.verify <repro.live.host.LiveHost.verify>`).
    Returns the JSON-ready report (``repro serve --check`` prints it).
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
        "durable_commits": recovery.transactions_replayed,
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
