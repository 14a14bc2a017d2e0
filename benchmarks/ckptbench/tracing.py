"""Spans recorded from outside the program.

The benchmark owns every span: :func:`trace_live_layers` replaces the
public functions and methods at each layer boundary of the live host
with wrappers that time the call, and restores them afterwards.  No
span is added inside ``src/``, and the host's own ``spans=True``
recorder is not used for any number.

A span is ``{id, name, start, end, parent, request, ...counts}``.
Times are ``time.monotonic()`` seconds, which on Linux is one
system-wide clock, so spans written by the server subprocess line up
with the client's send and receive times.  Spans are kept in memory and
written as JSON lines when the traced process shuts down.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "trace_live_layers", "live_layers_traced",
           "read_spans"]

now = time.monotonic


class Tracer:
    """In-memory span recorder with a per-thread current span."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def context(self) -> Tuple[Optional[int], Optional[int]]:
        """``(current span id, request id)`` of the calling thread."""
        local = self._local
        return getattr(local, "span", None), getattr(local, "request", None)

    @contextmanager
    def span(self, name: str, *, root: bool = False,
             context: Optional[Tuple[Optional[int], Optional[int]]] = None,
             **counts) -> Iterator[dict]:
        """Record one span around the ``with`` body.

        ``root`` starts a new request; ``context`` adopts a parent and
        request captured on another thread (the dispatcher running a
        callback a socket worker enqueued).
        """
        local = self._local
        saved = self.context()
        parent, request = context if context is not None else saved
        if root:
            parent, request = None, next(self._requests)
        record = {"id": next(self._ids), "name": name, "start": now(),
                  "end": 0.0, "parent": parent, "request": request}
        record.update(counts)
        local.span, local.request = record["id"], request
        try:
            yield record
        finally:
            record["end"] = now()
            local.span, local.request = saved
            self.spans.append(record)

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, *, root: bool = False,
             before: Optional[Callable[..., dict]] = None,
             after: Optional[Callable[..., dict]] = None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``before(*args)`` returns counts to store on the span (records
        in a flush); ``after(span, result, *args)`` adds the ones known
        only once the call returned (bytes in an image).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            counts = before(*args) if before is not None else {}
            with self.span(name, root=root, **counts) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, result, *args)
                return result

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``, remembering the original for ``unwrap_all``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every function :meth:`wrap` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def write(self, path: os.PathLike) -> None:
        with open(path, "w") as file:
            for record in self.spans:
                file.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_spans(path: os.PathLike) -> List[dict]:
    with open(path) as file:
        return [json.loads(line) for line in file if line.strip()]


@contextmanager
def live_layers_traced() -> Iterator[Tracer]:
    """Trace the live layers of *this* process for the ``with`` body."""
    tracer = Tracer()
    trace_live_layers(tracer)
    try:
        yield tracer
    finally:
        tracer.unwrap_all()


def _sized(result_or_arg) -> int:
    return len(result_or_arg) if hasattr(result_or_arg, "__len__") else 0


def trace_live_layers(tracer: Tracer) -> None:
    """Wrap the live host's layer boundaries (undo: ``unwrap_all``).

    Per-record functions (``install_record``, ``encode_record``,
    ``append_update``) are *not* wrapped: a span per record would cost
    more than the call.  They are measured by probes instead.
    """
    from repro.live import wal as live_wal
    from repro.live.host import LiveCheckpointer, LiveHost
    from repro.live.scheduler import LiveScheduler
    from repro.live.store import ImageStore
    from repro.live.wal import DurableLog
    from repro.mmdb.database import Database
    from repro.recovery.replay import RedoApplier
    from repro.sim.oracle import CommittedStateOracle

    wrap = tracer.wrap
    wrap(LiveHost, "__init__", "live.host.init")
    wrap(LiveHost, "recover", "live.host.recover")
    wrap(LiveHost, "submit", "live.host.submit", root=True,
         before=lambda host, updates, *a: {"updates": len(updates)})
    wrap(LiveHost, "read", "live.host.read", root=True)
    wrap(LiveCheckpointer, "start_checkpoint", "live.ckpt.sync", root=True)
    size = os.path.getsize

    def flushed(span, _, log) -> None:
        span["bytes"] += size(log.path)

    wrap(DurableLog, "flush", "live.wal.flush",
         before=lambda log: {"records": log.tail_records,
                             "bytes": -size(log.path)},
         after=flushed)
    # bytes rewritten: the whole surviving log goes through a temp file
    wrap(DurableLog, "truncate_stable_before", "live.wal.truncate",
         after=lambda span, reclaimed, log, lsn: span.update(
             bytes=size(log.path) if reclaimed else 0))
    wrap(DurableLog, "hydrate", "live.wal.hydrate")
    wrap(live_wal, "scan_wal", "live.wal.scan",
         after=lambda span, result, data: span.update(
             records=len(result[0]), bytes=len(data)))
    wrap(ImageStore, "install", "live.store.install",
         after=lambda span, _, store, *a: span.update(bytes=size(store.path)))
    wrap(ImageStore, "load", "live.store.load")
    wrap(Database, "values_snapshot", "mmdb.snapshot")
    wrap(Database, "load_values", "mmdb.load_values")
    wrap(RedoApplier, "feed", "recovery.redo",
         before=lambda applier, records: {"records": _sized(records)})
    wrap(CommittedStateOracle, "feed", "sim.oracle.feed",
         before=lambda oracle, records: {"records": _sized(records)})
    wrap(os, "fsync", "os.fsync")

    # The dispatcher queue: the span covers the callback's run on the
    # dispatcher thread and records how long it sat in the heap first.
    # The callback's qualified name says which layer enqueued it
    # (``LiveHost.submit.<locals>.execute``, the checkpointer's
    # ``finish``, ``LiveScheduler.call.<locals>.wrapper`` for reads).
    original_submit = LiveScheduler.submit

    @functools.wraps(original_submit)
    def traced_submit(scheduler, callback):
        enqueued_at = now()
        context = tracer.context()
        label = getattr(callback, "__qualname__", "callback").split(".")[-1]

        def dispatched() -> None:
            with tracer.span("live.scheduler.callback", context=context,
                             fn=label, wait=now() - enqueued_at):
                callback()

        return original_submit(scheduler, dispatched)

    tracer.replace(LiveScheduler, "submit", traced_submit)
