"""Begin/end spans with parent links: the *why was this slow* layer.

Where :mod:`repro.obs.telemetry` aggregates (counters, histograms),
spans keep individual timed windows with causal structure: every
transaction is a root span whose children record exactly where its
latency went (quiesce queueing, lock waits, CPU service, rerun
backoffs), every checkpoint is a root span over its phase windows
(quiesce, per-segment WAL waits and image writes, paint marks), WAL
group flushes and fault-injector retry backoffs are point/interval
events.  :mod:`repro.obs.attribution` joins the two families to
decompose tail latency by cause.

The guard contract is the telemetry one, verbatim: instrumented sites
hold one shared :class:`SpanRecorder` and wrap each site in::

    if self.spans.enabled:
        handle = self.spans.begin("txn.lock_wait", parent=root, ...)

so a disabled run pays one attribute load plus a predicate per site --
no argument evaluation, no allocation.  :data:`NULL_SPANS` is the
module-level disabled default.  Recording never feeds back into the
simulation: no randomness is drawn, no events are scheduled, and the
only clock use is *reading* ``clock.now`` -- fixed-seed results are
bit-identical with spans on or off (enforced by ``tests/test_obs.py``).

The recorder holds the clock (normally the
:class:`~repro.sim.engine.EventEngine`) because several instrumented
components -- :class:`~repro.wal.log.LogManager`,
:class:`~repro.faults.injector.FaultInjector` -- have no engine
reference of their own.

Span handles are plain ints: span ids, counted up from 0 in the order
spans are recorded.  ``-1`` is the universal "no span" handle, accepted
everywhere as a no-op, so call sites can thread handles through
closures without re-guarding.  The recorder keeps the most recent
``capacity`` spans: recording one more evicts the oldest, and a handle
below the eviction horizon (``dropped``) ends as a counted-out no-op.
Until anything is evicted a span's id is its index in the snapshot, so
a run that stays under the cap records exactly what an unbounded list
would.  :func:`chrome_trace` renders a snapshot as Trace Event JSON
that loads directly in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List

__all__ = ["NULL_SPANS", "SpanRecorder", "chrome_trace"]

#: default number of spans a recorder keeps; see ``SpanRecorder.dropped``
DEFAULT_SPAN_CAPACITY = 250_000


class SpanRecorder:
    """An on/off switch in front of a bounded window of recent spans."""

    __slots__ = ("enabled", "clock", "spans", "capacity", "dropped")

    def __init__(self, enabled: bool = True, clock: Any = None,
                 capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        self.enabled = enabled
        #: anything with a ``now`` attribute (the event engine); None is
        #: fine for a disabled recorder or for pure ``emit`` use
        self.clock = clock
        #: the retained spans, oldest first; ``spans[i]`` has id
        #: ``dropped + i``
        self.spans: Deque[Dict[str, Any]] = deque()
        #: most spans kept at once (positive)
        self.capacity = capacity
        #: spans evicted, oldest first, to make room for newer ones --
        #: which is also the id of the oldest span still held
        self.dropped = 0

    # -- recording ---------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulated time (0.0 without a clock)."""
        clock = self.clock
        return clock.now if clock is not None else 0.0

    def _record(self, span: Dict[str, Any]) -> int:
        spans = self.spans
        if len(spans) >= self.capacity:
            spans.popleft()
            self.dropped += 1
        spans.append(span)
        return self.dropped + len(spans) - 1

    def begin(self, name: str, parent: int = -1, **fields: Any) -> int:
        """Open a span starting now; returns its handle (-1 if disabled)."""
        if not self.enabled:
            return -1
        return self._record({"name": name, "start": self.now, "end": None,
                             "parent": parent, "fields": fields})

    def end(self, handle: int, **fields: Any) -> None:
        """Close the span ``handle`` at the current time.

        A negative handle (disabled site, or a closure that never opened
        one) or an evicted span is a no-op, so callers may end
        unconditionally once they hold a handle.
        """
        index = handle - self.dropped
        if index < 0:       # the -1 handle, or an evicted span
            return
        span = self.spans[index]
        span["end"] = self.now
        if fields:
            span["fields"].update(fields)

    def emit(self, name: str, start: float, duration: float,
             parent: int = -1, **fields: Any) -> int:
        """Record a complete span with a known extent in one call.

        For windows whose duration is computed rather than waited out
        (rerun backoffs, fault retry backoffs) and for point events
        (``duration=0.0``: WAL flushes, paint marks).
        """
        if not self.enabled:
            return -1
        return self._record({"name": name, "start": start,
                             "end": start + duration, "parent": parent,
                             "fields": fields})

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def counts(self) -> Dict[str, int]:
        """Recorded spans per name (for trace summaries)."""
        out: Dict[str, int] = {}
        for span in self.spans:
            name = span["name"]
            out[name] = out.get(name, 0) + 1
        return out

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready span dicts, ids attached, open spans clamped.

        A span can be open at snapshot time when a crash abandoned it
        (the component holding its handle was volatile); such spans get
        ``end`` clamped to the latest time the recorder ever saw and
        are marked ``"open": true`` so consumers can tell a clamped
        window from a measured one.
        """
        horizon = 0.0
        for span in self.spans:
            end = span["end"]
            extent = span["start"] if end is None else end
            if extent > horizon:
                horizon = extent
        out = []
        for span_id, span in enumerate(self.spans, start=self.dropped):
            end = span["end"]
            record = {
                "id": span_id,
                "name": span["name"],
                "start": span["start"],
                "end": max(span["start"], horizon) if end is None else end,
                "parent": span["parent"],
                "fields": dict(span["fields"]),
            }
            if end is None:
                record["open"] = True
            out.append(record)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"SpanRecorder({state}, {len(self.spans)} spans)"


def chrome_trace(spans: List[Dict[str, Any]], *,
                 time_scale: float = 1e6) -> Dict[str, Any]:
    """Render a span snapshot as Chrome Trace Event JSON.

    The output is the ``{"traceEvents": [...]}`` object format: one
    complete (``ph="X"``) event per span with microsecond timestamps
    (simulated seconds times ``time_scale``), plus ``thread_name``
    metadata events mapping each span family (the name up to the first
    dot: ``txn``, ``ckpt``, ``wal``, ``fault``) onto its own thread row.
    Loads as-is in Perfetto or ``chrome://tracing``.
    """
    categories = sorted({span["name"].split(".", 1)[0] for span in spans})
    tids = {category: tid for tid, category in enumerate(categories, start=1)}
    events: List[Dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": category}}
        for category, tid in tids.items()
    ]
    for span in spans:
        category = span["name"].split(".", 1)[0]
        args = dict(span["fields"])
        args["span_id"] = span["id"]
        if span["parent"] >= 0:
            args["parent"] = span["parent"]
        if span.get("open"):
            args["open"] = True
        events.append({
            "name": span["name"],
            "cat": category,
            "ph": "X",
            "ts": span["start"] * time_scale,
            "dur": (span["end"] - span["start"]) * time_scale,
            "pid": 1,
            "tid": tids[category],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: The shared no-op default.  Never enable this instance; build a fresh
#: ``SpanRecorder(enabled=True, clock=engine)`` per run instead, so
#: runs don't interleave spans in one global list.
NULL_SPANS = SpanRecorder(enabled=False)
