"""Checkpoint-stall attribution: joining transaction spans against the
checkpoint / WAL spans that overlap them.

The paper's central question -- *how much does checkpointing interfere
with transaction processing?* -- is answered in aggregate by the
Section 4 overhead metric.  This module answers the per-transaction
version: for each committed transaction (a root ``txn`` span from
:mod:`repro.obs.spans`), its response time is decomposed into named
causes by clipping its child wait spans against the transaction window
and splitting lock waits and rerun backoffs by whether they overlap an
active checkpoint:

``ckpt.quiesce``
    parked in the quiesce queue while a copy-on-update checkpoint began
    (always checkpoint-caused by construction);
``ckpt.lock`` / ``lock``
    exclusive-lock waits, split by overlap with a ``ckpt`` root span --
    the checkpointer holding segment locks versus plain txn-txn
    conflicts;
``ckpt.backoff`` / ``backoff``
    rerun backoff after an abort, split the same way (two-color aborts
    happen only while a checkpoint is painting, so their reruns land in
    the checkpoint bucket);
``cpu``
    finite-processor queueing + service (``cpu_mips`` runs only);
``service``
    the residual: modelled execution the decomposition cannot blame on
    anything else.

Everything here consumes the *snapshot* form (plain dicts with ``id``
attached, from :meth:`SpanRecorder.snapshot`), so the same code serves
a live run and a JSON trace reloaded from disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..units import fmt_compact, text_table

#: decomposition bucket names, report order (checkpoint causes first)
CAUSES: Tuple[str, ...] = (
    "ckpt.quiesce", "ckpt.lock", "ckpt.backoff",
    "lock", "backoff", "cpu", "service",
)

#: the buckets attributable to checkpointing
CKPT_CAUSES: Tuple[str, ...] = ("ckpt.quiesce", "ckpt.lock", "ckpt.backoff")

#: default quantiles for the tail decomposition
STALL_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


@dataclass
class TxnAttribution:
    """One committed transaction's response time, decomposed by cause."""

    txn_id: int
    start: float
    end: float
    causes: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def ckpt_share(self) -> float:
        """Fraction of this latency attributable to checkpointing."""
        latency = self.latency
        if latency <= 0:
            return 0.0
        blamed = sum(self.causes.get(name, 0.0) for name in CKPT_CAUSES)
        return blamed / latency


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _ckpt_overlap(start: float, end: float,
                  intervals: Sequence[Tuple[float, float]]) -> float:
    """Seconds of ``[start, end]`` covered by checkpoint intervals.

    Intervals come sorted and (by construction: one checkpointer, one
    checkpoint at a time) non-overlapping, so plain summation is exact.
    """
    covered = 0.0
    for c0, c1 in intervals:
        if c0 >= end:
            break
        covered += _overlap(start, end, c0, c1)
    return covered


def checkpoint_intervals(
        spans: Iterable[Dict[str, Any]]) -> List[Tuple[float, float]]:
    """Sorted ``(start, end)`` windows of every ``ckpt`` root span."""
    return sorted((span["start"], span["end"]) for span in spans
                  if span["name"] == "ckpt")


def attribute_stalls(
        spans: Sequence[Dict[str, Any]]) -> List[TxnAttribution]:
    """Per-committed-transaction cause decomposition of response time.

    Only committed transactions are attributed: an abandoned or failed
    transaction has no response time in the paper's sense.  Child waits
    are clipped to the transaction window; the residual is ``service``
    (clamped at zero -- a wait that straddles the commit boundary can
    otherwise over-subtract by a rounding hair).
    """
    ckpts = checkpoint_intervals(spans)
    children: Dict[int, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        if span["name"] == "txn":
            if span["fields"].get("outcome") == "commit":
                roots.append(span)
        elif span["parent"] >= 0 and span["name"].startswith("txn."):
            children.setdefault(span["parent"], []).append(span)

    out: List[TxnAttribution] = []
    for root in roots:
        t0, t1 = root["start"], root["end"]
        causes = {name: 0.0 for name in CAUSES}
        for child in children.get(root["id"], ()):
            c0 = max(t0, child["start"])
            c1 = min(t1, child["end"])
            width = c1 - c0
            if width <= 0:
                continue
            kind = child["name"]
            if kind == "txn.quiesce":
                causes["ckpt.quiesce"] += width
            elif kind == "txn.cpu":
                causes["cpu"] += width
            elif kind in ("txn.lock_wait", "txn.backoff"):
                bucket = "lock" if kind == "txn.lock_wait" else "backoff"
                during = _ckpt_overlap(c0, c1, ckpts)
                causes["ckpt." + bucket] += during
                causes[bucket] += width - during
        waits = sum(causes.values())
        causes["service"] = max(0.0, (t1 - t0) - waits)
        out.append(TxnAttribution(
            txn_id=int(root["fields"].get("txn_id", -1)),
            start=t0, end=t1, causes=causes))
    out.sort(key=lambda a: (a.end, a.txn_id))
    return out


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def decompose_quantiles(
        attributions: Sequence[TxnAttribution],
        quantiles: Sequence[float] = STALL_QUANTILES,
) -> Dict[str, Dict[str, Any]]:
    """Cause decomposition of the latency tail at each quantile.

    For each quantile ``q`` the decomposition covers the transactions at
    or above the ``q``-th latency percentile -- the tail population whose
    experience the quantile summarises -- reporting the quantile latency
    itself, the tail size, the mean seconds in each cause bucket across
    the tail, and the mean checkpoint-attributable share.
    """
    ordered = sorted(attributions, key=lambda a: a.latency)
    latencies = [a.latency for a in ordered]
    out: Dict[str, Dict[str, Any]] = {}
    for q in quantiles:
        threshold = _percentile(latencies, q)
        tail = [a for a in ordered if a.latency >= threshold]
        entry: Dict[str, Any] = {
            "quantile": q,
            "latency": threshold,
            "count": len(tail),
            "causes": {name: 0.0 for name in CAUSES},
            "ckpt_share": 0.0,
        }
        if tail:
            for name in CAUSES:
                entry["causes"][name] = (
                    sum(a.causes.get(name, 0.0) for a in tail) / len(tail))
            entry["ckpt_share"] = (
                sum(a.ckpt_share for a in tail) / len(tail))
        out[f"p{q:g}"] = entry
    return out


def latency_timeline(
        attributions: Sequence[TxnAttribution],
        ckpt_intervals: Sequence[Tuple[float, float]],
        buckets: int = 60,
) -> List[Dict[str, Any]]:
    """Wall-clock latency buckets with checkpoint-activity marks.

    Commits are bucketed by completion time; each bucket reports its
    window, commit count, mean and max latency, mean checkpoint share,
    and whether a checkpoint was active at any point in the window --
    the timeline that makes checkpoint-correlated latency ridges visible
    at a glance.
    """
    if not attributions:
        return []
    horizon = max(a.end for a in attributions)
    start = min(a.start for a in attributions)
    width = max((horizon - start) / buckets, 1e-12)
    rows: List[Dict[str, Any]] = []
    for i in range(buckets):
        b0 = start + i * width
        b1 = b0 + width
        rows.append({
            "start": b0, "end": b1, "count": 0,
            "mean_latency": 0.0, "max_latency": 0.0,
            "ckpt_share": 0.0,
            "ckpt_active": _ckpt_overlap(b0, b1, ckpt_intervals) > 0.0,
        })
    for a in attributions:
        index = min(buckets - 1, int((a.end - start) / width))
        row = rows[index]
        row["count"] += 1
        row["mean_latency"] += a.latency
        row["ckpt_share"] += a.ckpt_share
        row["max_latency"] = max(row["max_latency"], a.latency)
    for row in rows:
        if row["count"]:
            row["mean_latency"] /= row["count"]
            row["ckpt_share"] /= row["count"]
    return rows


# ---------------------------------------------------------------------------
# text rendering (the ``repro trace --attribution`` output)
# ---------------------------------------------------------------------------

_SPARK = " .:-=+*#%@"


def render_attribution(spans: Sequence[Dict[str, Any]],
                       algorithm: Optional[str] = None,
                       quantiles: Sequence[float] = STALL_QUANTILES) -> str:
    """The full stall-attribution report over one span snapshot."""
    attributions = attribute_stalls(spans)
    ckpts = checkpoint_intervals(spans)
    if algorithm is None:
        for span in spans:
            if span["name"] == "ckpt":
                algorithm = span["fields"].get("algorithm")
                break
    header = "checkpoint-stall attribution"
    if algorithm:
        header += f" ({algorithm})"
    if not attributions:
        return f"{header}\n  (no committed transactions in the trace)"

    decomposition = decompose_quantiles(attributions, quantiles)
    rows: List[Sequence[object]] = []
    for label, entry in decomposition.items():
        rows.append(
            [label, fmt_compact(entry["latency"]), entry["count"]]
            + [fmt_compact(entry["causes"][name]) for name in CAUSES]
            + [f"{entry['ckpt_share']:.1%}"])
    table = text_table(
        ["tail", "latency", "txns"] + list(CAUSES) + ["ckpt-share"],
        rows,
        title=f"{header}\n"
              f"  {len(attributions)} committed txns, "
              f"{len(ckpts)} checkpoints; per-tail mean seconds by cause")

    blocks = [table]
    timeline = latency_timeline(attributions, ckpts)
    populated = [row for row in timeline if row["count"]]
    # Peak can be zero: without CPU contention or waits, a transaction
    # commits in zero simulated time.  The sparkline then stays flat.
    peak = max((row["mean_latency"] for row in populated), default=0.0)
    if populated:
        glyphs = "".join(
            _SPARK[min(len(_SPARK) - 1,
                       int(row["mean_latency"] / peak * (len(_SPARK) - 1)))]
            if row["count"] and peak > 0 else "." if row["count"] else " "
            for row in timeline)
        marks = "".join("^" if row["ckpt_active"] else " " for row in timeline)
        blocks.append(
            "latency timeline (mean commit latency per window; "
            "^ = checkpoint active)\n"
            f"  |{glyphs}|  peak={fmt_compact(peak)}s\n"
            f"  |{marks}|")
    return "\n\n".join(blocks)
