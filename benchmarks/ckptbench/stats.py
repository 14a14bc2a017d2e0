"""Arithmetic shared by every ckptbench workload.

Kept free of any ``repro`` import so the unit tests can exercise the
percentile, window-stall, self-time and spread rules on their own.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["median", "percentile", "stalled", "window_stall", "self_times",
           "relative_gap"]


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a layer the workload never ran)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  No interpolation, so the
    result is always a latency that was actually observed.
    """
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def stalled(latencies: Sequence[float],
            factor: float = 3.0) -> Tuple[float, int]:
    """Typical latency of an operation caught in a stall.

    The stalled operations are those slower than ``factor`` times the
    sample's median; the result is their median and their number.  A
    closed loop shows a stall on only the few operations in flight or
    sent while it lasts, so the worst of them is an extreme value that
    does not repeat, and a fixed percentile sits on the edge of the
    stalled group and jumps in or out of it.  The median of the group
    does neither.  With no stalled operation the slowest one stands in,
    so the result is never zero for a non-empty sample.
    """
    if not latencies:
        return 0.0, 0
    threshold = factor * median(latencies)
    caught = [latency for latency in latencies if latency > threshold]
    if not caught:
        return float(max(latencies)), 0
    return median(caught), len(caught)


def window_stall(samples: Iterable[Tuple[float, float]], start: float,
                 end: float, window: float) -> Tuple[float, int]:
    """Median over fixed windows of the worst latency in each.

    ``samples`` are ``(completed_at, latency)`` pairs.  ``[start, end)``
    is cut into whole windows ``window`` long (a trailing partial window
    is dropped: it would see less than one checkpoint).  A closed loop
    The worst latency per checkpoint interval, as a diagnostic: in this
    sandbox every other checkpoint's image write is several times
    slower, so the median over windows flips between two levels and is
    not gated (see :func:`stalled`).  Returns
    ``(stall, windows_with_samples)``.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    n_windows = int((end - start) / window + 1e-9)
    worst: Dict[int, float] = {}
    for completed_at, latency in samples:
        index = int((completed_at - start) // window)
        if 0 <= index < n_windows and latency > worst.get(index, -1.0):
            worst[index] = latency
    return median(list(worst.values())), len(worst)


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time per span id: duration minus the part of the interval its
    direct children cover.

    Children may overlap one another (a writer thread's span under a
    dispatcher span), so the covered part is the *union* of the child
    intervals clipped to the parent, not the sum of their durations.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def relative_gap(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` as a share of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0
    gap = (second - first) / abs(first)
    return gap if better == "lower" else -gap
