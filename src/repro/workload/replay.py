"""Offline replay of a seeded arrival stream.

The host-adapter refactor's workload contract: a
:class:`~repro.sim.ports.WorkloadSource` is a pure function of its seed
-- the arrival times and record selections it produces must not depend
on which host consumes them.  :func:`replay_arrivals` materialises the
stream with no engine at all: the same ``(params, spec, seed)`` triple
that a :class:`~repro.sim.system.SimulatedSystem` run consumes event by
event is walked here in a plain loop.  The golden test pins both views
of the stream to one committed fixture, so a host can never silently
perturb the workload it claims to be serving.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..params import SystemParameters
from ..sim.rng import RandomStreams
from ..txn.workload import WorkloadGenerator
from .spec import WorkloadSpec

__all__ = ["replay_arrivals"]


def build_source(params: SystemParameters, spec: WorkloadSpec,
                 seed: int) -> WorkloadGenerator:
    """The workload source exactly as :class:`SystemBuilder` builds it."""
    return WorkloadGenerator(params, spec, RandomStreams(seed))


def replay_arrivals(params: SystemParameters, spec: WorkloadSpec, seed: int,
                    horizon: float) -> List[Dict[str, Any]]:
    """Every arrival the source offers in ``[0, horizon]``.

    The loop mirrors :meth:`SimulatedSystem._schedule_next_arrival` /
    ``_arrival`` exactly: sample the gap from the current instant, stop
    when the arrival would land past the horizon, and draw the
    transaction *at* its arrival time.  Each entry carries ``time``,
    ``txn_id``, and the record selection, so the fixture pins the record
    streams too, not just the clock.
    """
    source = build_source(params, spec, seed)
    out: List[Dict[str, Any]] = []
    now = 0.0
    while True:
        now += source.next_interarrival(now)
        if now > horizon:
            break
        txn = source.make_transaction(now)
        out.append({
            "time": now,
            "txn_id": txn.txn_id,
            "records": [int(r) for r in txn.record_ids],
        })
    return out
