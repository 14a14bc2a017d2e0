"""Open-system arrival source driven by an :class:`ArrivalSchedule`.

:class:`ScheduledWorkloadSource` extends the paper's
:class:`~repro.txn.workload.WorkloadGenerator` with time-varying
arrivals.  Record selection, skew, and transaction-size mixtures are
inherited unchanged -- the schedule only replaces *when* transactions
arrive, not what they touch -- so a scheduled run consumes the record
and size RNG streams in exactly the same per-transaction order as a
fixed-rate run.

Arrival sampling is the inversion method for a non-homogeneous Poisson
process: draw ``E ~ Exp(1)`` from the arrival stream, then ask the
schedule for the instant by which it has offered ``E`` more expected
arrivals (:meth:`ArrivalSchedule.time_to_offer`).  With
``poisson_arrivals=False`` the draw is the constant 1 -- arrivals pace
deterministically along the same offered-load curve (one arrival per
unit of offered load), the scheduled analogue of the generator's
``1/lam`` spacing.

A schedule that runs out of load (it ended in a ``pause``) makes
``next_interarrival`` return ``None``, which the simulator treats as
end-of-stream: no further arrivals are scheduled.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..params import SystemParameters
from ..sim.rng import RandomStreams
from ..txn.workload import WorkloadGenerator
from .schedule import ArrivalSchedule
from .spec import WorkloadSpec


def build_workload_source(params: SystemParameters, spec: WorkloadSpec,
                          streams: RandomStreams) -> WorkloadGenerator:
    """The one spec -> source choice: a spec with a schedule gets a
    :class:`ScheduledWorkloadSource`, a fixed-rate spec the paper's
    :class:`~repro.txn.workload.WorkloadGenerator`."""
    if getattr(spec, "schedule", None) is not None:
        return ScheduledWorkloadSource(params, spec, streams)
    return WorkloadGenerator(params, spec, streams)


class ScheduledWorkloadSource(WorkloadGenerator):
    """A :class:`WorkloadGenerator` whose arrival rate follows a schedule."""

    def __init__(self, params: SystemParameters, spec: WorkloadSpec,
                 streams: RandomStreams) -> None:
        if spec.schedule is None:
            raise ConfigurationError(
                "ScheduledWorkloadSource needs a spec with a schedule; "
                "use WorkloadGenerator for fixed-rate specs")
        super().__init__(params, spec, streams)
        self.schedule: ArrivalSchedule = spec.schedule

    # -- arrivals -------------------------------------------------------------
    def next_interarrival(self, now: float = 0.0) -> Optional[float]:
        """Seconds from ``now`` until the next arrival, or None at stream end."""
        if self.spec.poisson_arrivals:
            target = self.streams.exponential(self.ARRIVAL_STREAM, 1.0)
        else:
            target = 1.0
        instant = self.schedule.time_to_offer(now, target)
        if instant is None:
            return None
        return max(instant - now, 0.0)

    def rate_at(self, now: float = 0.0) -> float:
        """Offered arrival rate at ``now`` (transactions/second)."""
        return self.schedule.rate_at(now)

    def expected_arrivals(self, start: float, end: float) -> float:
        """Expected arrivals the schedule offers in ``[start, end]``."""
        return self.schedule.offered(start, end)
