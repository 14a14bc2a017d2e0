"""Workload generation (paper Section 2.5, plus skewed extensions).

The paper's load model is deliberately simple: Poisson arrivals at rate
``lam``, each transaction updating ``N_ru`` distinct records with the
update probability "distributed uniformly across all of the database
records".  The analytic model depends on that uniformity; the simulator
additionally offers **zipf** and **hotspot** record selection so the
sensitivity of the paper's conclusions to skew can be explored (these feed
the skew ablations -- skew concentrates dirtying into fewer segments,
which shrinks partial checkpoints but raises copy-on-update contention).
"""

from __future__ import annotations

import numpy as np

from ..params import SystemParameters
from ..sim.rng import RandomStreams
from ..workload.spec import AccessDistribution, WorkloadSpec
from .transaction import Transaction

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Produces the transaction stream for one simulation run."""

    ARRIVAL_STREAM = "workload.arrivals"
    RECORD_STREAM = "workload.records"
    SIZE_STREAM = "workload.sizes"

    def __init__(self, params: SystemParameters, spec: WorkloadSpec,
                 streams: RandomStreams) -> None:
        self.params = params
        self.spec = spec
        self.streams = streams
        self._next_txn_id = 1
        # Hot-path generators, hoisted: the named-stream lookup plus the
        # wrapper's argument checks cost a dict probe and two Python calls
        # per arrival/selection.  The generators are the *same* objects the
        # streams registry hands out, so draw sequences are unchanged.
        self._arrival_rng = streams.stream(self.ARRIVAL_STREAM)
        self._record_rng = streams.stream(self.RECORD_STREAM)
        self._mean_interarrival = 1.0 / params.lam
        # The paper's baseline workload (uniform selection, fixed N_ru)
        # short-circuits straight to one generator call per transaction.
        self._uniform_fixed = (spec.distribution is AccessDistribution.UNIFORM
                               and spec.update_count_mix is None)

    # -- arrivals -------------------------------------------------------------
    def next_interarrival(self, now: float = 0.0) -> float:
        """Seconds until the next transaction arrives.

        The rate never changes, so ``now`` is ignored; it is part of
        the :class:`~repro.sim.ports.WorkloadSource` surface, for a
        substituted source (a trace replay) that needs the clock.
        """
        if self.spec.poisson_arrivals:
            return float(self._arrival_rng.exponential(self._mean_interarrival))
        return self._mean_interarrival

    # -- record selection ------------------------------------------------------
    def _draw_update_count(self) -> int:
        mix = self.spec.update_count_mix
        if mix is None:
            return self.params.n_ru
        weights = [weight for _, weight in mix]
        total_weight = sum(weights)
        draw = self.streams.stream(self.SIZE_STREAM).random() * total_weight
        cumulative = 0.0
        for n_ru, weight in mix:
            cumulative += weight
            if draw < cumulative:
                return min(n_ru, self.params.n_records)
        return min(mix[-1][0], self.params.n_records)

    def _draw_records(self) -> list[int]:
        params = self.params
        if self._uniform_fixed:
            return self._record_rng.choice(
                params.n_records, size=params.n_ru, replace=False).tolist()
        n = self._draw_update_count()
        total = params.n_records
        rng = self._record_rng
        if self.spec.distribution is AccessDistribution.UNIFORM:
            return rng.choice(total, size=n, replace=False).tolist()
        if self.spec.distribution is AccessDistribution.ZIPF:
            return self._draw_zipf(rng, total, n)
        return self._draw_hotspot(rng, total, n)

    def _draw_zipf(self, rng: np.random.Generator, total: int,
                   n: int) -> list[int]:
        """Distinct Zipf-distributed record ids (rank 1 most popular)."""
        chosen: set[int] = set()
        while len(chosen) < n:
            rank = int(rng.zipf(self.spec.zipf_theta))
            if rank <= total:
                chosen.add(rank - 1)
        return sorted(chosen)

    def _draw_hotspot(self, rng: np.random.Generator, total: int,
                      n: int) -> list[int]:
        """Distinct records, each hot with probability ``hot_probability``."""
        hot_size = max(1, int(total * self.spec.hot_fraction))
        chosen: set[int] = set()
        while len(chosen) < n:
            if rng.random() < self.spec.hot_probability:
                chosen.add(int(rng.integers(0, hot_size)))
            else:
                chosen.add(int(rng.integers(hot_size, total)))
        return sorted(chosen)

    # -- transactions --------------------------------------------------------------
    def make_transaction(self, arrival_time: float) -> Transaction:
        """Create the next transaction in the stream."""
        txn = Transaction(
            txn_id=self._next_txn_id,
            record_ids=tuple(self._draw_records()),
            arrival_time=arrival_time,
        )
        self._next_txn_id += 1
        return txn

    @property
    def transactions_created(self) -> int:
        return self._next_txn_id - 1
