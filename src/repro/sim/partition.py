"""The partitioned MMDBMS: N independent shards, parallel recovery.

:class:`PartitionedSystem` is the multicore-era answer to the paper's
single-engine testbed: the segment space is hash-partitioned into
``config.partitions`` shards, each a complete
:class:`~repro.sim.system.SimulatedSystem` with its own segment table,
lock manager, WAL stream, backup image pair, and checkpointer instance.
Records never cross shards (record ``r`` of the global space lives in
partition ``r // (n_records / N)``), so the shards share *nothing* and
the partitioned run is exactly N independent single-engine simulations:

* the offered load splits evenly (``lam / N`` per shard, or the arrival
  schedule scaled by ``1/N``), preserving the global rate;
* each shard's checkpointer runs on its own schedule -- ``coordinated``
  phasing starts every shard on the same policy, ``staggered`` offsets
  shard ``i`` by ``i/N`` of the cycle so backup I/O spreads out;
* crash recovery replays the N per-partition log streams as independent
  REDO jobs placed on ``config.recovery_workers`` simulated concurrent
  workers (:mod:`repro.recovery.parallel`), which is where recovery
  time stops being a constant and starts scaling with core count.

Shards execute sequentially in wall-clock terms but simulate the *same*
span of virtual time, so the composite is equivalent to N machines
running in parallel.  With ``partitions=1`` the single shard runs the
original parameters under the original seed -- bit-identical to the
unpartitioned engine (the differential suite holds this to byte
equality of metrics and recovery outcomes).

Fault injection composes per shard: by default every shard arms the
config's fault plan; ``fault_partitions`` restricts it to a subset (the
"crash one partition" fault-matrix axis).  A machine failure is global,
so whichever faulted shard crashes *earliest* defines the machine's
crash instant: faulted shards run first, and every other shard is then
run only up to that instant before being crashed itself.  (If several
faulted shards would crash at different times, shards already run keep
their later states -- an accepted overshoot that only widens the
recovered state, never corrupts it, since each shard's oracle tracks
its own log.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, CrashError, InvalidStateError
from ..obs.partition import (
    merge_partition_spans,
    merge_partition_telemetry,
    record_replay_rates,
)
from ..recovery.parallel import ParallelRecoveryResult, schedule_recovery
from ..units import percentile
from .oracle import RecordMismatch
from .system import SimulatedSystem, SimulationConfig, SimulationMetrics

#: Multiplier deriving shard seeds from the master seed (a prime far
#: above any realistic partition count, so shard seed spaces never
#: collide across master seeds).
_SHARD_SEED_STRIDE = 1_000_003


def shard_seed(master_seed: int, partition: int, partitions: int) -> int:
    """The seed shard ``partition`` of ``partitions`` runs under.

    A single-shard system keeps the master seed untouched -- that is the
    bit-identity guarantee -- while every shard of a real partition gets
    its own deterministic stream family.
    """
    if partitions == 1:
        return master_seed
    return master_seed * _SHARD_SEED_STRIDE + partition + 1


def shard_config(config: SimulationConfig, partition: int) -> SimulationConfig:
    """The single-engine configuration shard ``partition`` runs.

    The shard holds ``1/N`` of the database and receives ``1/N`` of the
    offered load; everything else (algorithm, policy intervals, flush
    cadence, checkpoint scope) carries over unchanged.  With ``N == 1``
    the returned config equals the input, field for field.
    """
    n = config.partitions
    if not 0 <= partition < n:
        raise ConfigurationError(
            f"partition must be in [0, {n}), got {partition!r}")
    if n == 1:
        return config
    params = config.params.replace(
        s_db=config.params.s_db // n,
        lam=config.params.lam / n,
    )
    workload = config.workload
    if workload.schedule is not None:
        workload = workload.with_schedule(workload.schedule.scaled(1.0 / n))
    policy = config.policy
    if config.partition_policy == "staggered":
        interval = policy.interval
        if interval is None:
            # The scheduler's default cadence: one full checkpoint
            # back-to-back with the next.  Offset by the shard's share.
            interval = params.full_checkpoint_time
        policy = replace(policy,
                         initial_delay=policy.initial_delay
                         + partition * interval / n)
    return replace(
        config,
        params=params,
        workload=workload,
        policy=policy,
        seed=shard_seed(config.seed, partition, n),
        partitions=1,
        recovery_workers=1,
    )


class PartitionedSystem:
    """N shard engines presenting the :class:`SimulatedSystem` surface.

    Mirrors ``run`` / ``crash`` / ``recover`` / ``verify_recovery`` /
    ``metrics`` / ``telemetry_snapshot`` / ``spans_snapshot`` /
    ``reset_measurements``, so every caller of the single-engine system
    (the API facade, the CLI, the fault checker) drives a partitioned
    one unchanged.  ``recover`` returns a
    :class:`~repro.recovery.parallel.ParallelRecoveryResult` instead of
    a single-shard summary.
    """

    def __init__(self, config: SimulationConfig,
                 fault_partitions: Optional[Sequence[int]] = None) -> None:
        self.config = config
        self.params = config.params
        self.partitions = config.partitions
        if fault_partitions is None:
            faulted = set(range(self.partitions)) \
                if config.fault_plan is not None else set()
        else:
            faulted = set(fault_partitions)
            bad = [p for p in faulted
                   if not 0 <= p < self.partitions]
            if bad:
                raise ConfigurationError(
                    f"fault_partitions out of range: {sorted(bad)!r}")
            if faulted and config.fault_plan is None:
                raise ConfigurationError(
                    "fault_partitions given but the config has no fault plan")
        self.fault_partitions = frozenset(faulted)
        self.shards: List[SimulatedSystem] = []
        for partition in range(self.partitions):
            cfg = shard_config(config, partition)
            if config.fault_plan is not None and partition not in faulted:
                cfg = replace(cfg, fault_plan=None)
            self.shards.append(SimulatedSystem(cfg))
        #: per-shard record-id base, for globalising oracle reports
        self._record_base = [
            partition * self.shards[0].params.n_records
            for partition in range(self.partitions)
        ]
        self._crashed = False
        self._crash_time: Optional[float] = None
        self._last_recovery: Optional[ParallelRecoveryResult] = None

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> SimulationMetrics:
        """Simulate ``duration`` virtual seconds on every shard.

        Faulted shards run first; the earliest fault crash becomes the
        machine's crash instant, every remaining shard runs only up to
        it, and the whole-machine :class:`CrashError` is re-raised for
        the caller's usual ``except CrashError: system.crash()`` flow.
        """
        if self._crashed:
            raise InvalidStateError("system has crashed; recover() first")
        order = sorted(range(self.partitions),
                       key=lambda p: (p not in self.fault_partitions, p))
        crash_at: Optional[float] = None
        crash_error: Optional[CrashError] = None
        for partition in order:
            shard = self.shards[partition]
            end = shard.engine.now + duration
            if crash_at is not None:
                end = min(end, crash_at)
            span = end - shard.engine.now
            if span <= 0:
                shard.crash()
                continue
            try:
                shard.run(span)
            except CrashError as error:
                when = shard.engine.now
                if crash_at is None or when < crash_at:
                    crash_at = when
                    crash_error = error
                shard.crash()
                continue
            if crash_at is not None:
                # The machine died while this (unfaulted) shard was
                # mid-flight: it stops exactly at the crash instant.
                shard.crash()
        if crash_error is not None:
            self._crash_time = crash_at
            raise crash_error
        return self.metrics()

    def reset_measurements(self) -> None:
        """Zero every shard's measurement state (post-warmup)."""
        for shard in self.shards:
            shard.reset_measurements()

    # ------------------------------------------------------------------
    # crash & recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """A whole-machine failure: every shard loses volatile state.

        Shards already crashed by fault injection during :meth:`run`
        stay as they are; the rest crash now, at their current instant.
        """
        if self._crashed:
            raise InvalidStateError("system already crashed")
        for shard in self.shards:
            if not shard._crashed:
                shard.crash()
        self._crashed = True

    def recover(self) -> ParallelRecoveryResult:
        """Parallel REDO: recover every shard, schedule onto workers."""
        if not self._crashed:
            raise InvalidStateError("recover() is only valid after crash()")
        results = [shard.recover() for shard in self.shards]
        parallel = schedule_recovery(results, self.config.recovery_workers)
        for shard in self.shards:
            if shard.telemetry.enabled:
                record_replay_rates(shard.telemetry.registry,
                                    parallel.per_partition_replay_rates())
                break  # gauges are system-wide; one registry suffices
        self._crashed = False
        self._crash_time = None
        self._last_recovery = parallel
        return parallel

    def verify_recovery(self, limit: int = 10) -> List[RecordMismatch]:
        """Per-shard oracle reports, re-based to global record ids."""
        mismatches: List[RecordMismatch] = []
        for partition, shard in enumerate(self.shards):
            base = self._record_base[partition]
            remaining = limit - len(mismatches)
            if remaining <= 0:
                break
            for miss in shard.verify_recovery(limit=remaining):
                mismatches.append(RecordMismatch(
                    miss.record_id + base, miss.expected, miss.actual))
        return mismatches

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> Optional[Dict]:
        """All shards' telemetry merged into one snapshot."""
        return merge_partition_telemetry(
            [shard.telemetry_snapshot() for shard in self.shards])

    def spans_snapshot(self) -> Optional[List[Dict]]:
        """All shards' spans, each tagged with its ``ckpt.partition``."""
        per_shard = [shard.spans_snapshot() for shard in self.shards]
        if all(spans is None for spans in per_shard):
            return None
        return merge_partition_spans(
            [spans or [] for spans in per_shard])

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> SimulationMetrics:
        """System-wide totals over the shard engines.

        Counts, words, and instruction totals add; means re-weight by
        each shard's commit (or checkpoint) count; the p95 pools the
        shards' response-time reservoirs.  The overhead-per-transaction
        metric is recomputed from the summed ledgers, not averaged, so
        it equals what one ledger spanning all shards would report.
        """
        per_shard = [shard.metrics() for shard in self.shards]
        committed = sum(m.transactions_committed for m in per_shard)
        elapsed = max((m.elapsed for m in per_shard), default=0.0)
        aborts: Dict[str, int] = {}
        for m in per_shard:
            for reason, count in m.aborts.items():
                aborts[reason] = aborts.get(reason, 0) + count
        total_aborts = sum(aborts.values())
        attempts = committed + total_aborts
        checkpoints = sum(m.checkpoints_completed for m in per_shard)
        duration_mass = sum(
            m.mean_checkpoint_duration * m.checkpoints_completed
            for m in per_shard)
        overhead_total = sum(
            shard.ledger.checkpoint_overhead_total() for shard in self.shards)
        response_mass = sum(
            m.mean_response_time * m.transactions_committed
            for m in per_shard)
        pooled: List[float] = []
        for shard in self.shards:
            pooled.extend(shard.txn_manager.stats.response_times)
        cpu_loads = [m.cpu_utilisation for m in per_shard
                     if m.cpu_utilisation is not None]
        return SimulationMetrics(
            elapsed=elapsed,
            transactions_committed=committed,
            transactions_submitted=sum(
                m.transactions_submitted for m in per_shard),
            aborts=aborts,
            reruns=sum(m.reruns for m in per_shard),
            checkpoints_completed=checkpoints,
            mean_checkpoint_duration=(
                duration_mass / checkpoints if checkpoints else 0.0),
            overhead_per_transaction=(
                overhead_total / committed if committed else 0.0),
            overhead_sync=sum(m.overhead_sync for m in per_shard),
            overhead_async=sum(m.overhead_async for m in per_shard),
            abort_probability=(
                total_aborts / attempts if attempts else 0.0),
            words_written_to_backup=sum(
                m.words_written_to_backup for m in per_shard),
            disk_utilisation=(
                sum(m.disk_utilisation for m in per_shard) / len(per_shard)
                if per_shard else 0.0),
            lock_waits=sum(m.lock_waits for m in per_shard),
            mean_response_time=(
                response_mass / committed if committed else 0.0),
            response_time_p95=percentile(pooled, 95) if pooled else 0.0,
            cpu_utilisation=(
                sum(cpu_loads) / len(cpu_loads) if cpu_loads else None),
            offered_rate=sum(m.offered_rate for m in per_shard),
            served_rate=sum(m.served_rate for m in per_shard),
        )
