"""The assembled MMDBMS: workload + checkpointer + crash + recovery.

:class:`SimulatedSystem` is the testbed's top-level object.  Typical use::

    config = SimulationConfig(params=SystemParameters.scaled_down(1024),
                              algorithm="COUCOPY", seed=7)
    system = SimulatedSystem(config)
    system.run(duration=20.0)          # normal processing + checkpoints
    system.crash()                     # power fails mid-flight
    result = system.recover()          # rebuild from backup + log
    assert system.verify_recovery() == []  # oracle agrees: nothing lost

Metrics mirror the paper's Section 4: measured checkpoint overhead per
transaction (from the instruction ledger), abort/rerun counts (the
two-color restart probability), checkpoint durations, and the modelled
recovery time of an injected crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..checkpoint.base import CheckpointScope
from ..checkpoint.scheduler import CheckpointPolicy
from ..cpu.accounting import CostCategory
from ..errors import ConfigurationError, InvalidStateError
from ..faults.plan import FaultPlan
from ..params import SystemParameters
from ..recovery.replay import RecordMismatch
from ..recovery.restore import RecoveryManager, RecoveryResult
from ..workload.spec import WorkloadSpec
from .builder import SystemBuilder


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that defines one simulation run."""

    params: SystemParameters
    algorithm: str = "FUZZYCOPY"
    scope: CheckpointScope = CheckpointScope.PARTIAL
    policy: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    #: record-selection skew, size mixture and arrival discipline of the
    #: fixed-rate ``params.lam`` stream
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    seed: int = 0
    #: group-commit period for the volatile log tail, seconds
    log_flush_interval: float = 0.01
    #: concurrent segment writes (None: one per backup disk)
    io_depth: Optional[int] = None
    #: model the disk time of the COU begin-checkpoint log force, during
    #: which transaction processing stays quiesced (off by default to
    #: match the paper's zero-latency treatment)
    cou_quiesce_latency: bool = False
    #: reclaim log space at checkpoint completion; disable to retain the
    #: full log (needed to recover from archived/tape checkpoints)
    truncate_log: bool = True
    #: collect quantitative telemetry (counters, gauges, histograms,
    #: utilisation timelines) into ``system.telemetry`` -- the
    #: :mod:`repro.obs` substrate.  Off by default; disabled overhead is
    #: one predicate per instrumented event.  Telemetry never feeds back
    #: into the simulation, so results are identical either way.
    telemetry: bool = False
    #: record begin/end spans with parent links (transaction lifecycle,
    #: checkpoint phases, WAL flushes, fault backoffs) into
    #: ``system.spans`` -- the :mod:`repro.obs.spans` layer feeding
    #: stall attribution and the Chrome-trace export.  Same contract as
    #: ``telemetry``: off by default, one predicate per site when
    #: disabled, and never feeds back into the simulation.
    spans: bool = False
    #: logical (transition) logging: transactions increment records and
    #: log deltas.  Recovery is only sound over a snapshot-exact backup
    #: (copy-on-update checkpoints); see tests/test_logical_logging.
    logical_updates: bool = False
    #: force the log after every commit (durable-on-commit) instead of
    #: relying on the periodic group flush
    log_flush_on_commit: bool = False
    #: processor speed in MIPS; None = infinitely fast CPU (the paper's
    #: treatment).  Finite speed serialises transaction executions through
    #: a FIFO CPU server, so response times grow with utilisation and
    #: loads beyond capacity backlog.  The checkpointer's own CPU work is
    #: still only ledger-counted (assumed overlapped), so this mode is a
    #: lower bound on contention.
    cpu_mips: Optional[float] = None
    #: pretend both backup images already hold the initial database, so
    #: the first real checkpoints are partial rather than full sweeps
    preload_backup: bool = False
    #: deterministic fault-injection plan (crashes, torn writes, transient
    #: I/O errors -- see :mod:`repro.faults`).  None = healthy hardware;
    #: the disabled path costs one predicate per instrumented event, same
    #: contract as telemetry.  An injected crash surfaces as
    #: :class:`~repro.errors.CrashError` out of :meth:`run`; call
    #: :meth:`crash` to complete the failure, then recover as usual.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadSpec):
            raise ConfigurationError(
                f"workload must be a WorkloadSpec (WorkloadSpec.from_dict "
                f"reads a dict), got {type(self.workload).__name__}")


@dataclass
class SimulationMetrics:
    """Run summary in the paper's terms."""

    elapsed: float
    transactions_committed: int
    transactions_submitted: int
    aborts: Dict[str, int]
    reruns: int
    checkpoints_completed: int
    mean_checkpoint_duration: float
    overhead_per_transaction: float
    overhead_sync: float
    overhead_async: float
    abort_probability: float
    words_written_to_backup: int
    disk_utilisation: float
    lock_waits: int
    mean_response_time: float
    response_time_p95: float
    #: fraction of the finite CPU consumed (None with an infinite CPU)
    cpu_utilisation: Optional[float] = None
    #: mean arrival rate the workload *offered* over the run
    #: (``params.lam``)
    offered_rate: float = 0.0
    #: commit throughput actually *served* over the run
    served_rate: float = 0.0


class SimulatedSystem:
    """A complete memory-resident DBMS under simulation.

    Construction is delegated to :class:`~repro.sim.builder.SystemBuilder`:
    ``SimulatedSystem(config)`` builds the default component set, while
    a builder subclass that overrides a ``build_*`` method substitutes
    that subsystem (``MyBuilder(config).build()``; see
    :mod:`repro.sim.ports` for the component interfaces).  Either way
    the system takes the components straight from the builder and then
    performs only run-state wiring (backup preload, timed-crash
    scheduling).
    """

    def __init__(self, config: SimulationConfig,
                 builder: Optional[SystemBuilder] = None) -> None:
        self.config = config
        self.params = config.params
        # engine, database, log, checkpointer, ...: one attribute per
        # name in repro.sim.builder.COMPONENTS
        vars(self).update(
            (builder or SystemBuilder(config)).build_components())
        self._started = False
        self._crashed = False
        self._run_started_at = 0.0
        if config.preload_backup:
            self._preload_backup()
        if (self.faults is not None and self.faults.plan.crash is not None
                and self.faults.plan.crash.at_time is not None):
            self.engine.schedule_at(self.faults.plan.crash.at_time,
                                    self.faults.trigger_timed_crash,
                                    label="fault: timed crash")

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _preload_backup(self) -> None:
        """Install synthetic completed checkpoints of the initial state.

        Both images receive the (all-zero) initial database with data
        timestamp 0, plus matching begin/end markers in the log, so the
        very first real checkpoints behave as steady-state partial ones.
        Synthetic checkpoint ids are <= 0; real ids start at 1.
        """
        zeros = np.zeros(self.params.records_per_segment, dtype=np.int64)
        for checkpoint_id, image in zip((-1, 0), self.backup.images):
            image.begin_checkpoint(checkpoint_id)
            for index in range(self.params.n_segments):
                image.write_segment(index, zeros, 0.0)
            begin = self.log.append_begin_checkpoint(
                checkpoint_id, timestamp=0, active_txns=(), image=image.index)
            image.complete_checkpoint(checkpoint_id, began_at=0.0,
                                      begin_lsn=begin.lsn)
            self.log.append_end_checkpoint(checkpoint_id, image.index)
        self.log.flush()
        self.oracle.feed(self.log.drain_newly_stable())

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> SimulationMetrics:
        """Simulate ``duration`` seconds of normal processing."""
        if self._crashed:
            raise InvalidStateError("system has crashed; recover() first")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive ({duration!r})")
        if not self._started:
            self._started = True
            self._run_started_at = self.engine.now
            self.scheduler.start()
            self._schedule_next_arrival()
            self._schedule_log_flush()
        self.engine.run(until=self.engine.now + duration)
        return self.metrics()

    def _schedule_next_arrival(self) -> None:
        self.engine.schedule_after(
            self.workload.next_interarrival(self.engine.clock._now),
            self._arrival, label="txn arrival")

    def _arrival(self) -> None:
        now = self.engine.clock._now  # hot path: one read per arrival
        txn = self.workload.make_transaction(now)
        if self.telemetry.enabled:
            self.telemetry.registry.count("workload.arrivals")
        self.txn_manager.submit(txn)
        self._schedule_next_arrival()

    def _schedule_log_flush(self) -> None:
        self.engine.schedule_after(
            self.config.log_flush_interval, self._log_flush_tick,
            label="log group flush")

    def _log_flush_tick(self) -> None:
        result = self.log.flush()
        if result.records:
            # Routine logging cost: excluded from the checkpoint metric.
            self.ledger.charge(CostCategory.LOGGING,
                               self.ledger.costs.c_io, synchronous=False)
        self.oracle.feed(self.log.drain_newly_stable())
        self._schedule_log_flush()

    def reset_measurements(self) -> None:
        """Zero the measurement state without disturbing the system.

        Call after a warmup period so metrics cover only the steady
        state: the ledger, transaction counters, checkpoint history, and
        disk statistics restart; the database, log, backups, and all
        in-flight activity continue untouched.
        """
        if self.cpu is not None:
            self.cpu.reset_stats()
        self.ledger.reset()
        self.txn_manager.stats = self.txn_manager.new_stats()
        self.checkpointer.history.clear()
        self.array.reset()
        self._run_started_at = self.engine.now

    # ------------------------------------------------------------------
    # crash & recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """A system failure: volatile state is lost, this instant.

        Pending events die with the machine (in-flight disk writes never
        complete into the images, reruns never run, arrivals stop).  The
        stable log and both backup images survive.
        """
        if self._crashed:
            raise InvalidStateError("system already crashed")
        self._crashed = True
        # Let the oracle see everything that was stable before the lights
        # went out (stable-tail appends may not have been drained yet).
        self.oracle.feed(self.log.drain_newly_stable())
        if self.spans.enabled:
            self.spans.emit("sys.crash", self.engine.now, 0.0)
        if self.faults is not None:
            # Apply torn prefixes of in-flight segment writes to the
            # images before the write-completion events are discarded.
            self.faults.on_system_crash()
        self.engine.clear()
        self.scheduler.stop()
        self.checkpointer.crash()
        self.txn_manager.crash()
        self.backup.crash()
        self.log.crash()
        self.locks.reset()

    def media_failure(self, image_index: int) -> None:
        """Destroy one backup image (secondary-media failure, §2.7).

        The loss is recorded in the log (and forced stable) so recovery's
        backward scan skips checkpoints whose image no longer exists.
        The primary database is untouched -- the repair is simply that
        the next checkpoint landing on this image rewrites it in full.

        Raises:
            InvalidStateError: if the image is being written right now.
        """
        self.backup.media_failure(image_index)
        self.log.append_media_failure(image_index)
        self.log.flush()
        self.oracle.feed(self.log.drain_newly_stable())

    def restore_from_archive(self, archive, checkpoint_id: Optional[int] = None) -> None:
        """Rebuild a backup image from an archival dump (tape).

        Restores the archived checkpoint's image contents and appends a
        media-restore record so recovery's backward scan treats the
        checkpoint's *original* begin/end markers as usable again.  Only
        helps if the log still reaches back to that begin marker
        (``truncate_log=False`` retains it).
        """
        archived = (archive.latest() if checkpoint_id is None
                    else archive.get(checkpoint_id))
        if archived is None:
            raise InvalidStateError("the archive holds no dumps")
        archive.restore(archived, self.backup.image(archived.image_index))
        self.log.append_media_restore(archived.image_index,
                                      archived.checkpoint_id)
        self.log.flush()
        self.oracle.feed(self.log.drain_newly_stable())

    def recover(self) -> RecoveryResult:
        """Rebuild the primary database after :meth:`crash`."""
        if not self._crashed:
            raise InvalidStateError("recover() is only valid after crash()")
        manager = RecoveryManager(
            self.params, self.database, self.log, self.backup, self.array,
            authority=self.authority)
        result = manager.recover()
        if self.spans.enabled:
            self.spans.emit("sys.recover", self.engine.now, 0.0,
                            checkpoint_id=result.used_checkpoint_id,
                            replayed=result.transactions_replayed)
        self._crashed = False
        self._started = False  # a fresh run() restarts arrivals/checkpoints
        return result

    def verify_recovery(self, limit: int = 10) -> List[RecordMismatch]:
        """Mismatches between the recovered database and the oracle.

        Empty list = recovery verified.  Each entry carries the record id
        *and* the expected/recovered values, so a failure report says how
        the states diverge, not just where (compares equal to the bare
        record id lists older callers asserted against only when empty,
        which is the invariant they check).
        """
        return self.oracle.mismatch_report(self.database.values_snapshot(),
                                           limit=limit)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> Optional[Dict]:
        """The run's telemetry as a plain-JSON dict (None when disabled)."""
        if not self.telemetry.enabled:
            return None
        return self.telemetry.snapshot()

    def spans_snapshot(self) -> Optional[List[Dict]]:
        """The run's spans as plain-JSON dicts (None when disabled)."""
        if not self.spans.enabled:
            return None
        return self.spans.snapshot()

    def metrics(self) -> SimulationMetrics:
        stats = self.txn_manager.stats
        history = self.checkpointer.history
        committed = stats.committed
        elapsed = self.engine.now - self._run_started_at
        durations = [ckpt.duration for ckpt in history]
        attempts = committed + stats.total_aborts
        return SimulationMetrics(
            elapsed=elapsed,
            transactions_committed=committed,
            transactions_submitted=stats.submitted,
            aborts=dict(stats.aborts),
            reruns=stats.reruns,
            checkpoints_completed=len(history),
            mean_checkpoint_duration=(
                sum(durations) / len(durations) if durations else 0.0),
            overhead_per_transaction=(
                self.ledger.overhead_per_transaction(committed)
                if committed else 0.0),
            overhead_sync=self.ledger.synchronous_total,
            overhead_async=self.ledger.asynchronous_total,
            abort_probability=(
                stats.total_aborts / attempts if attempts else 0.0),
            words_written_to_backup=self.array.words_transferred,
            disk_utilisation=self.array.utilisation(elapsed),
            lock_waits=stats.lock_waits,
            mean_response_time=stats.mean_response_time,
            response_time_p95=stats.response_percentile(95),
            cpu_utilisation=(self.cpu.utilisation(elapsed)
                             if self.cpu is not None and elapsed > 0
                             else None),
            # the expected arrivals over the run, per second: lam in
            # exact arithmetic, rounded as the sim goldens pin it
            offered_rate=(self.params.lam * elapsed / elapsed
                          if elapsed > 0 else 0.0),
            served_rate=committed / elapsed if elapsed > 0 else 0.0,
        )
