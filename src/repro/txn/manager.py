"""The transaction manager.

Coordinates transaction execution against the primary database, the log,
the lock manager, and the *active checkpointer*.  The checkpointer plugs
in through the small :class:`CheckpointCoordinator` protocol:

* :meth:`~CheckpointCoordinator.guard_access` -- consulted with the
  segment index of every record access; the two-color algorithms raise
  :class:`~repro.errors.TwoColorViolation` here when a transaction mixes
  white and black data, which the manager turns into an abort + rerun;
* :meth:`~CheckpointCoordinator.before_install` -- consulted with a
  segment index before a committed update overwrites that segment; the
  copy-on-update algorithms save the pre-update segment copy here
  (Figure 3.2);
* :attr:`~CheckpointCoordinator.uses_lsns` -- when true, every install
  additionally maintains the segment's log sequence number at ``C_lsn``
  instructions (synchronous checkpoint overhead, Section 2.1).

Commit protocol (shadow copy + REDO-only, Section 2.6): updates stay in
the transaction's shadow buffer while it runs; at commit the manager
appends its updates as one REDO run (:class:`~repro.wal.records.UpdateRun`,
one LSN per update) and the commit record to the log *first*, then
installs the new values by overwriting, stamping each touched segment
with the commit LSN and the transaction timestamp.  Stamping the *commit*
LSN (not the individual update LSNs) guarantees that whenever a
checkpointer finds a segment's LSN stable, the commit records of every
transaction reflected in the segment are stable too -- so a recovered
backup never exposes uncommitted data.

Aborted attempts append a REDO run of a prefix of their updates (its
length scaled by ``log_bulk_restart_fraction``) plus an abort record,
reproducing the paper's "added log bulk of transactions aborted by the
two-color constraints".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol

import numpy as np

from ..cpu.accounting import CostCategory, CostLedger
from ..errors import TransactionAborted
from ..mmdb.database import Database
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..mmdb.locks import LockManager, LockMode
from ..sim.cpu_server import CpuServer
from ..sim.ports import SchedulerPort
from ..sim.timestamps import TimestampAuthority
from ..units import percentile
from ..wal.log import LogManager
from .transaction import Transaction, TransactionState


class CheckpointCoordinator(Protocol):
    """What the transaction manager needs from the active checkpointer."""

    uses_lsns: bool

    def guard_access(self, txn: Transaction, index: int) -> None:
        """Raise :class:`TransactionAborted` to kill the transaction."""

    def before_install(self, txn: Transaction, index: int) -> None:
        """Called before a committed update overwrites segment ``index``."""


class _NullCoordinator:
    """Default coordinator: no checkpoint-induced behaviour at all."""

    uses_lsns = False

    def guard_access(self, txn: Transaction, index: int) -> None:
        return None
    guard_access._noop = True  # type: ignore[attr-defined]

    def before_install(self, txn: Transaction, index: int) -> None:
        return None
    before_install._noop = True  # type: ignore[attr-defined]


#: default cap on retained per-commit response times (satellite of the
#: unbounded-growth fix): every run the repo ships stays far under it,
#: so percentiles remain exact there; beyond it the list becomes a
#: uniform reservoir sample (Vitter's algorithm R) of bounded memory.
DEFAULT_RESPONSE_RESERVOIR = 65536


@dataclass
class TransactionStats:
    """Counters the simulator reports per run."""

    submitted: int = 0
    committed: int = 0
    aborts: Dict[str, int] = field(default_factory=dict)
    reruns: int = 0
    failed: int = 0
    lock_waits: int = 0
    quiesce_delays: int = 0
    total_response_time: float = 0.0
    #: per-commit response times (arrival to commit), for percentiles.
    #: Bounded: at most ``reservoir_limit`` samples are retained; under
    #: the cap the list is exhaustive and percentiles are exact.
    response_times: List[float] = field(default_factory=list)
    #: cap on ``response_times``; beyond it commits are reservoir-sampled
    reservoir_limit: int = DEFAULT_RESPONSE_RESERVOIR
    #: total commits offered to the reservoir (>= len(response_times))
    response_samples: int = 0
    #: private reservoir RNG, created lazily at the first replacement so
    #: runs under the cap never construct (or draw from) it.  Seeded
    #: constantly and never shared with the simulation streams, so
    #: sampling is deterministic and feeds nothing back.
    _reservoir_rng: Optional[Any] = field(default=None, repr=False,
                                          compare=False)

    def record_abort(self, reason: str) -> None:
        self.aborts[reason] = self.aborts.get(reason, 0) + 1

    def record_commit(self, response_time: float) -> None:
        self.committed += 1
        self.total_response_time += response_time
        self.response_samples += 1
        if len(self.response_times) < self.reservoir_limit:
            self.response_times.append(response_time)
            return
        if self._reservoir_rng is None:
            self._reservoir_rng = random.Random(0x5EED)
        slot = self._reservoir_rng.randrange(self.response_samples)
        if slot < self.reservoir_limit:
            self.response_times[slot] = response_time

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    @property
    def mean_response_time(self) -> float:
        if self.committed == 0:
            return 0.0
        return self.total_response_time / self.committed

    def response_percentile(self, q: float) -> float:
        """The ``q``-th percentile of commit response times (seconds).

        Exact while the run stays under ``reservoir_limit`` commits;
        estimated from the uniform reservoir sample beyond it.
        """
        if not self.response_times:
            return 0.0
        return percentile(self.response_times, q)


class TransactionManager:
    """Runs transactions to commit against the shared substrate."""

    def __init__(
        self,
        database: Database,
        log: LogManager,
        locks: LockManager,
        ledger: CostLedger,
        engine: SchedulerPort,
        authority: Optional[TimestampAuthority] = None,
        *,
        restart_backoff: float = 0.05,
        max_attempts: int = 1000,
        backoff_rng: Optional[np.random.Generator] = None,
        logical_updates: bool = False,
        flush_on_commit: bool = False,
        cpu_server: Optional[CpuServer] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        spans: SpanRecorder = NULL_SPANS,
        response_reservoir: int = DEFAULT_RESPONSE_RESERVOIR,
    ) -> None:
        self.database = database
        self.log = log
        self.locks = locks
        self.ledger = ledger
        self.engine = engine
        self.authority = authority if authority is not None else TimestampAuthority()
        self.restart_backoff = restart_backoff
        self.max_attempts = max_attempts
        self.backoff_rng = backoff_rng
        #: logical (transition) logging: transactions apply increments and
        #: log deltas instead of after-images.  Sound recovery then
        #: requires a snapshot-exact backup; see tests/test_logical_logging.
        self.logical_updates = logical_updates
        #: force the log tail after every commit (durable-on-commit) --
        #: the alternative to group commit, at one log I/O per transaction
        self.flush_on_commit = flush_on_commit
        #: optional finite-speed processor: each attempt's ``C_trans``
        #: instructions are served FIFO before its logic runs, so response
        #: times grow with CPU utilisation (None = infinitely fast CPU)
        self.cpu_server = cpu_server
        self.telemetry = telemetry
        #: span recorder (lifecycle windows); :data:`NULL_SPANS` = off
        self.spans = spans
        #: cap on retained response-time samples (see TransactionStats)
        self.response_reservoir = response_reservoir
        self.coordinator: CheckpointCoordinator = _NullCoordinator()
        #: bound hook methods, or None when the coordinator's hook is a
        #: known no-op (so the per-record loops skip the call entirely)
        self._guard_access: Optional[Callable[[Transaction, int], None]] = None
        self._before_install: Optional[Callable[[Transaction, int], None]] = None
        self.stats = self.new_stats()
        #: the observation seam: called with each transaction right after
        #: it commits.  The manager retains no committed transaction
        #: (a long run would hold every shadow buffer), so an observer
        #: that needs them collects here: ``on_commit = seen.append``.
        self.on_commit: Optional[Callable[[Transaction], None]] = None
        self._quiesced = False
        self._quiesce_queue: List[Transaction] = []
        #: quiesced attempts that had already finished their CPU service
        self._quiesce_queue_served: List[Transaction] = []
        #: transactions waiting on a lock (the "active" set for markers)
        self._waiting: Dict[int, Transaction] = {}
        #: open root span per in-flight transaction (spans enabled only)
        self._txn_spans: Dict[int, int] = {}
        #: open quiesce-queue span per queued transaction
        self._quiesce_spans: Dict[int, int] = {}

    def new_stats(self) -> TransactionStats:
        """A fresh stats record honouring this manager's reservoir cap."""
        return TransactionStats(reservoir_limit=self.response_reservoir)

    # -- checkpointer wiring -------------------------------------------------
    def set_coordinator(self, coordinator: Optional[CheckpointCoordinator]) -> None:
        self.coordinator = coordinator if coordinator is not None else _NullCoordinator()
        # Hooks the coordinator left as the default no-ops (marked
        # ``_noop``) are elided from the per-record hot loops.
        guard = self.coordinator.guard_access
        self._guard_access = None if getattr(guard, "_noop", False) else guard
        hook = self.coordinator.before_install
        self._before_install = None if getattr(hook, "_noop", False) else hook

    def active_transaction_ids(self) -> List[int]:
        """Transactions mid-flight (waiting on locks or quiesced).

        Written into begin-checkpoint markers (Section 3.1); FUZZYCOPY
        recovery scans back to the oldest of these.
        """
        ids = sorted(self._waiting)
        ids.extend(txn.txn_id for txn in self._quiesce_queue)
        return sorted(set(ids))

    # -- quiescing (copy-on-update begin, Section 3.2.2) ------------------------
    def quiesce(self) -> None:
        """Stop admitting new transactions (COU checkpoint begin)."""
        self._quiesced = True

    def resume(self) -> None:
        """Re-admit transactions; queued arrivals run immediately."""
        self._quiesced = False
        served, self._quiesce_queue_served = self._quiesce_queue_served, []
        queued, self._quiesce_queue = self._quiesce_queue, []
        if self.spans.enabled:
            for txn in served:
                self.spans.end(self._quiesce_spans.pop(txn.txn_id, -1))
            for txn in queued:
                self.spans.end(self._quiesce_spans.pop(txn.txn_id, -1))
        for txn in served:
            self.submit_after_cpu(txn)  # CPU already consumed
        for txn in queued:
            self.submit(txn)

    # -- main entry point ---------------------------------------------------------
    def submit(self, txn: Transaction) -> None:
        """Run one transaction attempt (or queue it while quiesced).

        With a finite CPU, the attempt's ``C_trans`` instructions are
        served first; the transaction's logic (guards, locks, commit)
        executes when its CPU service completes.  Quiescing is re-checked
        at that point: an attempt whose service straddles a COU
        checkpoint begin behaves exactly like one that arrived after it.
        """
        if self.spans.enabled and txn.txn_id not in self._txn_spans:
            self._txn_spans[txn.txn_id] = self.spans.begin(
                "txn", txn_id=txn.txn_id)
        if self._quiesced:
            self._quiesce_queue.append(txn)
            self.stats.quiesce_delays += 1
            if self.telemetry.enabled:
                self.telemetry.registry.count("txn.quiesce_delays")
            if self.spans.enabled:
                self._quiesce_spans[txn.txn_id] = self.spans.begin(
                    "txn.quiesce",
                    parent=self._txn_spans.get(txn.txn_id, -1),
                    txn_id=txn.txn_id)
            return
        if self.cpu_server is None:
            self._execute(txn)
            return
        if self.spans.enabled:
            cpu_span = self.spans.begin(
                "txn.cpu", parent=self._txn_spans.get(txn.txn_id, -1),
                txn_id=txn.txn_id)
            self.cpu_server.submit(self.ledger.costs.c_trans,
                                   lambda: self._cpu_served(txn, cpu_span))
            return
        self.cpu_server.submit(self.ledger.costs.c_trans,
                               lambda: self.submit_after_cpu(txn))

    def _cpu_served(self, txn: Transaction, cpu_span: int) -> None:
        """CPU continuation when spans are on: close the window first."""
        self.spans.end(cpu_span)
        self.submit_after_cpu(txn)

    def submit_after_cpu(self, txn: Transaction) -> None:
        """Continuation once the attempt's CPU service completes."""
        if self._quiesced:
            self._quiesce_queue_served.append(txn)
            self.stats.quiesce_delays += 1
            if self.telemetry.enabled:
                self.telemetry.registry.count("txn.quiesce_delays")
            if self.spans.enabled:
                self._quiesce_spans[txn.txn_id] = self.spans.begin(
                    "txn.quiesce",
                    parent=self._txn_spans.get(txn.txn_id, -1),
                    txn_id=txn.txn_id, served=True)
            return
        self._execute(txn)

    def _execute(self, txn: Transaction) -> None:
        if txn.state is TransactionState.PENDING and txn.attempts == 0:
            self.stats.submitted += 1
        txn.begin_attempt(self.authority.next())
        if txn.is_rerun:
            self.stats.reruns += 1
            self.ledger.charge_transaction_run(restart=True)
        else:
            self.ledger.charge_transaction_run(restart=False)
        self._attempt(txn)

    def _attempt(self, txn: Transaction) -> None:
        """Guard, stage, lock, and commit one attempt."""
        try:
            self._guard_and_stage(txn)
        except TransactionAborted as abort:
            self._handle_abort(txn, abort)
            return
        self._try_commit(txn)

    def _guard_and_stage(self, txn: Transaction) -> None:
        database = self.database
        stage = txn.shadow.stage
        operand_for = txn.delta_for if self.logical_updates else txn.value_for
        guard_access = self._guard_access
        if guard_access is not None:
            index_of = database.segment_index_of
            for record_id in txn.record_ids:
                # one bounds check per record; the commit loop reuses it
                guard_access(txn, index_of(record_id))
                stage(record_id, operand_for(record_id))
        elif self.logical_updates:
            # No access guard (fuzzy/naive coordinators): only the
            # bounds check remains.
            bounds_check = database.segment_index_of
            for record_id in txn.record_ids:
                bounds_check(record_id)
                stage(record_id, operand_for(record_id))
        else:
            # Fused staging for the hot configuration (no guard, value
            # logging): inline bounds check, Transaction.value_for, and
            # ShadowBuffer.stage into one dict-store loop.  Keep the
            # value formula in sync with Transaction.value_for.
            n_records = database.n_records
            updates = txn.shadow._updates
            value_base = txn.txn_id * 1_000_003
            for record_id in txn.record_ids:
                if not 0 <= record_id < n_records:
                    database.segment_index_of(record_id)  # raises AddressError
                updates[record_id] = value_base + (record_id % 1_000_003)

    # -- locking ----------------------------------------------------------------
    def _touched_segments(self, txn: Transaction) -> List[int]:
        # record ids were bounds-checked when staged; plain division here
        per_segment = self.database.records_per_segment
        return sorted({r // per_segment for r in txn.record_ids})

    def _try_commit(self, txn: Transaction) -> None:
        """All-or-nothing lock acquisition, then the commit sequence.

        If any touched segment is held by the checkpointer, every lock
        acquired so far is dropped and the attempt re-runs when the
        blocking lock is released.  Dropping all locks before waiting
        makes deadlock impossible: the checkpointer's lock holds are
        bounded by I/O time, never by waiting on transactions.
        """
        segments = self._touched_segments(txn)
        blocker = self.locks.try_acquire_many(segments, txn.txn_id,
                                              LockMode.EXCLUSIVE)
        if blocker is not None:
            self._wait_for_lock(txn, blocker)
            return
        try:
            self._commit(txn)
        finally:
            self.locks.release_many(segments, txn.txn_id)

    def _wait_for_lock(self, txn: Transaction, segment_index: int) -> None:
        txn.state = TransactionState.WAITING
        self._waiting[txn.txn_id] = txn
        self.stats.lock_waits += 1
        waited_from = self.engine.now if self.telemetry.enabled else 0.0
        if self.telemetry.enabled:
            self.telemetry.registry.count("txn.lock_waits")
        lock_span = (self.spans.begin(
            "txn.lock_wait", parent=self._txn_spans.get(txn.txn_id, -1),
            txn_id=txn.txn_id, segment=segment_index)
            if self.spans.enabled else -1)

        def granted() -> None:
            # We only queued to learn when the blocker releases; give the
            # slot back immediately and redo the whole attempt (the paint /
            # snapshot state may have moved while we waited).
            if self.telemetry.enabled:
                self.telemetry.registry.observe(
                    "txn.lock_wait.time", self.engine.now - waited_from)
            if lock_span >= 0:
                self.spans.end(lock_span)
            self.locks.release(segment_index, txn.txn_id)
            self._waiting.pop(txn.txn_id, None)
            txn.restamp(self.authority.next())
            self._attempt(txn)

        self.locks.acquire_or_wait(segment_index, txn.txn_id,
                                   LockMode.EXCLUSIVE, granted)

    # -- commit ---------------------------------------------------------------------
    def _commit(self, txn: Transaction) -> None:
        now = self.engine.clock._now  # hot path: skip the property pair
        txn_id = txn.txn_id
        logical = self.logical_updates
        log = self.log
        if logical:
            log.append_logical_updates(txn_id, txn.shadow)
        elif txn.shadow:
            log.append_update_run(txn_id, *txn.shadow.columns())
        commit_record = log.append_commit(txn_id)
        commit_lsn = commit_record.lsn
        txn.commit_lsn = commit_lsn
        database = self.database
        per_segment = database.records_per_segment
        before_install = self._before_install
        timestamp = txn.timestamp
        # record ids were bounds-checked when staged: plain division here
        if logical or before_install is not None:
            install_record = database.install_record
            read_record = database.read_record
            for record_id, operand in txn.shadow:
                if before_install is not None:
                    before_install(txn, record_id // per_segment)
                value = (read_record(record_id) + operand
                         if logical else operand)
                install_record(record_id, value, timestamp=timestamp,
                               lsn=commit_lsn)
        else:
            # Fused install loop (the common coordinators): one pass over
            # the shadow buffer touching the value array and the
            # struct-of-arrays metadata directly, no per-record call.
            table = database.table
            values = database._values
            dirty = table.dirty
            timestamps = table.timestamp
            lsns = table.lsn
            for record_id, value in txn.shadow:
                index = record_id // per_segment
                values[record_id] = value
                dirty[index] = True
                if timestamp > timestamps[index]:
                    timestamps[index] = timestamp
                if commit_lsn > lsns[index]:
                    lsns[index] = commit_lsn
        if self.coordinator.uses_lsns:
            # One batched charge: ``n`` LSN stamps of ``c_lsn`` each
            # (integral instruction counts, so the sum is exact).
            self.ledger.charge_lsn(synchronous=True,
                                   operations=len(txn.shadow))
        txn.shadow.mark_installed()
        txn.state = TransactionState.COMMITTED
        txn.commit_time = now
        self.stats.record_commit(now - txn.arrival_time)
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            registry.count("txn.commits")
            registry.observe("txn.commit.latency", now - txn.arrival_time)
            registry.observe("txn.commit.attempts", txn.attempts)
        if self.spans.enabled:
            self.spans.end(self._txn_spans.pop(txn.txn_id, -1),
                           outcome="commit", attempts=txn.attempts)
        if self.flush_on_commit:
            result = self.log.flush()
            if result.records:
                # Log maintenance, not checkpoint overhead (Section 4).
                self.ledger.charge(CostCategory.LOGGING,
                                   self.ledger.costs.c_io, synchronous=True)
        if self.on_commit is not None:
            self.on_commit(txn)

    # -- aborts & reruns ---------------------------------------------------------------
    def _handle_abort(self, txn: Transaction, abort: TransactionAborted) -> None:
        txn.state = TransactionState.ABORTED
        self.stats.record_abort(abort.reason)
        if self.telemetry.enabled:
            registry = self.telemetry.registry
            registry.count("txn.aborts." + abort.reason)
            registry.observe("txn.abort.latency",
                             self.engine.now - txn.arrival_time)
        self._log_aborted_attempt(txn)
        if txn.attempts >= self.max_attempts:
            txn.state = TransactionState.FAILED
            self.stats.failed += 1
            if self.spans.enabled:
                self.spans.end(self._txn_spans.pop(txn.txn_id, -1),
                               outcome="failed", attempts=txn.attempts,
                               reason=abort.reason)
            return
        delay = self._rerun_delay()
        if self.spans.enabled:
            self.spans.emit("txn.backoff", self.engine.now, delay,
                            parent=self._txn_spans.get(txn.txn_id, -1),
                            txn_id=txn.txn_id, reason=abort.reason)
        self.engine.schedule_after(
            delay, lambda: self.submit(txn),
            label=f"rerun txn {txn.txn_id}",
        )

    def _rerun_delay(self) -> float:
        """Backoff before a rerun.

        Randomised (exponential with mean ``restart_backoff``) when an
        RNG is supplied: a memoryless delay decorrelates the retry from
        the paint boundary's phase, which is the independence assumption
        behind the paper's geometric restart model.  Deterministic
        otherwise (useful in unit tests).
        """
        if self.backoff_rng is not None:
            return float(self.backoff_rng.exponential(self.restart_backoff))
        return self.restart_backoff

    def _log_aborted_attempt(self, txn: Transaction) -> None:
        """Charge the aborted attempt's log bulk (paper Section 3.3)."""
        fraction = self.log.params.log_bulk_restart_fraction
        if fraction <= 0:
            return
        n_logged = int(round(fraction * len(txn.shadow)))
        if self.logical_updates:
            self.log.append_logical_updates(txn.txn_id,
                                            list(txn.shadow)[:n_logged])
        elif n_logged:
            self.log.append_update_run(txn.txn_id,
                                       *txn.shadow.columns(n_logged))
        self.log.append_abort(txn.txn_id, reason="two-color")

    # -- crash ------------------------------------------------------------------
    def crash(self) -> None:
        """A system failure: all in-flight transaction state is volatile.

        Queued (quiesced) and lock-waiting transactions vanish with the
        machine; the quiesce flag itself was checkpointer state and dies
        too, so processing can restart cleanly after recovery.
        """
        self._quiesced = False
        self._quiesce_queue.clear()
        self._quiesce_queue_served.clear()
        self._waiting.clear()
        # Open txn/quiesce spans die with the machine: drop the handles
        # and let the snapshot clamp the abandoned windows.
        self._txn_spans.clear()
        self._quiesce_spans.clear()
        if self.cpu_server is not None:
            self.cpu_server.crash()
