"""Shared helper classes for the test suite (importable module).

Pytest fixtures live in ``conftest.py``; anything tests import by name
lives here.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint.base import CheckpointScope
from repro.checkpoint.registry import create_checkpointer
from repro.checkpoint.scheduler import CheckpointPolicy
from repro.cpu.accounting import CostLedger, OperationCosts
from repro.mmdb.database import Database
from repro.mmdb.locks import LockManager
from repro.params import SystemParameters
from repro.sim.engine import EventEngine
from repro.sim.timestamps import TimestampAuthority
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.storage.array import DiskArray, SimulatedImageWriter
from repro.storage.backup import BackupStore
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.log import LogManager


def columns(pairs) -> tuple[bytes, bytes]:
    """``(record_id, value)`` pairs as the two little-endian int64
    columns :meth:`LogManager.append_update_run` takes; use it as
    ``log.append_update_run(txn_id, *columns(pairs))``."""
    pairs = np.array(list(pairs), dtype="<i8").reshape(-1, 2)
    return pairs[:, 0].tobytes(), pairs[:, 1].tobytes()


def build_system(
    params: SystemParameters,
    algorithm: str = "FUZZYCOPY",
    *,
    seed: int = 1,
    interval: float | None = None,
    scope: CheckpointScope = CheckpointScope.PARTIAL,
    preload: bool = True,
    **config_overrides,
) -> SimulatedSystem:
    """Convenience constructor used across the simulation tests."""
    config = SimulationConfig(
        params=params,
        algorithm=algorithm,
        scope=scope,
        policy=CheckpointPolicy(interval=interval),
        seed=seed,
        preload_backup=preload,
        **config_overrides,
    )
    return SimulatedSystem(config)


def run_crash_recover(system: SimulatedSystem, duration: float):
    """Run, crash, recover; returns (metrics, recovery_result, mismatches)."""
    metrics = system.run(duration)
    system.crash()
    result = system.recover()
    mismatches = system.verify_recovery()
    return metrics, result, mismatches


class CheckpointHarness:
    """Deterministic substrate for driving checkpointers by hand.

    Unlike :class:`SimulatedSystem` there is no random workload and no
    periodic log flush: tests submit transactions explicitly and control
    exactly when the log becomes stable, which makes the per-algorithm
    behaviours (WAL waits, paint sweeps, copy-on-update) observable.
    """

    def __init__(
        self,
        params: SystemParameters,
        algorithm: str,
        *,
        scope: CheckpointScope = CheckpointScope.PARTIAL,
        io_depth: int | None = None,
        preload: bool = True,
    ) -> None:
        self.params = params
        self.engine = EventEngine()
        self.authority = TimestampAuthority()
        self.ledger = CostLedger(OperationCosts.from_params(params))
        self.database = Database(params)
        self.log = LogManager(params)
        self.locks = LockManager()
        self.array = DiskArray(params)
        self.writer = SimulatedImageWriter(self.array, self.engine)
        self.backup = BackupStore(params)
        self.manager = TransactionManager(
            self.database, self.log, self.locks, self.ledger, self.engine,
            self.authority, restart_backoff=0.001)
        self.checkpointer = create_checkpointer(
            algorithm, params, self.database, self.log, self.locks,
            self.ledger, self.engine, self.backup, self.writer,
            self.authority, scope=scope, io_depth=io_depth)
        self.checkpointer.attach_transaction_manager(self.manager)
        self._next_txn_id = 1
        if preload:
            self.preload_backup()

    def preload_backup(self) -> None:
        zeros = np.zeros(self.params.records_per_segment, dtype=np.int64)
        for checkpoint_id, image in zip((-1, 0), self.backup.images):
            image.begin_checkpoint(checkpoint_id)
            for index in range(self.params.n_segments):
                image.write_segment(index, zeros, 0.0)
            begin = self.log.append_begin_checkpoint(
                checkpoint_id, 0, (), image.index)
            image.complete_checkpoint(checkpoint_id, began_at=0.0,
                                      begin_lsn=begin.lsn)
            self.log.append_end_checkpoint(checkpoint_id, image.index)
        self.log.flush()
        self.log.drain_newly_stable()

    def submit(self, record_ids) -> Transaction:
        """Create and submit a transaction updating ``record_ids``."""
        txn = Transaction(txn_id=self._next_txn_id,
                          record_ids=tuple(record_ids),
                          arrival_time=self.engine.now)
        self._next_txn_id += 1
        self.manager.submit(txn)
        return txn

    def run_checkpoint(self):
        """Start a checkpoint and drive it to completion."""
        self.checkpointer.start_checkpoint()
        return self.drive_checkpoint()

    def drive_checkpoint(self):
        """Drive an already-started checkpoint to completion."""
        for _ in range(1_000_000):
            if not self.checkpointer.active:
                return self.checkpointer.history[-1]
            if not self.engine.step():
                # The only way to be active with an empty queue is a WAL
                # wait; a group flush releases it.
                self.log.flush()
                if not self.checkpointer.active:
                    return self.checkpointer.history[-1]
                if not self.engine.step():
                    raise AssertionError("checkpoint is stuck")
        raise AssertionError("checkpoint did not converge")

    def image_value(self, image_index: int, record_id: int) -> int:
        segment_index = self.database.segment_index_of(record_id)
        image = self.backup.image(image_index)
        data = image.read_segment(segment_index)
        offset = record_id - segment_index * self.params.records_per_segment
        return int(data[offset])
