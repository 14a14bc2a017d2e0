"""Explicit component construction for the simulated MMDBMS.

:class:`SystemBuilder` builds every subsystem of a
:class:`~repro.sim.system.SimulatedSystem` -- database, locks, WAL,
disks, backups, transaction manager, checkpointer, scheduler, workload,
faults, telemetry -- each by its own ``build_*`` method, in the fixed
order of :data:`COMPONENTS`.  The system takes the built components
straight from the builder as its attributes of the same names.

Substitution has one entry point: subclass the builder and override the
``build_*`` method of the component to replace (a recording telemetry
sink, an alternative transaction manager, an image writer other than
the simulated disk array via ``build_image_writer``).  A factory finds
the components built before it as attributes of the builder, so an
overridden telemetry sink is what ``build_log`` finds in
``self.telemetry``.

The build order matters only for readability -- no component consumes
randomness during construction -- but it is kept fixed so a fixed-seed
run builds bit-identical state.  The component *types* are the ports in
:mod:`repro.sim.ports`; the defaults are the concrete classes named in
each method.

Example::

    class RecordingBuilder(SystemBuilder):
        def build_telemetry(self):
            return MyRecordingSink()

    system = RecordingBuilder(config).build()   # a SimulatedSystem
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from ..checkpoint.registry import create_checkpointer
from ..checkpoint.scheduler import CheckpointScheduler
from ..cpu.accounting import CostLedger, OperationCosts
from ..faults.injector import FaultInjector
from ..mmdb.database import Database
from ..mmdb.locks import LockManager
from ..model.duration import minimum_duration
from ..obs.spans import NULL_SPANS, SpanRecorder
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..storage.array import DiskArray, SimulatedImageWriter
from ..storage.backup import BackupStore
from ..txn.manager import TransactionManager
from ..txn.workload import WorkloadGenerator
from ..wal.log import LogManager
from .cpu_server import CpuServer
from .engine import EventEngine
from .oracle import CommittedStateOracle
from .rng import RandomStreams
from .timestamps import TimestampAuthority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import SimulatedSystem, SimulationConfig

#: every component of a system, in build order (dependencies first);
#: ``build_<name>`` makes each one
COMPONENTS = ("engine", "streams", "authority", "ledger", "database",
              "telemetry", "spans", "faults", "log", "locks", "array",
              "backup", "oracle", "cpu", "txn_manager", "checkpointer",
              "scheduler", "workload")


class SystemBuilder:
    """Builds the components of one :class:`SimulatedSystem`."""

    def __init__(self, config: "SimulationConfig") -> None:
        self.config = config
        self.params = config.params

    # ------------------------------------------------------------------
    # per-component factories (override points for subclasses)
    # ------------------------------------------------------------------
    def build_engine(self) -> EventEngine:
        return EventEngine()

    def build_streams(self) -> RandomStreams:
        return RandomStreams(self.config.seed)

    def build_authority(self) -> TimestampAuthority:
        return TimestampAuthority()

    def build_ledger(self) -> CostLedger:
        return CostLedger(OperationCosts.from_params(self.params))

    def build_database(self) -> Database:
        return Database(self.params)

    def build_telemetry(self) -> Telemetry:
        return (Telemetry(enabled=True) if self.config.telemetry
                else NULL_TELEMETRY)

    def build_spans(self) -> SpanRecorder:
        if not self.config.spans:
            return NULL_SPANS
        return SpanRecorder(enabled=True, clock=self.engine)

    def build_faults(self) -> Optional[FaultInjector]:
        """The run's fault injector; None when no plan is armed."""
        if self.config.fault_plan is None:
            return None
        return FaultInjector(self.config.fault_plan,
                             telemetry=self.telemetry,
                             spans=self.spans)

    def build_log(self) -> LogManager:
        return LogManager(self.params, telemetry=self.telemetry,
                          faults=self.faults, spans=self.spans)

    def build_locks(self) -> LockManager:
        return LockManager()

    def build_array(self) -> DiskArray:
        return DiskArray(self.params, telemetry=self.telemetry,
                         faults=self.faults)

    def build_backup(self) -> BackupStore:
        return BackupStore(self.params)

    def build_oracle(self) -> CommittedStateOracle:
        return CommittedStateOracle(self.params)

    def build_cpu(self) -> Optional[CpuServer]:
        if self.config.cpu_mips is None:
            return None
        return CpuServer(self.engine, self.config.cpu_mips,
                         telemetry=self.telemetry)

    def build_txn_manager(self) -> TransactionManager:
        config = self.config
        return TransactionManager(
            self.database, self.log, self.locks, self.ledger, self.engine,
            self.authority,
            # A checkpointer-aborted transaction reruns after half the
            # minimum checkpoint duration: retrying on the checkpoint's
            # own timescale gives it a genuine chance that the paint
            # boundary has moved past its access set, the independence
            # the paper's geometric restart model assumes.  A much
            # smaller backoff makes retries strongly correlated and
            # rerun counts blow up (see repro.experiments.validation).
            restart_backoff=minimum_duration(self.params, config.scope) / 2,
            backoff_rng=self.streams.stream("txn.backoff"),
            logical_updates=config.logical_updates,
            flush_on_commit=config.log_flush_on_commit,
            cpu_server=self.cpu,
            telemetry=self.telemetry,
            spans=self.spans,
        )

    def build_image_writer(self) -> SimulatedImageWriter:
        """The checkpointer's write port: the backup disk array."""
        return SimulatedImageWriter(self.array, self.engine,
                                    faults=self.faults)

    def build_checkpointer(self) -> Any:
        config = self.config
        return create_checkpointer(
            config.algorithm,
            self.params, self.database, self.log, self.locks, self.ledger,
            self.engine, self.backup, self.build_image_writer(),
            self.authority,
            scope=config.scope, io_depth=config.io_depth,
            quiesce_latency=config.cou_quiesce_latency,
            truncate_log=config.truncate_log,
            telemetry=self.telemetry,
            faults=self.faults,
            spans=self.spans,
        )

    def build_scheduler(self) -> CheckpointScheduler:
        return CheckpointScheduler(self.checkpointer, self.engine,
                                   self.config.policy)

    def build_workload(self) -> WorkloadGenerator:
        return WorkloadGenerator(self.params, self.config.workload,
                                 self.streams)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build_components(self) -> Dict[str, Any]:
        """Construct every component in :data:`COMPONENTS` order.

        Each one becomes an attribute of the builder as soon as it is
        built, which is how later factories find their dependencies.
        """
        for name in COMPONENTS:
            setattr(self, name, getattr(self, "build_" + name)())
        self.checkpointer.attach_transaction_manager(self.txn_manager)
        return {name: getattr(self, name) for name in COMPONENTS}

    def build(self) -> "SimulatedSystem":
        """Build the components and the system around them."""
        from .system import SimulatedSystem
        return SimulatedSystem(self.config, builder=self)
