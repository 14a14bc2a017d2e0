"""Explicit component construction for the simulated MMDBMS.

:class:`SystemBuilder` replaces the inline wiring that used to live in
``SimulatedSystem.__init__``: every subsystem -- database, locks, WAL,
disks, backups, transaction manager, checkpointer, scheduler, workload,
faults, telemetry -- is built by its own overridable ``build_*`` method,
in a fixed order, into a :class:`SystemComponents` record that the
system adopts verbatim.

Substitution has two entry points, from lighter to heavier:

* ``with_component(name, obj)`` -- drop in a ready-made instance for one
  slot (a fake ``TelemetrySink`` in a test, a hand-built workload);
* subclassing -- override a ``build_*`` method when construction itself
  must change (alternative transaction manager, sharded backup target,
  an image writer other than the simulated disk array via
  ``build_image_writer``).

The build order matters only for readability -- no component consumes
randomness during construction -- but it is kept identical to the
historical ``__init__`` wiring so a fixed-seed run builds bit-identical
state.  The component *types* are the ports in :mod:`repro.sim.ports`;
the defaults are the concrete classes named in each method.

Example::

    builder = (SystemBuilder(config)
               .with_component("telemetry", MyRecordingSink()))
    system = builder.build()           # a SimulatedSystem
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from ..checkpoint.registry import create_checkpointer
from ..checkpoint.scheduler import CheckpointScheduler
from ..cpu.accounting import CostLedger, OperationCosts
from ..errors import ConfigurationError
from ..faults.injector import NULL_INJECTOR, FaultInjector
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


@dataclass
class SystemComponents:
    """Every subsystem of one simulated MMDBMS, fully wired.

    ``SimulatedSystem`` adopts these as its attributes of the same
    names.  Field order mirrors build order (dependencies first).
    """

    engine: Any
    streams: Any
    authority: Any
    ledger: Any
    database: Any
    telemetry: Any
    spans: Any
    faults: Any
    log: Any
    locks: Any
    array: Any
    backup: Any
    oracle: Any
    cpu: Optional[Any]
    txn_manager: Any
    checkpointer: Any
    scheduler: Any
    workload: Any

    @classmethod
    def slot_names(cls) -> tuple:
        return tuple(f.name for f in fields(cls))


class SystemBuilder:
    """Builds the component set of one :class:`SimulatedSystem`."""

    def __init__(self, config: "SimulationConfig") -> None:
        self.config = config
        self.params = config.params
        self._overrides: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # substitution surface
    # ------------------------------------------------------------------
    def with_component(self, name: str, component: Any) -> "SystemBuilder":
        """Use ``component`` verbatim for the slot ``name``.

        ``name`` is a :class:`SystemComponents` field.  The component
        must satisfy the corresponding port in :mod:`repro.sim.ports`
        structurally; nothing is type-checked here beyond the slot name,
        so a wrong-shaped fake fails at its first use, loudly.
        """
        if name not in SystemComponents.slot_names():
            known = ", ".join(SystemComponents.slot_names())
            raise ConfigurationError(
                f"unknown component slot {name!r}; known slots: {known}")
        self._overrides[name] = component
        return self

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

    def build_faults(self) -> FaultInjector:
        if self.config.fault_plan is None:
            return NULL_INJECTOR
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

    def restart_backoff(self) -> float:
        backoff = self.config.restart_backoff
        if backoff is None:
            backoff = minimum_duration(self.params, self.config.scope) / 2
        return backoff

    def build_txn_manager(self) -> TransactionManager:
        config = self.config
        return TransactionManager(
            self.database, self.log, self.locks, self.ledger, self.engine,
            self.authority,
            restart_backoff=self.restart_backoff(),
            max_attempts=config.max_attempts,
            backoff_rng=self.streams.stream("txn.backoff"),
            logical_updates=config.logical_updates,
            flush_on_commit=config.log_flush_on_commit,
            cpu_server=self.cpu,
            telemetry=self.telemetry,
            spans=self.spans,
            response_reservoir=config.response_reservoir,
        )

    def build_image_writer(self) -> SimulatedImageWriter:
        """The checkpointer's write port: the backup disk array."""
        return SimulatedImageWriter(self.array, self.engine,
                                    faults=self.faults)

    def build_checkpointer(self) -> Any:
        config = self.config
        checkpointer = create_checkpointer(
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
        return checkpointer

    def build_scheduler(self) -> CheckpointScheduler:
        return CheckpointScheduler(self.checkpointer, self.engine,
                                   self.config.policy)

    def build_workload(self) -> WorkloadGenerator:
        return WorkloadGenerator(self.params, self.config.workload,
                                 self.streams)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _slot(self, name: str, factory: Callable[[], Any]) -> Any:
        if name in self._overrides:
            component = self._overrides[name]
        else:
            component = factory()
        setattr(self, name, component)
        return component

    def build_components(self) -> SystemComponents:
        """Construct every component, honouring overrides, in build order.

        Components built earlier are available to later factories as
        attributes of the builder (``self.engine``, ``self.telemetry``,
        ...), which is how dependency injection flows without a
        container: an overridden telemetry sink is simply what
        ``build_log`` finds in ``self.telemetry``.
        """
        for name, factory in (
            ("engine", self.build_engine),
            ("streams", self.build_streams),
            ("authority", self.build_authority),
            ("ledger", self.build_ledger),
            ("database", self.build_database),
            ("telemetry", self.build_telemetry),
            ("spans", self.build_spans),
            ("faults", self.build_faults),
            ("log", self.build_log),
            ("locks", self.build_locks),
            ("array", self.build_array),
            ("backup", self.build_backup),
            ("oracle", self.build_oracle),
            ("cpu", self.build_cpu),
            ("txn_manager", self.build_txn_manager),
            ("checkpointer", self.build_checkpointer),
            ("scheduler", self.build_scheduler),
            ("workload", self.build_workload),
        ):
            self._slot(name, factory)
        self.checkpointer.attach_transaction_manager(self.txn_manager)
        return SystemComponents(
            engine=self.engine, streams=self.streams,
            authority=self.authority, ledger=self.ledger,
            database=self.database, telemetry=self.telemetry,
            spans=self.spans, faults=self.faults,
            log=self.log, locks=self.locks,
            array=self.array, backup=self.backup, oracle=self.oracle,
            cpu=self.cpu, txn_manager=self.txn_manager,
            checkpointer=self.checkpointer, scheduler=self.scheduler,
            workload=self.workload,
        )

    def build(self) -> "SimulatedSystem":
        """Build the components and the system around them."""
        from .system import SimulatedSystem
        return SimulatedSystem(self.config, components=self.build_components())
