"""The simulation package: engine, kernel, and component wiring.

Three layers live here, bottom-up:

* **engine** -- a small, dependency-free discrete-event substrate: a
  priority queue of timestamped events (:mod:`~repro.sim.engine`), a
  monotonic clock, seeded random streams, timestamps, and the typed
  component ports (:mod:`~repro.sim.ports`).  Engine modules
  import nothing above themselves (``scripts/check_layering.py``
  enforces this).
* **kernel** -- the assembled MMDBMS testbed:
  :class:`~repro.sim.system.SimulatedSystem` running a transaction
  workload against database + WAL + disks + ping-pong backups with a
  checkpointer, crash injection, recovery, and the independent
  committed-state oracle (:mod:`~repro.sim.oracle`).
* **components** -- :class:`~repro.sim.builder.SystemBuilder`, which
  constructs every subsystem through one overridable ``build_*`` method
  each, so a subclass can substitute any one of them.

Every name is exported lazily (:mod:`repro._lazy`): engine modules are
imported by the database/txn/checkpoint layers, so importing the kernel
here eagerly would cycle, and the live host, which needs the engine and
the oracle, loads no simulator.  ``from repro.sim import
SimulatedSystem`` works regardless.

(The paper closes by announcing exactly such a testbed -- "we are
currently implementing a testbed with which we will be able to
experimentally evaluate the algorithms presented here"; here it serves
to validate the analytic model and to prove each algorithm's recovery
correctness.)
"""

from .._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "ports": ".ports",
    "Clock": ".clock",
    "CpuServer": ".cpu_server",
    "EventEngine": ".engine",
    "EventHandle": ".engine",
    "RandomStreams": ".rng",
    "TimestampAuthority": ".timestamps",
    "SimulatedSystem": ".system",
    "SimulationConfig": ".system",
    "SimulationMetrics": ".system",
    "SystemBuilder": ".builder",
    "CommittedStateOracle": ".oracle",
})

__all__ = [
    "Clock",
    "CommittedStateOracle",
    "CpuServer",
    "EventEngine",
    "EventHandle",
    "RandomStreams",
    "SimulatedSystem",
    "SimulationConfig",
    "SimulationMetrics",
    "SystemBuilder",
    "TimestampAuthority",
    "ports",
]
