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
  constructs every subsystem through overridable factories so tests and
  extensions can substitute any one of them.

The kernel names are exported lazily: engine modules are imported by the
database/txn/checkpoint layers, so importing them here eagerly would
cycle.  ``from repro.sim import SimulatedSystem`` works regardless.

(The paper closes by announcing exactly such a testbed -- "we are
currently implementing a testbed with which we will be able to
experimentally evaluate the algorithms presented here"; here it serves
to validate the analytic model and to prove each algorithm's recovery
correctness.)
"""

from . import ports
from .clock import Clock
from .cpu_server import CpuServer
from .engine import EventEngine, EventHandle
from .rng import RandomStreams
from .timestamps import TimestampAuthority

#: kernel/component names resolved lazily from their modules
_LAZY = {
    "SimulatedSystem": "system",
    "SimulationConfig": "system",
    "SimulationMetrics": "system",
    "SystemBuilder": "builder",
    "SystemComponents": "builder",
    "CommittedStateOracle": "oracle",
    "RecordMismatch": "oracle",
}

__all__ = [
    "Clock",
    "CommittedStateOracle",
    "CpuServer",
    "EventEngine",
    "EventHandle",
    "RandomStreams",
    "RecordMismatch",
    "SimulatedSystem",
    "SimulationConfig",
    "SimulationMetrics",
    "SystemBuilder",
    "SystemComponents",
    "TimestampAuthority",
    "ports",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: resolve once
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
