"""Reproduction of Salem & Garcia-Molina, *Checkpointing Memory-Resident
Databases* (Princeton CS-TR-126-87 / ICDE 1989).

The package has two faces:

* :mod:`repro.model` -- the paper's analytic performance model, which
  regenerates every figure of Section 4 (processor overhead and recovery
  time for the six checkpointing algorithms);
* :mod:`repro.sim` -- an executable MMDBMS testbed (database, WAL,
  disks, ping-pong backups, transactions, the six checkpointers, crash
  injection and recovery) that validates the model and proves recovery
  correctness end to end.

Both are driven through the :mod:`repro.api` facade::

    import repro

    result = repro.evaluate("COUCOPY")          # analytic model
    print(result.overhead_per_txn, result.recovery_time)

    outcome = repro.simulate("COUCOPY", scale=1024, duration=5.0,
                             crash=True)        # testbed + verified recovery
    assert outcome.clean

    result = repro.sweep(point_fn,              # parallel, cached grids
                         grid={"algorithm": ["COUCOPY", "2CCOPY"]},
                         workers=4)

See ``examples/`` for complete walkthroughs, ``python -m repro figures``
for the figure-by-figure reproduction, ``benchmarks/ckptbench`` for the
performance benchmark, and ``docs/SWEEPS.md`` for the sweep subsystem.
"""

from types import ModuleType as _ModuleType

from .checkpoint import (
    ALGORITHM_NAMES,
    CheckpointPolicy,
    CheckpointScope,
)
from .errors import ReproError, SweepError
from .faults import CrashSpec, FaultPlan, IOFaultSpec
from .model import ModelResult
from .params import PAPER_DEFAULTS, SystemParameters
from .sim import SimulatedSystem, SimulationConfig
from .sweep import SweepResult, SweepRunner, SweepSpec
from .workload import (
    AccessDistribution,
    ArrivalSchedule,
    SchedulePhase,
    WorkloadScenario,
    WorkloadSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)

from . import api
from . import sweep  # noqa: F811 - made a callable facade below
from .api import SimulationOutcome, evaluate, simulate


class _FacadeModule(_ModuleType):
    """A submodule that is also callable as its same-named api function.

    ``repro.sweep`` stays the real subpackage (so every ``repro.sweep.*``
    import path keeps working) while ``repro.sweep(...)`` invokes
    :func:`repro.api.sweep`.
    """

    def __call__(self, *args, **kwargs):
        return api.sweep(*args, **kwargs)


sweep.__class__ = _FacadeModule

__version__ = "1.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AccessDistribution",
    "ArrivalSchedule",
    "CheckpointPolicy",
    "CheckpointScope",
    "CrashSpec",
    "FaultPlan",
    "IOFaultSpec",
    "ModelResult",
    "PAPER_DEFAULTS",
    "ReproError",
    "SchedulePhase",
    "SimulatedSystem",
    "SimulationConfig",
    "SimulationOutcome",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SystemParameters",
    "WorkloadScenario",
    "WorkloadSpec",
    "evaluate",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "simulate",
    "sweep",
    "__version__",
]
