"""The open-system workload subsystem.

Everything about *what load a simulation run sees* lives here:

* :mod:`repro.workload.spec` -- the declarative
  :class:`~repro.workload.spec.WorkloadSpec` (skew, size mixture,
  arrival discipline, optional schedule), strictly dict/JSON
  round-trippable;
* :mod:`repro.workload.schedule` -- :class:`ArrivalSchedule` and its
  phase grammar (constant / ramp / spike / diurnal / pause);
* :mod:`repro.workload.scenarios` -- the ``@register_scenario``
  registry and the built-in presets (``bank``, ``kv``, ``read-heavy``,
  ``write-storm``, ``diurnal``);
* :mod:`repro.workload.source` -- the
  :class:`~repro.workload.source.ScheduledWorkloadSource` arrival
  source behind the :class:`~repro.sim.ports.WorkloadSource` port;
* :mod:`repro.workload.cells` -- scenarios as sweepable points.

Every name is exported lazily (:mod:`repro._lazy`): ``source`` and
``cells`` import :mod:`repro.txn.workload`, which re-imports this
package for the spec -- the lazy hop keeps that legacy shim
cycle-free.
"""

from __future__ import annotations

from .._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "PHASE_KINDS": ".schedule",
    "ArrivalSchedule": ".schedule",
    "SchedulePhase": ".schedule",
    "constant": ".schedule",
    "diurnal": ".schedule",
    "pause": ".schedule",
    "ramp": ".schedule",
    "spike": ".schedule",
    "WorkloadScenario": ".scenarios",
    "get_scenario": ".scenarios",
    "register_scenario": ".scenarios",
    "resolve_workload": ".scenarios",
    "scenario_names": ".scenarios",
    "unregister_scenario": ".scenarios",
    "AccessDistribution": ".spec",
    "WorkloadSpec": ".spec",
    "ScheduledWorkloadSource": ".source",
    "run_scenario_cell": ".cells",
    "scenario_points": ".cells",
})

__all__ = [
    "AccessDistribution",
    "ArrivalSchedule",
    "PHASE_KINDS",
    "SchedulePhase",
    "ScheduledWorkloadSource",
    "WorkloadScenario",
    "WorkloadSpec",
    "constant",
    "diurnal",
    "get_scenario",
    "pause",
    "ramp",
    "register_scenario",
    "resolve_workload",
    "run_scenario_cell",
    "scenario_names",
    "scenario_points",
    "spike",
    "unregister_scenario",
]
