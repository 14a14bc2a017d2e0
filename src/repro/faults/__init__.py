"""Deterministic fault injection and crash-consistency verification.

Layers:

* :mod:`repro.faults.plan` -- declarative :class:`FaultPlan` (crash
  triggers, torn writes, transient I/O faults), serialisable and
  therefore sweepable;
* :mod:`repro.faults.injector` -- the :class:`FaultInjector` handle
  the storage, log, and checkpoint layers hook into (they hold ``None``
  when no plan is armed, and the live server never loads this package);
* :mod:`repro.faults.checker` -- the
  :class:`~repro.faults.checker.CrashConsistencyChecker`: run a plan,
  crash, recover from backup + log, verify record-level equality
  against the committed-state oracle;
* :mod:`repro.faults.matrix` -- seeded-random plan generation plus the
  picklable point function that fans a crash matrix out over the
  :class:`~repro.sweep.SweepRunner`.

``checker`` and ``matrix`` import the simulator, which itself imports
``plan``/``injector``; every name is therefore exported lazily
(:mod:`repro._lazy`) to keep the package import acyclic.
"""

from __future__ import annotations

from .._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "CRASH_PHASES": ".plan",
    "CrashSpec": ".plan",
    "FaultPlan": ".plan",
    "IOFaultSpec": ".plan",
    "FaultInjector": ".injector",
    "CrashConsistencyChecker": ".checker",
    "FaultRunReport": ".checker",
    "crash_matrix_points": ".matrix",
    "random_plans": ".matrix",
    "run_fault_cell": ".matrix",
})

__all__ = [
    "CRASH_PHASES",
    "CrashSpec",
    "FaultPlan",
    "IOFaultSpec",
    "FaultInjector",
    "CrashConsistencyChecker",
    "FaultRunReport",
    "crash_matrix_points",
    "random_plans",
    "run_fault_cell",
]
