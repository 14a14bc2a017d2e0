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

    spec = repro.SweepSpec.from_grid(           # a grid of points
        point_fn, {"algorithm": ["COUCOPY", "2CCOPY"]})
    result = repro.SweepRunner(workers=4).run(spec)   # over 4 processes

See ``examples/`` for complete walkthroughs, ``python -m repro figures``
for the figure-by-figure reproduction, ``benchmarks/ckptbench`` for the
performance benchmark, and ``docs/SWEEPS.md`` for the sweep subsystem.
"""

from ._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "ALGORITHM_NAMES": ".checkpoint.registry",
    "CheckpointPolicy": ".checkpoint.scheduler",
    "CheckpointScope": ".checkpoint.base",
    "ReproError": ".errors",
    "SweepError": ".errors",
    "CrashSpec": ".faults.plan",
    "FaultPlan": ".faults.plan",
    "IOFaultSpec": ".faults.plan",
    "ModelResult": ".model.evaluate",
    "PAPER_DEFAULTS": ".params",
    "SystemParameters": ".params",
    "SimulatedSystem": ".sim.system",
    "SimulationConfig": ".sim.system",
    "SweepResult": ".sweep",
    "SweepRunner": ".sweep",
    "SweepSpec": ".sweep",
    "AccessDistribution": ".workload.spec",
    "WorkloadSpec": ".workload.spec",
    "api": ".api",
    "SimulationOutcome": ".api",
    "evaluate": ".api",
    "simulate": ".api",
})

__version__ = "1.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AccessDistribution",
    "CheckpointPolicy",
    "CheckpointScope",
    "CrashSpec",
    "FaultPlan",
    "IOFaultSpec",
    "ModelResult",
    "PAPER_DEFAULTS",
    "ReproError",
    "SimulatedSystem",
    "SimulationConfig",
    "SimulationOutcome",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SystemParameters",
    "WorkloadSpec",
    "evaluate",
    "simulate",
    "__version__",
]
