"""The one-stop experiment facade: ``evaluate`` and ``simulate``.

The two ways of running this reproduction -- the analytic model and the
discrete-event testbed -- are reachable through two calls, both
re-exported at the package top level (grids of either run through
:mod:`repro.sweep`)::

    import repro

    # analytic model, one configuration
    result = repro.evaluate("COUCOPY")
    print(result.overhead_per_txn, result.recovery_time)

    # one testbed run, optionally crash-tested
    outcome = repro.simulate("COUCOPY", scale=1024, duration=5.0, crash=True)
    assert outcome.clean            # oracle found no lost updates

**This module is the only assembler outside** :mod:`repro.sim`: the
CLI, the experiment drivers, the fault checker and the observability
presets all obtain their system from :func:`build_system` (when they
need the live object: the run document, fault counters, checkpoint
history) or from :func:`simulate` (when the outcome is enough).  The
recipe -- scaled-down Tables 2a-2d parameters, the checkpoint interval,
preloaded backups -- therefore exists once, and an algorithm that is
only safe with a stable log tail (FASTFUZZY) is granted one by the
builder, so every entry point accepts every registered algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .checkpoint.base import CheckpointScope
from .checkpoint.registry import resolve_algorithm
from .checkpoint.scheduler import CheckpointPolicy
from .errors import CrashError
from .faults.plan import FaultPlan
from .model.evaluate import ModelOptions, ModelResult
from .model.evaluate import evaluate as _model_evaluate
from .params import SystemParameters
from .sim.system import (
    SimulatedSystem,
    SimulationConfig,
    SimulationMetrics,
)
from .workload.spec import WorkloadSpec


def evaluate(
    algorithm: str,
    params: Optional[SystemParameters] = None,
    *,
    interval: Optional[float] = None,
    scope: CheckpointScope = CheckpointScope.PARTIAL,
    options: Optional[ModelOptions] = None,
) -> ModelResult:
    """Run the analytic model on one (algorithm, configuration) pair.

    Identical to :func:`repro.model.evaluate.evaluate` except that
    ``params`` defaults to the paper's Tables 2a-2d.
    """
    if params is None:
        params = SystemParameters.paper_defaults()
    return _model_evaluate(algorithm, params, interval=interval, scope=scope,
                           options=options)


@dataclass(frozen=True)
class SimulationOutcome:
    """Everything one :func:`simulate` call produced."""

    config: SimulationConfig
    metrics: SimulationMetrics
    #: the :class:`~repro.recovery.restore.RecoveryResult` of a crashed
    #: run; ``None`` otherwise
    recovery: Optional[Any] = None
    #: :class:`~repro.sim.oracle.RecordMismatch` entries (record id
    #: plus expected/recovered values); empty list = recovery verified
    mismatches: Optional[List[Any]] = None
    #: MetricsRegistry snapshot when the run had ``telemetry=True``;
    #: ``None`` otherwise.  A plain dict, so an outcome stays picklable
    #: and a sweep worker can hand it back to the parent process.
    telemetry: Optional[Dict[str, Any]] = None
    #: span snapshot (plain dicts, :meth:`SpanRecorder.snapshot` form)
    #: when the run had ``spans=True``; ``None`` otherwise.  Feed it to
    #: :func:`repro.obs.attribute_stalls` / :func:`repro.obs.chrome_trace`.
    spans: Optional[List[Dict[str, Any]]] = None

    @property
    def crashed(self) -> bool:
        """Whether the run ended with an injected crash + recovery."""
        return self.recovery is not None

    @property
    def clean(self) -> bool:
        """True when no crash was injected, or recovery lost nothing."""
        return not self.mismatches


def build_system(
    algorithm: str = "COUCOPY",
    *,
    params: Optional[SystemParameters] = None,
    scale: int = 256,
    lam: Optional[float] = None,
    seed: int = 0,
    interval: Optional[float] = None,
    stable_tail: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    workload: Optional[WorkloadSpec] = None,
    preload_backup: bool = True,
    **config_fields: Any,
) -> SimulatedSystem:
    """Turn run arguments into a ready, not-yet-run system.

    Args:
        algorithm: checkpointer name (``repro.ALGORITHM_NAMES`` plus the
            extensions).
        params: explicit system parameters; default is
            ``SystemParameters.scaled_down(scale, lam=lam)``.
        scale: database scale-down factor versus the paper (ignored when
            ``params`` is given).
        lam: arrival rate override, transactions/second.
        seed: RNG seed (one seed = one deterministic run).
        interval: checkpoint interval; ``None`` = minimum-duration policy.
        stable_tail: stable RAM holds the log tail.  Granted regardless
            to an algorithm whose class sets ``requires_stable_tail``
            (FASTFUZZY), which is unsafe without one.
        fault_plan: a :class:`~repro.faults.plan.FaultPlan` arming the
            deterministic fault injector (mid-run crash triggers, torn
            writes, transient I/O errors).
        workload: the run's :class:`~repro.workload.WorkloadSpec`;
            ``None`` keeps the paper's default fixed-rate uniform load.
        preload_backup: both backup images start out holding the initial
            database, so the first checkpoints are partial sweeps.
        **config_fields: extra :class:`SimulationConfig` fields
            (``telemetry=True``, ``spans=True``, ``cpu_mips=50.0``, ...).

    Returns:
        A :class:`SimulatedSystem`; ``system.config`` is the
        configuration built.
    """
    if params is None:
        params = SystemParameters.scaled_down(scale, lam=lam)
    elif lam is not None:
        params = params.replace(lam=lam)
    if ((stable_tail or resolve_algorithm(algorithm).requires_stable_tail)
            and not params.stable_log_tail):
        params = params.replace(stable_log_tail=True)
    if workload is not None:
        config_fields["workload"] = workload
    config = SimulationConfig(
        params=params,
        algorithm=algorithm,
        seed=seed,
        policy=CheckpointPolicy(interval=interval),
        preload_backup=preload_backup,
        fault_plan=fault_plan,
        **config_fields,
    )
    return SimulatedSystem(config)


def simulate(
    algorithm: str = "COUCOPY",
    *,
    duration: float = 10.0,
    warmup: float = 0.0,
    crash: bool = False,
    **system_args: Any,
) -> SimulationOutcome:
    """One complete testbed run, from configuration to verified recovery.

    Builds the system with :func:`build_system` (every keyword it takes
    is accepted here: ``scale``, ``lam``, ``seed``, ``interval``,
    ``workload``, ``fault_plan``, ``telemetry=True``, ...), runs
    ``warmup`` seconds that are excluded from the metrics, measures
    ``duration`` seconds, and -- with ``crash=True`` -- injects a crash,
    recovers, and checks the result against the committed-state oracle.
    A crash that an armed ``fault_plan`` injects mid-run is completed,
    recovered and oracle-verified exactly like ``crash=True``; the
    metrics then cover the truncated run.

    Returns:
        A :class:`SimulationOutcome`; ``outcome.clean`` asserts the
        oracle found no discrepancies (``mismatches == []``).
    """
    system = build_system(algorithm, **system_args)
    crashed_by_fault = False
    try:
        if warmup > 0:
            system.run(warmup)
            system.reset_measurements()
        metrics = system.run(duration)
    except CrashError:
        # The armed fault plan pulled the plug mid-run; metrics cover
        # what completed before the lights went out.
        crashed_by_fault = True
        metrics = system.metrics()
    recovery: Optional[Any] = None
    mismatches: Optional[List[Any]] = None
    if crash or crashed_by_fault:
        system.crash()
        recovery = system.recover()
        mismatches = system.verify_recovery()
    return SimulationOutcome(config=system.config, metrics=metrics,
                             recovery=recovery, mismatches=mismatches,
                             telemetry=system.telemetry_snapshot(),
                             spans=system.spans_snapshot())


__all__ = [
    "ModelOptions",
    "ModelResult",
    "SimulationOutcome",
    "build_system",
    "evaluate",
    "simulate",
]
