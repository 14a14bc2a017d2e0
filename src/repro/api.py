"""The one-stop experiment facade: ``evaluate``, ``simulate``, ``sweep``.

Every way of running this reproduction -- the analytic model, the
discrete-event testbed, and grid experiments over either -- is reachable
through three calls, all re-exported at the package top level::

    import repro

    # analytic model, one configuration
    result = repro.evaluate("COUCOPY")
    print(result.overhead_per_txn, result.recovery_time)

    # one testbed run, optionally crash-tested
    outcome = repro.simulate("COUCOPY", scale=1024, duration=5.0, crash=True)
    assert outcome.clean            # oracle found no lost updates

    # a parallel, cached parameter sweep over any picklable function
    result = repro.sweep(my_point_fn,
                         grid={"algorithm": ["COUCOPY", "2CCOPY"],
                               "lam": [100.0, 200.0]},
                         workers=4)

**This module is the only assembler outside** :mod:`repro.sim`: the
CLI, the experiment drivers, the fault checker and the observability
presets all obtain their system from :func:`build_system` (when they
need the live object: the run document, fault counters, per-shard
history) or from :func:`simulate` (when the outcome is enough).  The
recipe -- scaled-down Tables 2a-2d parameters, the checkpoint interval,
preloaded backups, single engine vs. partitioned -- therefore exists
once, and an algorithm that is only safe with a stable log tail
(FASTFUZZY) is granted one by the builder, so every entry point accepts
every registered algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .checkpoint.base import CheckpointScope
from .checkpoint.registry import resolve_algorithm
from .checkpoint.scheduler import CheckpointPolicy
from .errors import ConfigurationError, CrashError
from .faults.plan import FaultPlan
from .model.evaluate import ModelOptions, ModelResult
from .model.evaluate import evaluate as _model_evaluate
from .params import SystemParameters
from .sim.partition import PartitionedSystem
from .sim.system import (
    SimulatedSystem,
    SimulationConfig,
    SimulationMetrics,
)
from .sweep import SweepResult, SweepRunner, SweepSpec
from .sweep.cache import PathLike


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
    #: single-engine runs carry a :class:`RecoveryResult`; partitioned
    #: runs (``config.partitions > 1``) a
    #: :class:`~repro.recovery.parallel.ParallelRecoveryResult` (same
    #: ``total_time`` / replay-count surface, plus the worker schedule)
    recovery: Optional[Any] = None
    #: :class:`~repro.sim.oracle.RecordMismatch` entries (record id
    #: plus expected/recovered values); empty list = recovery verified
    mismatches: Optional[List[Any]] = None
    #: MetricsRegistry snapshot when the run had ``telemetry=True``;
    #: ``None`` otherwise.  A plain dict, so outcomes stay picklable and
    #: sweep caches can carry it (``SweepResult.merged_telemetry``).
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
    workload: Optional[Any] = None,
    preload_backup: bool = True,
    fault_partitions: Optional[Sequence[int]] = None,
    **config_fields: Any,
) -> Any:
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
        workload: the run's workload -- a
            :class:`~repro.workload.WorkloadSpec`, a registered scenario
            name (``"write-storm"``; see
            :func:`repro.workload.scenario_names`), or a spec dict.
            ``None`` keeps the paper's default fixed-rate uniform load.
        preload_backup: both backup images start out holding the initial
            database, so the first checkpoints are partial sweeps.
        fault_partitions: the shards that arm ``fault_plan`` in a
            partitioned run (default: all of them).
        **config_fields: extra :class:`SimulationConfig` fields
            (``telemetry=True``, ``spans=True``, ``cpu_mips=50.0``,
            ``partitions=4``, ...).

    Returns:
        A :class:`SimulatedSystem`, or for ``partitions > 1`` a
        :class:`PartitionedSystem` (the same run / crash / recover /
        verify surface); ``system.config`` is the configuration built.
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
    # N=1 takes the original single-engine path -- not a one-shard
    # PartitionedSystem -- so fixed-seed runs stay bit-identical to the
    # pre-partitioning engine.
    if config.partitions > 1:
        return PartitionedSystem(config, fault_partitions=fault_partitions)
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


def sweep(
    fn: Callable[..., Any],
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    points: Optional[Sequence[Mapping[str, Any]]] = None,
    fixed: Optional[Mapping[str, Any]] = None,
    replicates: int = 1,
    base_seed: int = 0,
    seed_arg: Optional[str] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[PathLike] = None,
    progress: Optional[Callable[[int, int, Any], None]] = None,
    runner: Optional[SweepRunner] = None,
) -> SweepResult:
    """Run ``fn`` over a parameter grid, in parallel, with caching.

    Exactly one of ``grid`` (named axes whose cartesian product is
    swept) or ``points`` (an explicit list of kwargs dicts) describes
    the parameter space; ``fixed`` supplies arguments shared by every
    point.  With ``replicates > 1``, every point runs under several
    deterministically derived seeds passed via ``seed_arg``.

    ``workers=None`` uses every core; pass ``workers=1`` to force the
    serial path (the results are bit-identical either way).  A
    ``cache_dir`` makes re-runs skip every already-computed point.
    """
    if (grid is None) == (points is None):
        raise ConfigurationError("pass exactly one of grid= or points=")
    if grid is not None:
        spec = SweepSpec.from_grid(fn, grid, fixed=fixed,
                                   replicates=replicates,
                                   base_seed=base_seed, seed_arg=seed_arg)
    else:
        spec = SweepSpec.from_points(fn, points, fixed=fixed,
                                     replicates=replicates,
                                     base_seed=base_seed, seed_arg=seed_arg)
    if runner is None:
        runner = SweepRunner(workers=workers, cache_dir=cache_dir,
                             progress=progress)
    return runner.run(spec)


#: Structured grid sweep results, re-exported for facade completeness.
__all__ = [
    "ModelOptions",
    "ModelResult",
    "SimulationOutcome",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "build_system",
    "evaluate",
    "simulate",
    "sweep",
]
