"""The seeded crash matrix: fault plans as sweepable points.

Two pieces make fault campaigns first-class sweep workloads:

* :func:`random_plans` draws N structurally diverse fault plans from one
  seed -- crash trigger kind, trigger parameters, torn writes, and
  transient-I/O settings all come from a single ``numpy`` stream, so the
  matrix is reproducible end to end;
* :func:`run_fault_cell` is the picklable point function: it accepts the
  plan as a plain dict (sweep kwargs must be canonicalisable for seed
  derivation and cache keys), rebuilds it, runs the
  :class:`~repro.faults.checker.CrashConsistencyChecker`, and returns the
  report dict.

A whole campaign is then one :class:`~repro.sweep.runner.SweepRunner`
call over :func:`crash_matrix_points` -- with process fan-out, caching,
and failure isolation for free::

    points = crash_matrix_points(ALGORITHM_NAMES, random_plans(10, seed=42))
    result = SweepRunner().map(run_fault_cell, points,
                               fixed={"scale": 4096, "duration": 8.0})
    assert all(cell.value["ok"] for cell in result)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..api import build_system
from ..errors import CrashError
from .checker import CrashConsistencyChecker
from .plan import CrashSpec, FaultPlan, IOFaultSpec

#: Which shards a partitioned fault cell arms: one partition (the
#: "single failure domain" axis) or every partition at once.
PARTITION_FAULT_MODES = ("one", "all")

#: Crash-trigger kinds :func:`random_plans` draws from.  ``quiesce`` is
#: excluded: it needs ``cou_quiesce_latency`` and a COU algorithm, so it
#: gets targeted tests instead of matrix slots.
_TRIGGER_KINDS = ("time", "writes", "begin", "sweep", "end", "log_flush")


def random_plans(
    n: int,
    seed: int = 0,
    *,
    duration: float = 10.0,
    torn_writes: Optional[bool] = None,
    io_faults: bool = False,
) -> List[FaultPlan]:
    """Draw ``n`` structurally diverse fault plans from one seed.

    Args:
        n: how many plans.
        seed: root of the drawing stream; also seeds each plan's own RNG
            (offset by its index, so no two plans share fault draws).
        duration: the run length the plans will be used with; timed
            crashes are drawn inside ``(duration/4, duration)``.
        torn_writes: force torn writes on/off; ``None`` alternates.
        io_faults: give every plan a mild transient-I/O regime on top of
            its crash trigger (retries must not break consistency).
    """
    rng = np.random.default_rng(seed)
    plans: List[FaultPlan] = []
    for index in range(n):
        kind = _TRIGGER_KINDS[int(rng.integers(0, len(_TRIGGER_KINDS)))]
        if kind == "time":
            crash = CrashSpec(at_time=float(
                np.round(rng.uniform(duration / 4, duration), 4)))
        elif kind == "writes":
            crash = CrashSpec(after_writes=int(rng.integers(1, 60)))
        elif kind == "log_flush":
            crash = CrashSpec(at_log_flush=int(rng.integers(1, 40)))
        elif kind == "sweep":
            crash = CrashSpec(at_phase="sweep",
                              checkpoint_ordinal=int(rng.integers(1, 4)),
                              after_flushes=int(rng.integers(1, 8)))
        else:  # "begin" / "end"
            crash = CrashSpec(at_phase=kind,
                              checkpoint_ordinal=int(rng.integers(1, 4)))
        torn = (bool(rng.integers(0, 2)) if torn_writes is None
                else torn_writes)
        io = (IOFaultSpec(error_rate=float(np.round(rng.uniform(0.01, 0.1), 3)),
                          max_retries=8,
                          latency_spike_rate=float(
                              np.round(rng.uniform(0.0, 0.05), 3)))
              if io_faults else IOFaultSpec())
        plans.append(FaultPlan(seed=seed + index, crash=crash,
                               torn_writes=torn, io=io))
    return plans


def crash_matrix_points(
    algorithms: Sequence[str],
    plans: Iterable[FaultPlan],
) -> List[Dict[str, Any]]:
    """The (algorithm x plan) product as sweep-point kwargs dicts."""
    plans = list(plans)
    return [
        {"algorithm": algorithm, "plan": plan.to_dict()}
        for algorithm in algorithms
        for plan in plans
    ]


def phase_crash_plans(*, seed: int = 0,
                      checkpoint_ordinal: int = 2) -> List[FaultPlan]:
    """One plan per checkpoint phase: crash at begin, mid-sweep, and end.

    The partitioned matrix axis wants a *named* phase per cell (rather
    than :func:`random_plans`' drawn triggers) so each (phase x mode)
    combination is a stable CI cell.
    """
    return [
        FaultPlan(seed=seed, crash=CrashSpec(
            at_phase="begin", checkpoint_ordinal=checkpoint_ordinal)),
        FaultPlan(seed=seed + 1, crash=CrashSpec(
            at_phase="sweep", checkpoint_ordinal=checkpoint_ordinal,
            after_flushes=3)),
        FaultPlan(seed=seed + 2, crash=CrashSpec(
            at_phase="end", checkpoint_ordinal=checkpoint_ordinal)),
    ]


def partitioned_matrix_points(
    algorithms: Sequence[str],
    plans: Iterable[FaultPlan],
    *,
    modes: Sequence[str] = PARTITION_FAULT_MODES,
) -> List[Dict[str, Any]]:
    """The (algorithm x plan x fault-mode) product for partitioned cells."""
    plans = list(plans)
    for mode in modes:
        if mode not in PARTITION_FAULT_MODES:
            raise ValueError(
                f"fault mode must be one of {PARTITION_FAULT_MODES}, "
                f"got {mode!r}")
    return [
        {"algorithm": algorithm, "plan": plan.to_dict(), "fault_mode": mode}
        for algorithm in algorithms
        for plan in plans
        for mode in modes
    ]


def run_partitioned_fault_cell(
    *,
    algorithm: str,
    plan: Mapping[str, Any],
    partitions: int = 4,
    fault_mode: str = "one",
    recovery_workers: int = 2,
    scale: int = 4096,
    duration: float = 10.0,
    checkpoint_interval: float = 1.0,
    seed: int = 0,
    mismatch_limit: int = 10,
    **config_overrides: Any,
) -> Dict[str, Any]:
    """One partitioned crash-matrix cell (module-level, pool-safe).

    ``fault_mode="one"`` arms the plan in partition 0 only -- the other
    shards die innocent when the machine goes down; ``"all"`` arms it
    everywhere, so each shard races to its own trigger and the earliest
    defines the crash instant.  Recovery is the parallel REDO path; the
    report's headline ``ok`` still means the recovered state matches
    every shard's oracle exactly.
    """
    if fault_mode not in PARTITION_FAULT_MODES:
        raise ValueError(
            f"fault mode must be one of {PARTITION_FAULT_MODES}, "
            f"got {fault_mode!r}")
    if partitions < 2:
        raise ValueError(
            f"a partitioned fault cell needs partitions >= 2, "
            f"got {partitions!r} (single engine: run_fault_cell)")
    system = build_system(
        algorithm, scale=scale, seed=seed,
        fault_plan=FaultPlan.from_dict(plan), interval=checkpoint_interval,
        preload_backup=False,  # cold backups, as in the single-engine cells
        partitions=partitions, recovery_workers=recovery_workers,
        fault_partitions=[0] if fault_mode == "one" else None,
        **config_overrides)
    crashed_by_fault = False
    crash_trigger: Optional[str] = None
    try:
        system.run(duration)
    except CrashError as exc:
        crashed_by_fault = True
        crash_trigger = exc.trigger
    # Injected or not, the machine dies now and recovery must win.
    system.crash()
    result = system.recover()
    mismatches = [mm._asdict()
                  for mm in system.verify_recovery(limit=mismatch_limit)]
    return {
        "algorithm": algorithm,
        "plan": dict(plan),
        "partitions": partitions,
        "fault_mode": fault_mode,
        "recovery_workers": recovery_workers,
        "system_seed": seed,
        "duration": duration,
        "crashed_by_fault": crashed_by_fault,
        "crash_trigger": crash_trigger,
        "transactions_replayed": result.transactions_replayed,
        "updates_applied": result.updates_applied,
        "recovery_makespan": result.total_time,
        "recovery_sequential": result.sequential_time,
        "recovery_speedup": result.speedup,
        "checkpoints_completed": sum(
            len(shard.checkpointer.history) for shard in system.shards),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_fault_cell(
    *,
    algorithm: str,
    plan: Mapping[str, Any],
    scale: int = 4096,
    duration: float = 10.0,
    checkpoint_interval: float = 1.0,
    seed: int = 0,
    telemetry: bool = False,
    **config_overrides: Any,
) -> Dict[str, Any]:
    """One crash-matrix cell (module-level, hence process-pool safe).

    Returns the :meth:`~repro.faults.checker.FaultRunReport.to_dict`
    rendering -- a pure function of its arguments, so sweep caching and
    the byte-identical determinism tests both apply to it directly.
    """
    checker = CrashConsistencyChecker(
        scale=scale, duration=duration,
        checkpoint_interval=checkpoint_interval, telemetry=telemetry,
        **config_overrides)
    report = checker.run(algorithm, FaultPlan.from_dict(plan), seed=seed)
    return report.to_dict()
