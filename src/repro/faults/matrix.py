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

from .checker import CrashConsistencyChecker
from .plan import CrashSpec, FaultPlan, IOFaultSpec

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

    A *named* phase per cell (rather than :func:`random_plans`' drawn
    triggers) makes each (algorithm x phase) combination a stable cell.
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
