"""Recovery time vs recovery workers, per algorithm (Fig-4a revisited).

The paper's Figure 4a reports one recovery time per algorithm because
its engine is single-CPU: recovery is a serial backup read plus a
serial log replay.  On a partitioned database recovery is N independent
per-partition REDO jobs, and the interesting axis becomes the number of
simulated concurrent recovery workers -- the multicore follow-up this
reproduction's ROADMAP asks for (cf. "Fast Failure Recovery for
Main-Memory DBMSs on Multicores").

For each algorithm this driver runs ONE partitioned simulation to a
crash, recovers every shard, and then replays the LPT worker schedule
(:func:`repro.recovery.schedule_recovery`) for every worker count --
the per-partition job costs are fixed by the crash, so the whole sweep
costs one simulation per algorithm.  LPT makespans are non-increasing
in the worker count, which is the figure's expected shape: recovery
time falls as workers are added until the longest single partition
bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..api import simulate
from ..units import fmt_seconds, text_table

#: Algorithms the sweep covers: one fuzzy baseline, one transaction-
#: consistent paper algorithm, and both modern snapshot plugins.
DEFAULT_ALGORITHMS = ("FUZZYCOPY", "COUCOPY", "ZIGZAG", "PINGPONG")
DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_PARTITIONS = 8


@dataclass(frozen=True)
class RecoveryScalingPoint:
    """One curve of the recovery-scaling figure."""

    algorithm: str
    partitions: int
    #: worker count -> modelled recovery time (the LPT makespan)
    recovery_times: Dict[int, float]
    #: per-partition replay rates (updates/second) from the one crash
    replay_rates: Dict[int, float]

    def speedup(self, workers: int) -> float:
        """Sequential recovery time over the ``workers``-way makespan."""
        base = self.recovery_times.get(1)
        others = self.recovery_times.get(workers)
        if not base or not others:
            return 1.0
        return base / others


def recovery_scaling(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    *,
    partitions: int = DEFAULT_PARTITIONS,
    workers: Sequence[int] = DEFAULT_WORKERS,
    scale: int = 1024,
    duration: float = 4.0,
    seed: int = 11,
) -> List[RecoveryScalingPoint]:
    """One crashed partitioned run per algorithm, every worker count.

    The crash is injected at the end of ``duration`` (the simple
    ``crash=True`` path); the per-partition recovery jobs it leaves
    behind are re-scheduled for each entry of ``workers`` without
    re-running the simulation.
    """
    from ..recovery.parallel import schedule_recovery

    points: List[RecoveryScalingPoint] = []
    for algorithm in algorithms:
        outcome = simulate(
            algorithm, scale=scale, duration=duration, seed=seed,
            crash=True, partitions=partitions)
        if not outcome.clean:
            raise AssertionError(
                f"{algorithm}: partitioned recovery lost updates "
                f"({outcome.mismatches!r})")
        jobs = outcome.recovery.jobs
        shard_results = [job.result for job in jobs]
        times = {
            w: schedule_recovery(shard_results, w).total_time
            for w in workers
        }
        points.append(RecoveryScalingPoint(
            algorithm=algorithm,
            partitions=partitions,
            recovery_times=times,
            replay_rates=outcome.recovery.per_partition_replay_rates(),
        ))
    return points


def render(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    *,
    partitions: int = DEFAULT_PARTITIONS,
    workers: Sequence[int] = DEFAULT_WORKERS,
    scale: int = 1024,
    duration: float = 4.0,
    seed: int = 11,
) -> str:
    """The text-table rendering (the ``repro figures`` output)."""
    points = recovery_scaling(
        algorithms, partitions=partitions, workers=workers,
        scale=scale, duration=duration, seed=seed)
    headers = (["algorithm"]
               + [f"{w} worker{'s' if w != 1 else ''}" for w in workers]
               + [f"speedup@{max(workers)}"])
    rows: List[Tuple[str, ...]] = []
    for point in points:
        rows.append(tuple(
            [point.algorithm]
            + [fmt_seconds(point.recovery_times[w]) for w in workers]
            + [f"{point.speedup(max(workers)):.2f}x"]))
    return text_table(
        headers, rows,
        title=(f"Recovery scaling - {partitions} partitions, "
               "recovery time vs recovery workers (LPT schedule)"))

