"""Figure 4b: the processor-overhead / recovery-time trade-off.

Configuration (paper Section 4): 2CCOPY and COUCOPY trace trajectories
through (recovery time, overhead) space as the checkpoint duration varies
from its minimum upward; the experiment repeats with doubled backup
bandwidth (40 disks instead of 20).

Reproduced observations:

* increasing the duration drives overhead down at the cost of recovery
  time (every trajectory is monotone);
* the doubled-bandwidth curves extend further left (shorter minimum
  duration, hence lower achievable recovery time);
* the extra bandwidth helps 2CCOPY far more than COUCOPY, because a
  faster checkpoint means a smaller active fraction and hence fewer
  two-color aborts at any given interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.duration import minimum_duration
from ..model.evaluate import ModelOptions, evaluate
from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import fmt_instructions, fmt_seconds, text_table
from .common import geometric_sweep

ALGORITHMS = ("2CCOPY", "COUCOPY")
DISK_COUNTS = (20, 40)


@dataclass(frozen=True)
class TradeoffPoint:
    """One point along a Figure 4b trajectory."""

    algorithm: str
    n_bdisks: int
    interval: float
    overhead_per_txn: float
    recovery_time: float


def _tradeoff_point(
    algorithm: str,
    n_bdisks: int,
    interval: float,
    params: SystemParameters,
    options: Optional[ModelOptions] = None,
) -> TradeoffPoint:
    """Evaluate the model at one trajectory position."""
    result = evaluate(algorithm, params.replace(n_bdisks=n_bdisks),
                      interval=interval, options=options)
    return TradeoffPoint(
        algorithm=algorithm,
        n_bdisks=n_bdisks,
        interval=result.interval,
        overhead_per_txn=result.overhead_per_txn,
        recovery_time=result.recovery_time,
    )


def figure4b(
    params: SystemParameters = PAPER_DEFAULTS,
    *,
    algorithms: Sequence[str] = ALGORITHMS,
    disk_counts: Sequence[int] = DISK_COUNTS,
    points_per_curve: int = 10,
    max_interval: float = 600.0,
    options: Optional[ModelOptions] = None,
) -> Dict[Tuple[str, int], List[TradeoffPoint]]:
    """Trace each (algorithm, disk count) trajectory."""
    curves: Dict[Tuple[str, int], List[TradeoffPoint]] = {}
    for n_disks in disk_counts:
        p = params.replace(n_bdisks=n_disks)
        low = minimum_duration(p)
        intervals = geometric_sweep(low, max(max_interval, low * 1.01),
                                    points_per_curve)
        for algorithm in algorithms:
            curves[algorithm, n_disks] = [
                _tradeoff_point(algorithm, n_disks, interval, params, options)
                for interval in intervals]
    return curves


def render(params: SystemParameters = PAPER_DEFAULTS) -> str:
    curves = figure4b(params, points_per_curve=6)
    blocks = []
    for (algorithm, disks), curve in sorted(curves.items()):
        rows = [(fmt_seconds(pt.interval),
                 fmt_instructions(pt.overhead_per_txn),
                 fmt_seconds(pt.recovery_time)) for pt in curve]
        blocks.append(text_table(
            ["interval", "overhead/txn", "recovery"], rows,
            title=f"Figure 4b - {algorithm} with {disks} disks"))
    return "\n\n".join(blocks)

