"""Figure 4a: processor overhead and recovery time per algorithm.

Configuration (paper Section 4): default parameters of Tables 2a-2d,
checkpoints taken "as quickly as possible" (no delay between them).

The paper's observations, all reproduced here:

* the two-color algorithms are by far the most expensive -- "most of the
  cost comes from rerunning transactions that are aborted for violating
  the two-color restriction";
* "generating a transaction consistent backup with a COU algorithm is no
  more costly than generating a fuzzy backup";
* "recovery times seem to vary little among the algorithms", with the
  two-color ones slightly longer because of the aborted attempts' log
  bulk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..model.evaluate import ModelOptions, evaluate_all
from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import fmt_instructions, fmt_seconds, text_table


@dataclass(frozen=True)
class Fig4aPoint:
    """One bar pair of Figure 4a."""

    algorithm: str
    overhead_per_txn: float
    recovery_time: float
    reruns_per_txn: float


def figure4a(params: SystemParameters = PAPER_DEFAULTS,
             options: Optional[ModelOptions] = None) -> List[Fig4aPoint]:
    """Evaluate every applicable algorithm at the minimum duration."""
    results = evaluate_all(params, interval=None, options=options)
    return [
        Fig4aPoint(
            algorithm=r.algorithm,
            overhead_per_txn=r.overhead_per_txn,
            recovery_time=r.recovery_time,
            reruns_per_txn=r.reruns_per_txn,
        )
        for r in results
    ]


def render(params: SystemParameters = PAPER_DEFAULTS) -> str:
    points = figure4a(params)
    rows = [
        (p.algorithm, fmt_instructions(p.overhead_per_txn),
         fmt_seconds(p.recovery_time), f"{p.reruns_per_txn:.2f}")
        for p in points
    ]
    return text_table(
        ["algorithm", "overhead/txn", "recovery", "reruns/txn"], rows,
        title="Figure 4a - overhead and recovery time (min duration)")

