"""Extension experiment: throughput capacity per checkpointing algorithm.

The paper measures checkpointing in instructions because "processors are
critical resources shared by both the checkpointer and transactions".
This experiment closes that loop: on a machine of a given MIPS rating,
how many transactions per second does each algorithm actually leave room
for?  The answer turns Figure 4a's instruction counts into capacity --
the two-color algorithms don't just cost 15x more instructions, they
*triple* the hardware needed for the same throughput (every transaction
effectively runs three times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..model.evaluate import ModelOptions
from ..model.utilization import cpu_utilization, throughput_capacity
from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import text_table

DEFAULT_MIPS = 50.0
ALGORITHMS = ("FASTFUZZY", "FUZZYCOPY", "ACFLUSH", "COUFLUSH", "COUCOPY",
              "2CFLUSH", "2CCOPY")


@dataclass(frozen=True)
class CapacityPoint:
    """One algorithm's capacity on a given machine."""

    algorithm: str
    mips: float
    max_throughput: float
    checkpoint_share_at_capacity: float


def _capacity_point(
    algorithm: str,
    mips: float,
    params: SystemParameters,
    options: Optional[ModelOptions] = None,
) -> CapacityPoint:
    """Saturate one algorithm on one machine."""
    p = params
    if algorithm == "FASTFUZZY":
        p = p.replace(stable_log_tail=True)
    capacity = throughput_capacity(algorithm, p, mips, options=options)
    at_capacity = cpu_utilization(
        algorithm, p.replace(lam=max(capacity, 1e-9)), mips, options=options)
    return CapacityPoint(
        algorithm=algorithm,
        mips=mips,
        max_throughput=capacity,
        checkpoint_share_at_capacity=at_capacity.checkpoint_share,
    )


def capacity_table(
    params: SystemParameters = PAPER_DEFAULTS,
    *,
    mips: float = DEFAULT_MIPS,
    algorithms: Sequence[str] = ALGORITHMS,
    options: Optional[ModelOptions] = None,
) -> List[CapacityPoint]:
    """Maximum sustainable throughput for each algorithm."""
    return [_capacity_point(name, mips, params, options)
            for name in algorithms]


def render(params: SystemParameters = PAPER_DEFAULTS,
           mips: float = DEFAULT_MIPS) -> str:
    points = capacity_table(params, mips=mips)
    ideal = mips * 1e6 / params.c_trans
    rows = [
        (p.algorithm, f"{p.max_throughput:.0f}",
         f"{p.max_throughput / ideal:.0%}",
         f"{p.checkpoint_share_at_capacity:.1%}")
        for p in sorted(points, key=lambda p: -p.max_throughput)
    ]
    return text_table(
        ["algorithm", "max txns/s", "of ideal", "CPU on checkpointing"],
        rows,
        title=(f"Extension - throughput capacity on a {mips:.0f}-MIPS "
               f"machine (ideal, no checkpointing: {ideal:.0f} txns/s)"))

