"""Figure 4e: processor overhead with a stable log tail.

Configuration: stable RAM holds the in-memory log tail (Section 4), so
the write-ahead-log rule is satisfied by construction.  FASTFUZZY --
straightforward fuzzy flushing with no copies, no locks, no LSNs --
becomes safe, and every other algorithm merely sheds its LSN costs.
Checkpoints run as quickly as possible.

Reproduced observations:

* "clearly, FASTFUZZY is an appealing algorithm in this case.  The cost
  of maintaining the backup is only a few hundred instructions per
  transaction";
* "the costs of the other algorithms are nearly identical to those from
  Figure 4a, since the savings in log synchronization costs is not
  significant".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..model.evaluate import ModelOptions, evaluate_all
from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import fmt_instructions, text_table


@dataclass(frozen=True)
class Fig4ePoint:
    """One bar of Figure 4e."""

    algorithm: str
    overhead_per_txn: float


def figure4e(params: SystemParameters = PAPER_DEFAULTS,
             options: Optional[ModelOptions] = None) -> List[Fig4ePoint]:
    """Evaluate all six algorithms under a stable log tail."""
    stable = params.replace(stable_log_tail=True)
    results = evaluate_all(stable, interval=None, options=options)
    return [Fig4ePoint(algorithm=r.algorithm,
                       overhead_per_txn=r.overhead_per_txn)
            for r in results]


def render(params: SystemParameters = PAPER_DEFAULTS) -> str:
    points = figure4e(params)
    rows = [(p.algorithm, fmt_instructions(p.overhead_per_txn))
            for p in points]
    return text_table(
        ["algorithm", "overhead/txn"], rows,
        title="Figure 4e - overhead with a stable log tail (min duration)")

