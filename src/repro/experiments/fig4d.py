"""Figure 4d: the effect of segment size.

Configuration: segment size swept (the paper plots three algorithms --
2CCOPY, 2CFLUSH, COUCOPY); for each size the model runs twice:

* **dotted curves** -- checkpoint interval held at 300 s;
* **solid curves** -- checkpoints as fast as possible (minimum duration).

Reproduced observations:

* at the fixed interval, larger segments raise effective bandwidth, so
  the active fraction falls and the two-color algorithms lose abort cost
  (their dotted curves fall); COUCOPY's dotted curve moves only a little;
* at minimum duration, the checkpoint completes faster with larger
  segments, so its cost is shared by fewer transactions: algorithms with
  heavy copy costs (2CCOPY, COUCOPY, FUZZYCOPY) get *more* expensive,
  while 2CFLUSH -- which never copies -- gets cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.evaluate import ModelOptions, evaluate
from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import fmt_instructions, text_table

ALGORITHMS = ("2CCOPY", "2CFLUSH", "COUCOPY")
DEFAULT_SEGMENT_SIZES = (1024, 2048, 4096, 8192, 16384, 32768, 65536)
FIXED_INTERVAL = 300.0


@dataclass(frozen=True)
class SegmentSizePoint:
    """One sample of Figure 4d."""

    algorithm: str
    s_seg: int
    fixed_interval: bool     # True = dotted curve (300 s), False = solid
    overhead_per_txn: float
    active_fraction: float


def figure4d(
    params: SystemParameters = PAPER_DEFAULTS,
    *,
    segment_sizes: Sequence[int] = DEFAULT_SEGMENT_SIZES,
    algorithms: Sequence[str] = ALGORITHMS,
    fixed_interval: float = FIXED_INTERVAL,
    options: Optional[ModelOptions] = None,
) -> Dict[Tuple[str, bool], List[SegmentSizePoint]]:
    """Sweep segment size under both interval policies."""
    curves: Dict[Tuple[str, bool], List[SegmentSizePoint]] = {}
    for s_seg in segment_sizes:
        p = params.replace(s_seg=s_seg)
        for algorithm in algorithms:
            for fixed in (True, False):
                interval = fixed_interval if fixed else None
                result = evaluate(algorithm, p, interval=interval,
                                  options=options)
                curves.setdefault((algorithm, fixed), []).append(
                    SegmentSizePoint(
                        algorithm=algorithm,
                        s_seg=s_seg,
                        fixed_interval=fixed,
                        overhead_per_txn=result.overhead_per_txn,
                        active_fraction=result.active_fraction,
                    ))
    return curves


def render(params: SystemParameters = PAPER_DEFAULTS) -> str:
    curves = figure4d(params)
    sizes = [pt.s_seg for pt in curves[(ALGORITHMS[0], True)]]
    blocks = []
    for fixed, label in ((True, f"fixed {FIXED_INTERVAL:.0f}s interval "
                                "(dotted)"),
                         (False, "minimum duration (solid)")):
        rows = []
        for s_seg in sizes:
            row = [str(s_seg)]
            for name in ALGORITHMS:
                point = next(p for p in curves[(name, fixed)]
                             if p.s_seg == s_seg)
                row.append(fmt_instructions(point.overhead_per_txn))
            rows.append(row)
        blocks.append(text_table(
            ["s_seg (words)"] + list(ALGORITHMS), rows,
            title=f"Figure 4d - overhead vs segment size, {label}"))
    return "\n\n".join(blocks)

