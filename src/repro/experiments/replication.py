"""Replicated testbed runs with confidence intervals.

One simulation run is one sample; conclusions about measured overhead or
latency should come with uncertainty.  :func:`replicate` runs the same
configuration across several seeds and summarises each metric with a
Student-t confidence interval, and :func:`compare` decides whether two
algorithms' measured overheads are statistically separated (their CIs do
not overlap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..api import simulate
from ..params import SystemParameters
from ..sweep import SweepRunner, SweepSpec
from ..units import text_table
from .stats import SampleSummary, summarize
from .validation import validation_params


@dataclass(frozen=True)
class ReplicatedResult:
    """CI summaries of one algorithm's measured metrics."""

    algorithm: str
    overhead: SampleSummary
    abort_probability: SampleSummary
    mean_response_time: SampleSummary
    committed_total: int


def _replicate_point(
    algorithm: str,
    params: SystemParameters,
    seed: int,
    duration: float,
    warmup: float,
) -> Tuple[float, float, float, int]:
    """One seeded run: (overhead, p(abort), mean response, committed)."""
    metrics = simulate(algorithm, params=params, seed=seed,
                       duration=duration, warmup=warmup).metrics
    return (metrics.overhead_per_transaction, metrics.abort_probability,
            metrics.mean_response_time, metrics.transactions_committed)


def replicate(
    algorithm: str,
    *,
    params: Optional[SystemParameters] = None,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    duration: float = 8.0,
    warmup: float = 4.0,
    confidence: float = 0.95,
    workers: int = 1,
) -> ReplicatedResult:
    """Run ``algorithm`` across ``seeds`` and summarise the metrics."""
    return compare([algorithm], params=params, seeds=seeds,
                   duration=duration, warmup=warmup, confidence=confidence,
                   workers=workers)[algorithm.upper()]


def compare(
    algorithms: Sequence[str],
    *,
    params: Optional[SystemParameters] = None,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    duration: float = 8.0,
    warmup: float = 4.0,
    confidence: float = 0.95,
    workers: int = 1,
) -> Dict[str, ReplicatedResult]:
    """Replicate several algorithms under identical configurations.

    The whole (algorithm x seed) grid is one sweep, so with
    ``workers > 1`` every seeded run of every algorithm executes
    concurrently.
    """
    if params is None:
        params = validation_params(200.0)
    grid = [{"algorithm": name, "seed": seed}
            for name in algorithms for seed in seeds]
    result = SweepRunner(workers).run(SweepSpec.from_points(
        _replicate_point, grid,
        fixed={"params": params, "duration": duration, "warmup": warmup}))
    result.raise_failures()
    out: Dict[str, ReplicatedResult] = {}
    for name in algorithms:
        samples = [cell.value for cell in result.select(algorithm=name)]
        out[name.upper()] = ReplicatedResult(
            algorithm=name.upper(),
            overhead=summarize([s[0] for s in samples], confidence),
            abort_probability=summarize([s[1] for s in samples], confidence),
            mean_response_time=summarize([s[2] for s in samples], confidence),
            committed_total=sum(s[3] for s in samples),
        )
    return out


def separated(a: ReplicatedResult, b: ReplicatedResult) -> bool:
    """Whether two algorithms' overhead CIs are disjoint."""
    return not a.overhead.overlaps(b.overhead)


def render(results: Optional[Dict[str, ReplicatedResult]] = None,
           *,
           workers: int = 1) -> str:
    if results is None:
        results = compare(["FUZZYCOPY", "COUCOPY", "2CCOPY"],
                          workers=workers)
    rows = [
        (r.algorithm, str(r.overhead), f"{r.abort_probability.mean:.3f}",
         f"{r.mean_response_time.mean * 1e3:.2f}ms", r.committed_total)
        for r in results.values()
    ]
    return text_table(
        ["algorithm", "overhead/txn (CI)", "p(abort)", "mean resp",
         "txns"],
        rows, title="Replicated testbed measurements (5 seeds)")

