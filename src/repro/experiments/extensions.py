"""Extension experiment: the consistency spectrum, measured.

The paper evaluates fuzzy and transaction-consistent checkpointing and
skips the middle ground: "action-consistent (AC) checkpoints may actually
be more practical in a real system" and "many, but not all, of the
comparisons we will make between TC and fuzzy checkpoints could be made
with qualitatively similar results between AC and fuzzy checkpoints".
This driver fills in the spectrum with the reproduction's extensions:

* model comparison of FUZZYCOPY vs ACFLUSH/ACCOPY vs 2CFLUSH/2CCOPY vs
  COUFLUSH/COUCOPY -- AC sits within a lock pair of fuzzy, far below 2C;
* testbed comparison including NAIVELOCK, whose *latency* cost (lock
  waits, response time) the CPU metric cannot see -- measuring the
  "unacceptably frequent and long lock delays" the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..api import simulate
from ..model.evaluate import evaluate
from ..params import PAPER_DEFAULTS, SystemParameters
from ..sweep import SweepRunner, SweepSpec
from ..units import fmt_instructions, text_table
from .validation import validation_params

CONSISTENCY_SPECTRUM = (
    ("FUZZYCOPY", "fuzzy"),
    ("ACFLUSH", "action-consistent"),
    ("ACCOPY", "action-consistent"),
    ("2CFLUSH", "transaction-consistent"),
    ("2CCOPY", "transaction-consistent"),
    ("COUFLUSH", "transaction-consistent"),
    ("COUCOPY", "transaction-consistent"),
)


@dataclass(frozen=True)
class SpectrumPoint:
    algorithm: str
    consistency: str
    overhead_per_txn: float
    recovery_time: float


def _spectrum_point(algorithm: str, consistency: str,
                    params: SystemParameters) -> SpectrumPoint:
    """The model at one consistency level."""
    result = evaluate(algorithm, params)
    return SpectrumPoint(
        algorithm=algorithm,
        consistency=consistency,
        overhead_per_txn=result.overhead_per_txn,
        recovery_time=result.recovery_time,
    )


def consistency_spectrum(
    params: SystemParameters = PAPER_DEFAULTS,
) -> List[SpectrumPoint]:
    """Model overhead across the fuzzy -> AC -> TC spectrum."""
    return [_spectrum_point(name, level, params)
            for name, level in CONSISTENCY_SPECTRUM]


@dataclass(frozen=True)
class LatencyRow:
    """Testbed latency profile of one algorithm."""

    algorithm: str
    lock_waits: int
    mean_response_ms: float
    aborts: int
    committed: int


def _latency_point(algorithm: str, lam: float, duration: float,
                   seed: int) -> LatencyRow:
    """One sweep point: the testbed latency profile of one algorithm."""
    metrics = simulate(algorithm, params=validation_params(lam), seed=seed,
                       duration=duration).metrics
    return LatencyRow(
        algorithm=algorithm,
        lock_waits=metrics.lock_waits,
        mean_response_ms=metrics.mean_response_time * 1e3,
        aborts=sum(metrics.aborts.values()),
        committed=metrics.transactions_committed,
    )


def latency_profile(
    *,
    algorithms: Optional[List[str]] = None,
    lam: float = 200.0,
    duration: float = 8.0,
    seed: int = 5,
    replicates: int = 1,
    workers: int = 1,
) -> List[LatencyRow]:
    """Measure the latency cost the CPU metric cannot express.

    With ``replicates > 1`` every algorithm runs under that many derived
    seeds; response times average, event counts accumulate.
    """
    if algorithms is None:
        algorithms = ["FUZZYCOPY", "ACCOPY", "COUCOPY", "2CCOPY",
                      "NAIVELOCK"]
    points = [{"algorithm": name} for name in algorithms]
    fixed = {"lam": lam, "duration": duration}
    if replicates == 1:
        spec = SweepSpec.from_points(_latency_point, points,
                                     fixed={**fixed, "seed": seed})
    else:
        spec = SweepSpec.from_points(_latency_point, points, fixed=fixed,
                                     replicates=replicates, base_seed=seed,
                                     seed_arg="seed")
    result = SweepRunner(workers).run(spec)
    result.raise_failures()
    if replicates == 1:
        return result.values()
    rows = []
    for _, cells in result.groups():
        samples = [cell.value for cell in cells]
        rows.append(LatencyRow(
            algorithm=samples[0].algorithm,
            lock_waits=sum(s.lock_waits for s in samples),
            mean_response_ms=(sum(s.mean_response_ms for s in samples)
                              / len(samples)),
            aborts=sum(s.aborts for s in samples),
            committed=sum(s.committed for s in samples),
        ))
    return rows


def render(params: SystemParameters = PAPER_DEFAULTS,
           *,
           replicates: int = 1,
           workers: int = 1) -> str:
    spectrum_rows = [
        (p.algorithm, p.consistency, fmt_instructions(p.overhead_per_txn),
         f"{p.recovery_time:.1f}s")
        for p in consistency_spectrum(params)
    ]
    spectrum = text_table(
        ["algorithm", "consistency", "overhead/txn", "recovery"],
        spectrum_rows,
        title="Extension - the consistency spectrum (model, paper defaults)")
    latency_rows = [
        (r.algorithm, r.lock_waits, f"{r.mean_response_ms:.2f}",
         r.aborts, r.committed)
        for r in latency_profile(replicates=replicates, workers=workers)
    ]
    latency = text_table(
        ["algorithm", "lock waits", "mean resp (ms)", "aborts", "committed"],
        latency_rows,
        title="Extension - latency profile (testbed, scaled config)")
    return spectrum + "\n\n" + latency

