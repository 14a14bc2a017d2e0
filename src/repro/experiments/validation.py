"""Model-vs-testbed cross-validation.

The paper closes with: "We are currently implementing a testbed with
which we will be able to experimentally evaluate the algorithms presented
here ... as well as to verify the processor overhead and recovery time
models."  This module is that verification: it runs the discrete-event
testbed on a scaled-down configuration and compares the measured
checkpoint overhead per transaction against the analytic model evaluated
on the *same* parameters.

Expected agreement:

* the non-aborting algorithms (fuzzy and copy-on-update families) track
  the model closely -- their costs are deterministic sums the simulator
  charges through the identical price list;
* the two-color algorithms agree on the *abort* mechanism but diverge on
  rerun counts: the model assumes each retry redraws an independent
  boundary position, while the testbed reruns the same transaction whose
  segment span stays fixed -- retries are positively correlated, so
  measured rerun counts exceed the geometric estimate.  The comparison
  therefore checks the measured per-attempt abort probability against
  the model's, not the rerun count.  (This is a genuine finding of the
  testbed the paper only promises.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import simulate
from ..model.evaluate import ModelResult, evaluate
from ..params import SystemParameters
from ..sweep import SweepRunner, SweepSpec, resolve_runner
from ..units import fmt_instructions, text_table

#: Scaled configuration: 512 segments keeps the per-segment update rate
#: in the paper's regime while a run stays below a second of CPU time.
VALIDATION_SCALE = 64


def validation_params(lam: float = 200.0, *, stable_log_tail: bool = False,
                      n_bdisks: int = 8) -> SystemParameters:
    """The standard scaled-down configuration for validation runs."""
    return SystemParameters.scaled_down(
        VALIDATION_SCALE, lam=lam, n_bdisks=n_bdisks,
        stable_log_tail=stable_log_tail)


@dataclass(frozen=True)
class ValidationRow:
    """One algorithm's model-vs-measured comparison."""

    algorithm: str
    model_overhead: float
    measured_overhead: float
    model_abort_probability: float
    measured_abort_probability: float
    transactions: int
    checkpoints: int

    @property
    def overhead_ratio(self) -> float:
        """measured / model (1.0 = perfect agreement)."""
        if self.model_overhead == 0:
            return float("inf")
        return self.measured_overhead / self.model_overhead


def run_validation(
    algorithm: str,
    *,
    lam: float = 200.0,
    duration: float = 12.0,
    warmup: float = 8.0,
    seed: int = 42,
    stable_log_tail: bool = False,
) -> ValidationRow:
    """Simulate one algorithm and compare against the model.

    The first ``warmup`` seconds are discarded: early checkpoints see a
    shorter dirtying window than the steady state the model describes,
    and the per-transaction amortization is badly skewed while checkpoint
    intervals are still converging to the fixed point.
    """
    params = validation_params(lam, stable_log_tail=stable_log_tail)
    metrics = simulate(algorithm, params=params, seed=seed,
                       duration=duration, warmup=warmup).metrics
    model: ModelResult = evaluate(algorithm, params, interval=None)
    return ValidationRow(
        algorithm=algorithm,
        model_overhead=model.overhead_per_txn,
        measured_overhead=metrics.overhead_per_transaction,
        model_abort_probability=model.abort_probability,
        measured_abort_probability=metrics.abort_probability,
        transactions=metrics.transactions_committed,
        checkpoints=metrics.checkpoints_completed,
    )


def run_validation_suite(
    *,
    algorithms: Optional[Sequence[str]] = None,
    lam: float = 200.0,
    duration: float = 12.0,
    seed: int = 42,
    warmup: float = 8.0,
    replicates: int = 1,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
) -> List[ValidationRow]:
    """Validate the default set of algorithms.

    Executes the (algorithm x stable-tail) grid through a
    :class:`~repro.sweep.SweepRunner` -- pass ``workers`` (or a
    configured ``runner``) to fan the simulations out over processes;
    the rows are bit-identical to a serial run either way.  With
    ``replicates > 1`` every algorithm runs under that many
    deterministically derived seeds and the rows average them.
    """
    if algorithms is None:
        algorithms = ("FUZZYCOPY", "2CFLUSH", "2CCOPY", "COUFLUSH",
                      "COUCOPY")
    points = [{"algorithm": name, "stable_log_tail": False}
              for name in algorithms]
    points.append({"algorithm": "FASTFUZZY", "stable_log_tail": True})
    fixed = {"lam": lam, "duration": duration, "warmup": warmup}
    if replicates == 1:
        spec = SweepSpec.from_points(
            run_validation, points, fixed={**fixed, "seed": seed})
    else:
        spec = SweepSpec.from_points(
            run_validation, points, fixed=fixed, replicates=replicates,
            base_seed=seed, seed_arg="seed")
    result = resolve_runner(runner, workers).run(spec)
    return [_combine_rows(kwargs, cells)
            for kwargs, cells in result.groups()]


def _combine_rows(kwargs: dict, cells: Sequence) -> ValidationRow:
    """Collapse one algorithm's replicate cells into a single row.

    Float metrics average across replicates; transaction and checkpoint
    counts accumulate.  A point whose every replicate failed yields a
    NaN row, so a crashed worker surfaces in the table instead of
    silently dropping the algorithm.
    """
    rows = [cell.value for cell in cells if cell.ok]
    if not rows:
        nan = float("nan")
        return ValidationRow(
            algorithm=str(kwargs.get("algorithm", "?")),
            model_overhead=nan, measured_overhead=nan,
            model_abort_probability=nan, measured_abort_probability=nan,
            transactions=0, checkpoints=0)

    def mean(values: Sequence[float]) -> float:
        return math.fsum(values) / len(values)

    return ValidationRow(
        algorithm=rows[0].algorithm,
        model_overhead=mean([r.model_overhead for r in rows]),
        measured_overhead=mean([r.measured_overhead for r in rows]),
        model_abort_probability=mean(
            [r.model_abort_probability for r in rows]),
        measured_abort_probability=mean(
            [r.measured_abort_probability for r in rows]),
        transactions=sum(r.transactions for r in rows),
        checkpoints=sum(r.checkpoints for r in rows),
    )


def render(rows: Optional[List[ValidationRow]] = None,
           *,
           replicates: int = 1,
           runner: Optional[SweepRunner] = None,
           workers: Optional[int] = None) -> str:
    if rows is None:
        rows = run_validation_suite(replicates=replicates, runner=runner,
                                    workers=workers)
    table_rows = [
        (r.algorithm, fmt_instructions(r.model_overhead),
         fmt_instructions(r.measured_overhead), f"{r.overhead_ratio:.2f}",
         f"{r.model_abort_probability:.3f}",
         f"{r.measured_abort_probability:.3f}", r.transactions)
        for r in rows
    ]
    return text_table(
        ["algorithm", "model ovh", "sim ovh", "ratio", "model p(abort)",
         "sim p(abort)", "txns"],
        table_rows,
        title="Model vs testbed (scaled configuration, min duration)")

