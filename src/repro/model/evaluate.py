"""Public entry point of the analytic model.

:func:`evaluate` resolves the checkpoint-cycle timing, the restart
behaviour, the overhead breakdown, and the recovery time for one
(algorithm, parameters, policy) triple and returns them as a single
:class:`ModelResult`.  The experiment modules
(:mod:`repro.experiments`) call it in sweeps to regenerate the paper's
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..checkpoint.base import CheckpointScope
from ..params import SystemParameters
from .duration import DurationModel, resolve_durations
from .overhead import (
    KNOWN_ALGORITHMS,
    PAPER_ALGORITHMS,
    OverheadModel,
    compute_overhead,
)
from .recovery_time import RecoveryTimeModel, compute_recovery_time


@dataclass(frozen=True)
class ModelOptions:
    """Model knobs the paper leaves implicit (see DESIGN.md).

    Attributes:
        dirty_window_intervals: how many checkpoint intervals of updates
            make a segment stale for the image being written.  Ping-pong
            alternation implies 2; ``repro ablations`` tries 1.
        log_span_intervals: how many intervals of log the average crash
            replays (1.5 = average, 2.0 = worst case).
        restart_model: two-color rerun estimator -- ``"geometric"`` (the
            paper's independent-retry assumption) or ``"heterogeneous"``
            (per-transaction span heterogeneity; matches the testbed).
    """

    dirty_window_intervals: float = 2.0
    log_span_intervals: float = 1.5
    restart_model: str = "geometric"


@dataclass(frozen=True)
class ModelResult:
    """Everything the model says about one configuration."""

    algorithm: str
    params: SystemParameters
    scope: CheckpointScope
    requested_interval: Optional[float]
    durations: DurationModel
    overhead: OverheadModel
    recovery: RecoveryTimeModel
    options: ModelOptions = field(default_factory=ModelOptions)

    # -- headline numbers -----------------------------------------------------
    @property
    def overhead_per_txn(self) -> float:
        """Instructions of checkpoint overhead per transaction."""
        return self.overhead.overhead_per_txn

    @property
    def recovery_time(self) -> float:
        """Seconds to restore the primary database after a crash."""
        return self.recovery.total

    @property
    def interval(self) -> float:
        """Effective (steady-state) checkpoint interval, seconds."""
        return self.durations.interval

    @property
    def active_fraction(self) -> float:
        return self.durations.active_fraction

    @property
    def abort_probability(self) -> float:
        return self.overhead.abort_probability

    @property
    def reruns_per_txn(self) -> float:
        return self.overhead.reruns_per_txn

    def summary(self) -> Dict[str, float]:
        """A flat dict for tabular reports."""
        return {
            "overhead_per_txn": self.overhead_per_txn,
            "sync_per_txn": self.overhead.sync_total_per_txn,
            "async_per_txn": self.overhead.async_per_txn,
            "recovery_time": self.recovery_time,
            "interval": self.interval,
            "active_fraction": self.active_fraction,
            "abort_probability": self.abort_probability,
            "reruns_per_txn": self.reruns_per_txn,
            "segments_flushed": self.durations.segments_flushed,
            "cou_copies": self.overhead.cou_copies_per_checkpoint,
        }


def evaluate(
    algorithm: str,
    params: SystemParameters,
    *,
    interval: Optional[float] = None,
    scope: CheckpointScope = CheckpointScope.PARTIAL,
    options: Optional[ModelOptions] = None,
) -> ModelResult:
    """Evaluate one algorithm under one configuration.

    Args:
        algorithm: one of ``FUZZYCOPY``, ``FASTFUZZY``, ``2CFLUSH``,
            ``2CCOPY``, ``COUFLUSH``, ``COUCOPY`` (case-insensitive).
        params: the system/load parameters (Tables 2a-2d).
        interval: checkpoint interval in seconds; ``None`` = the
            minimum-duration ("as quickly as possible") policy.
        scope: full or partial checkpoints.
        options: model knobs, see :class:`ModelOptions`.
    """
    options = options if options is not None else ModelOptions()
    durations = resolve_durations(
        params, interval, scope,
        dirty_window_intervals=options.dirty_window_intervals)
    overhead = compute_overhead(algorithm, params, durations, scope,
                                restart_model=options.restart_model)
    recovery = compute_recovery_time(
        params, durations, overhead.reruns_per_txn,
        log_span_intervals=options.log_span_intervals)
    return ModelResult(
        algorithm=overhead.algorithm,
        params=params,
        scope=scope,
        requested_interval=interval,
        durations=durations,
        overhead=overhead,
        recovery=recovery,
        options=options,
    )


def evaluate_all(
    params: SystemParameters,
    *,
    algorithms: Optional[Iterable[str]] = None,
    interval: Optional[float] = None,
    scope: CheckpointScope = CheckpointScope.PARTIAL,
    options: Optional[ModelOptions] = None,
    include_extensions: bool = False,
) -> List[ModelResult]:
    """Evaluate several algorithms under the same configuration.

    Defaults to the paper's algorithms the configuration supports
    (FASTFUZZY is skipped automatically unless the log tail is stable);
    ``include_extensions`` adds the action-consistent pair.
    """
    if algorithms is None:
        base = KNOWN_ALGORITHMS if include_extensions else PAPER_ALGORITHMS
        algorithms = [
            name for name in base
            if name != "FASTFUZZY" or params.stable_log_tail
        ]
    return [
        evaluate(name, params, interval=interval, scope=scope, options=options)
        for name in algorithms
    ]
