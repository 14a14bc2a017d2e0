"""Ablations over the modelling choices DESIGN.md calls out.

The paper leaves several modelling details implicit; DESIGN.md documents
the choices made in this reproduction.  Each ablation here varies one of
those choices and reports how the headline numbers move, demonstrating
which conclusions are robust:

* **dirty window** -- ping-pong staleness uses a two-interval window;
  the single-interval variant (a non-ping-pong reading of the paper)
  barely moves the defaults because everything is dirty either way;
* **log span** -- average-case (1.5 intervals) vs worst-case (2.0)
  recovery log volume;
* **restart log bulk** -- whether aborted two-color attempts write their
  REDO records before the abort marker (the paper says they add log
  bulk; the ablation shows the recovery-time effect);
* **scope** -- full vs partial checkpoints at the default load;
* **seek time** -- the two-color abort cost is driven by checkpoint
  duration, hence by T_seek.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..checkpoint.base import CheckpointScope
from ..model.evaluate import ModelOptions, evaluate
from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import fmt_instructions, fmt_seconds, text_table


@dataclass(frozen=True)
class AblationRow:
    """One (setting, algorithm) sample."""

    ablation: str
    setting: str
    algorithm: str
    overhead_per_txn: float
    recovery_time: float


def dirty_window_ablation(
        params: SystemParameters = PAPER_DEFAULTS) -> List[AblationRow]:
    rows = []
    for window in (1.0, 2.0):
        options = ModelOptions(dirty_window_intervals=window)
        for algorithm in ("FUZZYCOPY", "COUCOPY"):
            result = evaluate(algorithm, params, options=options)
            rows.append(AblationRow(
                "dirty_window", f"{window:.0f} interval(s)", algorithm,
                result.overhead_per_txn, result.recovery_time))
    return rows


def log_span_ablation(
        params: SystemParameters = PAPER_DEFAULTS) -> List[AblationRow]:
    rows = []
    for span in (1.5, 2.0):
        options = ModelOptions(log_span_intervals=span)
        for algorithm in ("FUZZYCOPY", "2CCOPY"):
            result = evaluate(algorithm, params, options=options)
            rows.append(AblationRow(
                "log_span", f"{span} intervals", algorithm,
                result.overhead_per_txn, result.recovery_time))
    return rows


def restart_log_bulk_ablation(
        params: SystemParameters = PAPER_DEFAULTS) -> List[AblationRow]:
    rows = []
    for fraction in (0.0, 0.5, 1.0):
        p = params.replace(log_bulk_restart_fraction=fraction)
        result = evaluate("2CCOPY", p)
        rows.append(AblationRow(
            "restart_log_bulk", f"fraction={fraction}", "2CCOPY",
            result.overhead_per_txn, result.recovery_time))
    return rows


def scope_ablation(
        params: SystemParameters = PAPER_DEFAULTS) -> List[AblationRow]:
    rows = []
    for scope in (CheckpointScope.PARTIAL, CheckpointScope.FULL):
        for algorithm in ("FUZZYCOPY", "2CFLUSH", "COUCOPY"):
            result = evaluate(algorithm, params, scope=scope)
            rows.append(AblationRow(
                "scope", scope.value, algorithm,
                result.overhead_per_txn, result.recovery_time))
    return rows


def seek_time_ablation(
        params: SystemParameters = PAPER_DEFAULTS) -> List[AblationRow]:
    rows = []
    for t_seek in (0.01, 0.03, 0.05):
        p = params.replace(t_seek=t_seek)
        for algorithm in ("2CCOPY", "COUCOPY"):
            result = evaluate(algorithm, p)
            rows.append(AblationRow(
                "t_seek", f"{t_seek * 1e3:.0f} ms", algorithm,
                result.overhead_per_txn, result.recovery_time))
    return rows


def all_ablations(
        params: SystemParameters = PAPER_DEFAULTS) -> List[AblationRow]:
    rows: List[AblationRow] = []
    rows.extend(dirty_window_ablation(params))
    rows.extend(log_span_ablation(params))
    rows.extend(restart_log_bulk_ablation(params))
    rows.extend(scope_ablation(params))
    rows.extend(seek_time_ablation(params))
    return rows


def render(params: SystemParameters = PAPER_DEFAULTS) -> str:
    rows = all_ablations(params)
    table_rows = [
        (r.ablation, r.setting, r.algorithm,
         fmt_instructions(r.overhead_per_txn), fmt_seconds(r.recovery_time))
        for r in rows
    ]
    return text_table(
        ["ablation", "setting", "algorithm", "overhead/txn", "recovery"],
        table_rows, title="Modelling-choice ablations (paper defaults)")

