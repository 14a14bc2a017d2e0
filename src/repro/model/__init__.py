"""The analytic performance model (paper Section 4, re-derived).

The paper evaluates its checkpointing algorithms with an analytic model
whose full derivation lives in an unavailable companion report
([Sale87a]).  This package re-derives the model from the paper's own
description; each module documents its formulas:

* :mod:`repro.model.dirtying`   -- segment dirtying and copy-on-update
  copy counts under uniform record updates;
* :mod:`repro.model.duration`   -- minimum checkpoint duration (a fixed
  point between disk bandwidth and the dirtying rate) and active
  durations under fixed intervals;
* :mod:`repro.model.restarts`   -- the two-color abort probability and
  expected rerun counts;
* :mod:`repro.model.overhead`   -- per-algorithm synchronous and
  asynchronous processor overhead, combined per transaction exactly as
  Section 4 prescribes;
* :mod:`repro.model.recovery_time` -- recovery time as backup-read plus
  log-read through the disk array;
* :mod:`repro.model.evaluate`   -- the public entry point tying it all
  together;
* :mod:`repro.model.utilization` -- CPU budgets: utilisation and
  throughput capacity on a given MIPS machine (extension).
"""

from .evaluate import ModelOptions, ModelResult, evaluate, evaluate_all
from .utilization import UtilizationModel, cpu_utilization, throughput_capacity

__all__ = [
    "ModelOptions",
    "ModelResult",
    "UtilizationModel",
    "cpu_utilization",
    "evaluate",
    "evaluate_all",
    "throughput_capacity",
]
