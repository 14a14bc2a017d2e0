"""Small statistics helpers for replicated experiment runs.

Single simulation runs are deterministic given a seed; experiment
conclusions should rest on several seeds.  These helpers summarise a
sample of per-run measurements as mean, standard deviation, and a
Student-t confidence interval -- enough to say whether two algorithms'
measured overheads actually differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from scipy import stats as scipy_stats

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SampleSummary:
    """Mean and uncertainty of one measured quantity across runs."""

    n: int
    mean: float
    stddev: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2

    def overlaps(self, other: "SampleSummary") -> bool:
        """Whether the two confidence intervals overlap."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    def __str__(self) -> str:
        return (f"{self.mean:.4g} ± {self.ci_half_width:.2g} "
                f"(n={self.n}, {self.confidence:.0%} CI)")


def summarize(values: Sequence[float],
              confidence: float = 0.95) -> SampleSummary:
    """Summarise a sample with a Student-t confidence interval."""
    if not values:
        raise ConfigurationError("cannot summarise an empty sample")
    if not 0 < confidence < 1:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return SampleSummary(n=1, mean=mean, stddev=0.0,
                             ci_low=mean, ci_high=mean,
                             confidence=confidence)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(variance)
    t_crit = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    half = t_crit * stddev / math.sqrt(n)
    return SampleSummary(n=n, mean=mean, stddev=stddev,
                         ci_low=mean - half, ci_high=mean + half,
                         confidence=confidence)
