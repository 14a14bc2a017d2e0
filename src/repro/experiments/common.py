"""Shared helpers for the experiment drivers: sweeps."""

from __future__ import annotations

from typing import List


def geometric_sweep(low: float, high: float, points: int) -> List[float]:
    """``points`` values log-spaced over [low, high] inclusive."""
    if points < 2:
        return [low]
    ratio = (high / low) ** (1.0 / (points - 1))
    return [low * ratio**i for i in range(points)]
