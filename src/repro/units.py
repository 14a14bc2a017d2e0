"""Unit helpers and conventions used throughout the reproduction.

The paper expresses quantities in a small set of units and we keep them
verbatim to make formulas easy to compare against the text:

* **words** -- the unit of data size (a word is four bytes in the paper's
  back-of-envelope estimates).  Database size ``S_db``, record size
  ``S_rec`` and segment size ``S_seg`` are all in words.
* **instructions** -- the unit of processor cost.  The paper charges the
  CPU per basic operation (Table 2a) and one instruction per word moved.
* **seconds** -- the unit of time.  Disk service time for ``d`` words is
  ``T_seek + T_trans * d``.

This module centralises the handful of conversions (mostly for display)
so that magic constants do not spread through the code base.  It is
layer-neutral (it imports only :mod:`repro.errors`), so the report
helpers every layer shares -- the text table, the compact number
format, the interpolating percentile -- live here too.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .errors import ConfigurationError

BYTES_PER_WORD = 4
"""Bytes per machine word, following the paper's estimates (Section 2.3)."""

MEGAWORD = 1 << 20
"""Words per 'Mword' as used in Table 2c (S_db defaults to 256 Mwords)."""


def words_to_bytes(words: float) -> float:
    """Convert a size in words to bytes (4 bytes/word, see Section 2.3)."""
    return words * BYTES_PER_WORD


def words_to_megabytes(words: float) -> float:
    """Convert a size in words to megabytes (10^6 bytes, as the paper does)."""
    return words_to_bytes(words) / 1e6


def mwords(count: float) -> int:
    """Return ``count`` megawords expressed in words (Table 2c convention)."""
    return int(count * MEGAWORD)


def instructions_to_mips_seconds(instructions: float, mips: float) -> float:
    """Convert an instruction count to seconds on a ``mips``-MIPS processor.

    The paper never fixes a processor speed -- overheads are reported in
    instructions per transaction -- but the simulator needs wall-clock
    estimates for CPU-bound phases, and examples use this for intuition.
    """
    if mips <= 0:
        raise ValueError("mips must be positive")
    return instructions / (mips * 1e6)


def fmt_instructions(value: float) -> str:
    """Format an instruction count for report tables (3 significant digits)."""
    if value >= 1e6:
        return f"{value / 1e6:.3g}M"
    if value >= 1e3:
        return f"{value / 1e3:.3g}k"
    return f"{value:.3g}"


def fmt_seconds(value: float) -> str:
    """Format a duration in seconds for report tables."""
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.2f}ms"


def fmt_compact(value: float) -> str:
    """Compact numeric formatting across the ns-to-minutes range."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.001:
        return f"{value:.3g}"
    return f"{value:.4g}"


def text_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
               title: str = "") -> str:
    """Render an aligned plain-text table (the report format)."""
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ConfigurationError("cannot take a percentile of no values")
    if not 0 <= q <= 100:
        raise ConfigurationError(f"q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight
