"""Experiment drivers: one module per figure of the paper's Section 4.

Each module exposes a ``figure4x()`` function returning structured data
and a ``render()`` function producing the text table that EXPERIMENTS.md
records; ``python -m repro figures`` / ``report`` and
``tests/test_paper_claims.py`` call these same functions.
"""

from . import (
    ablations,
    capacity,
    export,
    extensions,
    replication,
    fig4a,
    fig4b,
    fig4c,
    fig4d,
    fig4e,
    report,
    tables,
    validation,
)

__all__ = [
    "ablations",
    "capacity",
    "export",
    "extensions",
    "replication",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig4e",
    "report",
    "tables",
    "validation",
]
