"""One-shot report generation: every table, figure, and extension.

``generate_report(directory)`` regenerates the complete evaluation into
one directory: the rendered text tables, the CSV data files, and a
REPORT.md that stitches them together.  ``python -m repro report`` is
the CLI front end.  (The simulation-backed sections -- validation,
latency, replication -- take a minute or two; ``include_simulations=False``
produces the model-only report in a second.)
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from ..params import PAPER_DEFAULTS, SystemParameters
from . import (
    ablations,
    capacity,
    export,
    extensions,
    fig4a,
    fig4b,
    fig4c,
    fig4d,
    fig4e,
    replication,
    tables,
    validation,
)

PathLike = Union[str, Path]

_HEADER = """# Regenerated evaluation report

Produced by `python -m repro report`.  Sections mirror the paper's
Section 4 (Figures 4a-4e), followed by this reproduction's validation,
extension, and ablation experiments.  Machine-readable data: `csv/`.
"""


def generate_report(
    directory: PathLike,
    params: SystemParameters = PAPER_DEFAULTS,
    *,
    include_simulations: bool = True,
    replicates: int = 1,
    workers: int = 1,
) -> Path:
    """Write the full report; returns the REPORT.md path.

    ``workers`` is the process count of every simulation-backed section's
    sweep; the analytic sections are plain loops over the model.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    export.export_all(target / "csv", params)

    sections: List[str] = [_HEADER]
    sections.append("## Model parameters (Tables 2a-2d)\n\n```\n"
                    + tables.render(params) + "\n```")
    for title, module in (("Figure 4a", fig4a), ("Figure 4b", fig4b),
                          ("Figure 4c", fig4c), ("Figure 4d", fig4d),
                          ("Figure 4e", fig4e)):
        sections.append(f"## {title}\n\n```\n{module.render(params)}\n```")
    sections.append("## Throughput capacity (extension)\n\n```\n"
                    + capacity.render(params) + "\n```")
    sections.append("## Modelling-choice ablations\n\n```\n"
                    + ablations.render(params) + "\n```")
    if include_simulations:
        sections.append("## Model vs testbed\n\n```\n"
                        + validation.render(replicates=replicates,
                                            workers=workers)
                        + "\n```")
        sections.append("## Consistency spectrum & latency (extensions)"
                        "\n\n```\n"
                        + extensions.render(params, replicates=replicates,
                                            workers=workers)
                        + "\n```")
        sections.append("## Replicated measurements\n\n```\n"
                        + replication.render(workers=workers)
                        + "\n```")
    report_path = target / "REPORT.md"
    report_path.write_text("\n\n".join(sections) + "\n")
    return report_path
