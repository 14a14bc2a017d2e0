"""CSV export of every figure's data series.

The text tables ``repro figures`` prints are for humans; these CSV
files are for whoever wants to re-plot the figures with their own tools.
``export_all(directory)`` writes one file per figure, with one row per
plotted point and explicit series columns -- no parsing of rendered
tables required.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Union

from ..params import PAPER_DEFAULTS, SystemParameters
from . import fig4a, fig4b, fig4c, fig4d, fig4e

PathLike = Union[str, Path]


def _write_csv(path: Path, header: Sequence[str],
               rows: Sequence[Sequence[object]]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_fig4a(directory: Path,
                 params: SystemParameters = PAPER_DEFAULTS) -> Path:
    path = directory / "fig4a.csv"
    rows = [(p.algorithm, p.overhead_per_txn, p.recovery_time,
             p.reruns_per_txn) for p in fig4a.figure4a(params)]
    _write_csv(path, ["algorithm", "overhead_per_txn", "recovery_time_s",
                      "reruns_per_txn"], rows)
    return path


def export_fig4b(directory: Path,
                 params: SystemParameters = PAPER_DEFAULTS) -> Path:
    path = directory / "fig4b.csv"
    rows = []
    for (algorithm, disks), curve in sorted(fig4b.figure4b(params).items()):
        for point in curve:
            rows.append((algorithm, disks, point.interval,
                         point.overhead_per_txn, point.recovery_time))
    _write_csv(path, ["algorithm", "n_bdisks", "interval_s",
                      "overhead_per_txn", "recovery_time_s"], rows)
    return path


def export_fig4c(directory: Path,
                 params: SystemParameters = PAPER_DEFAULTS) -> Path:
    path = directory / "fig4c.csv"
    rows = []
    for algorithm, points in fig4c.figure4c(params).items():
        for point in points:
            rows.append((algorithm, point.lam, point.overhead_per_txn,
                         point.abort_probability))
    _write_csv(path, ["algorithm", "lam_tps", "overhead_per_txn",
                      "abort_probability"], rows)
    return path


def export_fig4d(directory: Path,
                 params: SystemParameters = PAPER_DEFAULTS) -> Path:
    path = directory / "fig4d.csv"
    rows = []
    for (algorithm, fixed), points in sorted(fig4d.figure4d(params).items()):
        policy = "fixed_300s" if fixed else "min_duration"
        for point in points:
            rows.append((algorithm, policy, point.s_seg,
                         point.overhead_per_txn, point.active_fraction))
    _write_csv(path, ["algorithm", "policy", "s_seg_words",
                      "overhead_per_txn", "active_fraction"], rows)
    return path


def export_fig4e(directory: Path,
                 params: SystemParameters = PAPER_DEFAULTS) -> Path:
    path = directory / "fig4e.csv"
    rows = [(p.algorithm, p.overhead_per_txn)
            for p in fig4e.figure4e(params)]
    _write_csv(path, ["algorithm", "overhead_per_txn"], rows)
    return path


def export_all(directory: PathLike,
               params: SystemParameters = PAPER_DEFAULTS) -> List[Path]:
    """Write every figure's CSV into ``directory`` (created if needed)."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    return [
        export_fig4a(target, params),
        export_fig4b(target, params),
        export_fig4c(target, params),
        export_fig4d(target, params),
        export_fig4e(target, params),
    ]
