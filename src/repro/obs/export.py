"""The run document: one run, one JSON object.

A saved run is exactly the ``repro metrics --json`` payload -- the keys
in :data:`METRICS_KEYS`: ``meta`` (the scenario identity: algorithm,
seed, duration, preset name, ...), ``summary`` (the final
:class:`~repro.sim.system.SimulationMetrics` dict), ``telemetry`` (the
:class:`~repro.obs.metrics.MetricsRegistry` snapshot) and
``checkpoints`` (the per-checkpoint phase history) -- plus, for a
span-recorded run, ``spans`` (the
:meth:`~repro.obs.spans.SpanRecorder.snapshot` list) and
``spans_dropped`` (older spans the recorder's ring evicted).  The two
span keys are absent, not null, when spans were off.
``schemas/metrics.schema.json`` describes the document.

:func:`run_document` is the one writer (``repro metrics --json`` prints
it, ``repro trace --out`` saves it); :func:`load_run` is the one reader
(``repro metrics --load`` / ``repro trace --load``).  Every value is a
plain JSON scalar/dict/list, so a document reloads into exactly the
structures that produced it -- the round-trip contract
``tests/test_obs.py`` enforces.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, TYPE_CHECKING, Union

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.system import SimulatedSystem

PathLike = Union[str, "os.PathLike[str]"]

#: the keys every run document carries (the ``metrics --json`` payload)
METRICS_KEYS = ("meta", "summary", "telemetry", "checkpoints")


def run_document(system: "SimulatedSystem",
                 meta: Dict[str, Any]) -> Dict[str, Any]:
    """A simulated system's run as one JSON-ready document."""
    document: Dict[str, Any] = {
        "meta": meta,
        "summary": asdict(system.metrics()),
        "telemetry": system.telemetry_snapshot(),
        "checkpoints": [asdict(stats)
                        for stats in system.checkpointer.history],
    }
    if system.spans.enabled:
        document["spans"] = system.spans.snapshot()
        document["spans_dropped"] = system.spans.dropped
    return document


def load_run(path: PathLike) -> Dict[str, Any]:
    """Reload a run document written from :func:`run_document`.

    Raises:
        ConfigurationError: ``path`` cannot be read, or does not hold
            one JSON object with the :data:`METRICS_KEYS` (the JSONL
            exports of earlier versions are refused, not converted).
    """
    try:
        with open(path, "r", encoding="utf-8") as fp:
            document = json.load(fp)
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read run document "
                                 f"({exc.strerror})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError):
        document = None
    if not isinstance(document, dict) or any(
            key not in document for key in METRICS_KEYS):
        raise ConfigurationError(
            f"{path}: not a run document (one JSON object with keys "
            f"{', '.join(METRICS_KEYS)}); save one with 'repro trace --out "
            "PATH' or 'repro metrics --json' -- a JSONL export of an "
            "earlier version has to be re-exported that way")
    return document
