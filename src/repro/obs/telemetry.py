"""The single telemetry handle every instrumented component keys off.

A :class:`Telemetry` wraps a :class:`~repro.obs.metrics.MetricsRegistry`
behind an ``enabled`` flag.  Instrumentation sites hold one shared
instance and guard each event with the flag::

    if self.telemetry.enabled:
        self.telemetry.registry.observe("disk.backup.service_time", service)

so a disabled run pays exactly one attribute load + predicate per event
-- no argument evaluation, no dict lookups, no allocation.  The
module-level :data:`NULL_TELEMETRY` is the default everywhere: a
component constructed without an explicit handle is observably inert.

Telemetry never feeds back into the simulation: it draws no random
numbers, schedules no events, and mutates nothing outside its registry,
so a run's results are bit-identical with telemetry on or off (enforced
by ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .metrics import MetricsRegistry


class Telemetry:
    """An on/off switch in front of a metrics registry."""

    __slots__ = ("enabled", "registry")

    def __init__(self, enabled: bool = True,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """The registry snapshot, or ``None`` while disabled."""
        if not self.enabled:
            return None
        return self.registry.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state})"


#: The shared no-op default.  Never enable this instance; construct a
#: fresh ``Telemetry(enabled=True)`` per run instead, so runs don't
#: share (and corrupt) one global registry.
NULL_TELEMETRY = Telemetry(enabled=False)
