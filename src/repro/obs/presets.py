"""Named simulation scenarios for the observability CLI and CI smoke runs.

A preset pins every knob of one small-but-representative run (algorithm,
scale, load, seed, duration) so ``repro metrics --preset NAME`` and the
CI schema check are reproducible by name.  All presets are scaled far
below the paper's 256 Mword database -- they exist to exercise the
telemetry pipeline in seconds, not to reproduce Section 4's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..api import build_system
from ..errors import ConfigurationError


@dataclass(frozen=True)
class ScenarioPreset:
    """One named, fully pinned simulation scenario."""

    name: str
    description: str
    algorithm: str
    scale: int = 256
    lam: float = 200.0
    duration: float = 6.0
    seed: int = 42
    interval: Optional[float] = None
    stable_tail: bool = False
    #: further :class:`SimulationConfig` fields, as (name, value) pairs
    extra_config: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    def build_system(self, **config_fields: Any) -> Any:
        """The preset's system, not yet run; ``config_fields`` add the
        per-invocation switches (``telemetry``, ``spans``)."""
        return build_system(
            self.algorithm, scale=self.scale, lam=self.lam, seed=self.seed,
            interval=self.interval, stable_tail=self.stable_tail,
            **dict(self.extra_config), **config_fields)

    def meta(self) -> Dict[str, Any]:
        return {"preset": self.name, "algorithm": self.algorithm,
                "scale": self.scale, "lam": self.lam,
                "duration": self.duration, "seed": self.seed}


_PRESET_LIST = (
    ScenarioPreset(
        name="fig4b-small",
        description="2CCOPY under the figure-4b default load, scaled down: "
                    "two-color aborts, WAL waits, and paint-sweep telemetry",
        algorithm="2CCOPY"),
    ScenarioPreset(
        name="fig4b-small-cou",
        description="COUCOPY on the same scenario: copy-on-update snapshots "
                    "instead of aborts",
        algorithm="COUCOPY"),
    ScenarioPreset(
        name="fuzzy-small",
        description="FUZZYCOPY baseline: buffered fuzzy sweeps, no "
                    "transaction interference",
        algorithm="FUZZYCOPY"),
    ScenarioPreset(
        name="fastfuzzy-stable",
        description="FASTFUZZY with a stable-RAM log tail (figure 4e's "
                    "configuration)",
        algorithm="FASTFUZZY", stable_tail=True),
    ScenarioPreset(
        name="cou-quiesce",
        description="COUCOPY with quiesce latency modelled, so the "
                    "checkpoint quiesce phase is visible",
        algorithm="COUCOPY",
        extra_config=(("cou_quiesce_latency", True),
                      ("log_flush_interval", 0.05))),
    ScenarioPreset(
        name="cpu-bound",
        description="FUZZYCOPY on a finite 5-MIPS processor: CPU queueing "
                    "and the utilisation timeline",
        algorithm="FUZZYCOPY", duration=4.0,
        extra_config=(("cpu_mips", 5.0),)),
)

PRESETS: Dict[str, ScenarioPreset] = {p.name: p for p in _PRESET_LIST}

PRESET_NAMES: Tuple[str, ...] = tuple(PRESETS)


def get_preset(name: str) -> ScenarioPreset:
    preset = PRESETS.get(name)
    if preset is None:
        known = ", ".join(PRESET_NAMES)
        raise ConfigurationError(f"unknown preset {name!r}; known: {known}")
    return preset
