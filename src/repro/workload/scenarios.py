"""Named workload scenarios and the decorator registry behind them.

A :class:`WorkloadScenario` is a named, described
:class:`~repro.workload.spec.WorkloadSpec` -- the unit the CLI lists,
sweeps fan out over, and ``repro.simulate(workload="kv")`` resolves.
Scenarios announce themselves with ``@register_scenario`` at
definition time, mirroring ``@register_checkpointer``::

    from repro.workload import register_scenario, WorkloadScenario

    @register_scenario
    def my_storm():
        return WorkloadScenario(
            name="my-storm",
            description="what it stresses",
            spec=WorkloadSpec(schedule=ArrivalSchedule(...)),
        )

    repro.simulate("FUZZYCOPY", workload="my-storm")   # runnable at once

Lookup is case-insensitive (keys are lower-cased, the CLI-facing
convention for scenario names); a duplicate name raises
:class:`~repro.errors.ConfigurationError` unless ``replace=True``.

The built-in presets size their absolute rates for the test-scale
database (``scale≈1024``, a few hundred transactions/second) so a
scenario run finishes in seconds; schedules carry absolute rates, so
runs at other scales simply see the offered load the schedule states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError
from .schedule import ArrivalSchedule, constant, diurnal, ramp, spike
from .spec import AccessDistribution, WorkloadSpec

_REGISTRY: Dict[str, "WorkloadScenario"] = {}
_ORDER: List[str] = []


@dataclass(frozen=True)
class WorkloadScenario:
    """A named workload preset.

    Attributes:
        name: registry key (lower-cased for lookup).
        description: one line on what regime the scenario models.
        spec: the workload specification the name resolves to.
        duration: suggested run length in simulated seconds (what
            ``repro workload run`` uses when ``--duration`` is absent);
            None leaves the choice to the caller.
    """

    name: str
    description: str
    spec: WorkloadSpec
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"a scenario needs a non-empty string name, "
                f"got {self.name!r}")
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError(
                f"scenario duration must be positive, got {self.duration!r}")
        # Stamp the scenario's name into its spec for provenance.
        if self.spec.name != self.name:
            object.__setattr__(
                self, "spec",
                WorkloadSpec.from_dict(
                    {**self.spec.to_dict(), "name": self.name}))

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering for ``repro workload describe --json``."""
        out: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "spec": self.spec.to_dict(),
        }
        if self.duration is not None:
            out["duration"] = self.duration
        return out

    def describe(self) -> str:
        """One human line for ``repro workload list``."""
        return f"{self.name}: {self.description} -- {self.spec.describe()}"


ScenarioFactory = Callable[[], WorkloadScenario]


def register_scenario(
    factory: Optional[ScenarioFactory] = None,
    *,
    replace: bool = False,
) -> Union[WorkloadScenario, Callable[[ScenarioFactory], WorkloadScenario]]:
    """Decorator that adds a scenario factory's product to the registry.

    Usable bare (``@register_scenario``) or with options
    (``@register_scenario(replace=True)``).  The factory is called once
    at decoration time; the decorator returns the built
    :class:`WorkloadScenario` so the module name binds the scenario
    itself, not the spent factory.
    """

    def decorate(target: ScenarioFactory) -> WorkloadScenario:
        scenario = target()
        if not isinstance(scenario, WorkloadScenario):
            raise ConfigurationError(
                f"@register_scenario factories must return a "
                f"WorkloadScenario, got {type(scenario).__name__}")
        key = scenario.name.lower()
        if key in _REGISTRY and not replace:
            raise ConfigurationError(
                f"scenario {key!r} is already registered; "
                "pass replace=True to override")
        if key not in _ORDER:
            _ORDER.append(key)
        _REGISTRY[key] = scenario
        return scenario

    if factory is not None:
        return decorate(factory)
    return decorate


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (test/plugin teardown)."""
    key = name.lower()
    _REGISTRY.pop(key, None)
    if key in _ORDER:
        _ORDER.remove(key)


def scenario_names() -> Tuple[str, ...]:
    """Currently registered scenario names, in registration order."""
    return tuple(_ORDER)


def get_scenario(name: str) -> WorkloadScenario:
    """Look up a scenario by name (case-insensitive)."""
    scenario = _REGISTRY.get(name.lower())
    if scenario is None:
        known = ", ".join(scenario_names())
        raise ConfigurationError(
            f"unknown workload scenario {name!r}; known: {known}")
    return scenario


def resolve_workload(
    value: Union[WorkloadSpec, str, Mapping[str, Any], None],
) -> WorkloadSpec:
    """Coerce any accepted workload designator to a :class:`WorkloadSpec`.

    The one funnel behind ``SimulationConfig.workload``,
    ``repro.simulate(workload=...)``, and the CLI: a spec passes
    through, a string names a registered scenario, a mapping is strict
    ``from_dict`` input, and None means the default spec.
    """
    if value is None:
        return WorkloadSpec()
    if isinstance(value, WorkloadSpec):
        return value
    if isinstance(value, str):
        return get_scenario(value).spec
    if isinstance(value, Mapping):
        return WorkloadSpec.from_dict(value)
    raise ConfigurationError(
        f"workload must be a WorkloadSpec, a scenario name, or a dict, "
        f"got {type(value).__name__}")


# ----------------------------------------------------------------------
# built-in presets
# ----------------------------------------------------------------------
@register_scenario
def _bank() -> WorkloadScenario:
    """OLTP banking: a small hot set of accounts takes most updates."""
    return WorkloadScenario(
        name="bank",
        description=("steady OLTP with a 5% hot account set taking 90% "
                     "of updates and mixed transfer sizes"),
        spec=WorkloadSpec(
            distribution=AccessDistribution.HOTSPOT,
            hot_fraction=0.05,
            hot_probability=0.9,
            update_count_mix=((1, 5.0), (4, 3.0), (16, 1.0)),
            schedule=ArrivalSchedule((constant(200.0, 10.0),)),
        ),
        duration=10.0,
    )


@register_scenario
def _kv() -> WorkloadScenario:
    """Key-value cache traffic: Zipf-popular keys, tiny writes."""
    return WorkloadScenario(
        name="kv",
        description=("key-value store traffic: Zipf(1.3) key popularity, "
                     "mostly single-record writes"),
        spec=WorkloadSpec(
            distribution=AccessDistribution.ZIPF,
            zipf_theta=1.3,
            update_count_mix=((1, 8.0), (2, 2.0)),
            schedule=ArrivalSchedule((constant(300.0, 10.0),)),
        ),
        duration=10.0,
    )


@register_scenario
def _read_heavy() -> WorkloadScenario:
    """A mostly-narrow update stream warming up behind a read tier."""
    return WorkloadScenario(
        name="read-heavy",
        description=("cache-warmup regime: narrow updates ramping from "
                     "100/s to 400/s as the read tier fills"),
        spec=WorkloadSpec(
            update_count_mix=((1, 9.0), (5, 1.0)),
            schedule=ArrivalSchedule((ramp(100.0, 400.0, 6.0),)),
        ),
        duration=6.0,
    )


@register_scenario
def _write_storm() -> WorkloadScenario:
    """A 6x burst of wide transactions -- the checkpointer stress test."""
    return WorkloadScenario(
        name="write-storm",
        description=("wide-transaction burst: baseline 150/s spiking to "
                     "900/s mid-run, the worst case for copy-on-update "
                     "contention"),
        spec=WorkloadSpec(
            update_count_mix=((8, 2.0), (32, 1.0)),
            schedule=ArrivalSchedule((
                constant(150.0, 2.0),
                spike(150.0, 900.0, 4.0),
                constant(150.0, 2.0),
            )),
        ),
        duration=8.0,
    )


@register_scenario
def _diurnal() -> WorkloadScenario:
    """A repeating day/night cycle -- checkpoints meet the quiet trough."""
    return WorkloadScenario(
        name="diurnal",
        description=("repeating day/night sinusoid around 250/s "
                     "(amplitude 0.8): checkpoint intervals straddle "
                     "peak and trough"),
        spec=WorkloadSpec(
            schedule=ArrivalSchedule((diurnal(250.0, 8.0, amplitude=0.8),),
                                     repeat=True),
        ),
        duration=16.0,
    )


__all__ = [
    "WorkloadScenario",
    "register_scenario",
    "unregister_scenario",
    "scenario_names",
    "get_scenario",
    "resolve_workload",
]
