"""Time-varying arrival-rate schedules for open-system workloads.

The paper's load model (Section 2.5, Table 2d) is a fixed-rate Poisson
stream -- exactly what its analytic model needs and exactly what a real
service never sees.  An :class:`ArrivalSchedule` describes the *offered*
load as a sequence of :class:`SchedulePhase` segments, each a simple
rate shape over a duration:

* ``constant`` -- a flat rate;
* ``ramp``     -- linear from ``rate`` to ``rate_to``;
* ``spike``    -- a triangular burst from ``rate`` up to ``peak`` at the
  phase midpoint and back;
* ``diurnal``  -- one sinusoidal day: ``rate * (1 + amplitude*sin)``
  with the phase duration as the period;
* ``pause``    -- no arrivals at all.

After the last phase a non-repeating schedule *holds the final rate*
forever (a schedule ending in ``pause`` therefore ends the arrival
stream); with ``repeat=True`` the whole schedule cycles.

Arrival sampling is exact, not approximate: the schedule exposes the
cumulative offered load ``offered(t0, t1)`` (analytic per-phase
integrals) and its inverse :meth:`ArrivalSchedule.time_to_offer`, which
is the classic inversion method for a non-homogeneous Poisson process --
draw ``E ~ Exp(1)`` and find the instant by which the schedule has
offered ``E`` more expected arrivals.  Everything is plain float math,
so a fixed seed reproduces the arrival stream bit-identically.

Schedules serialise to plain dicts (:meth:`to_dict` / :meth:`from_dict`,
strict about unknown keys), mirroring :class:`~repro.faults.plan.FaultPlan`,
so they travel through sweep cache keys, JSONL exports, and the
``schemas/workload.schema.json`` contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError

#: Phase shapes a :class:`SchedulePhase` may take.
PHASE_KINDS = ("constant", "ramp", "spike", "diurnal", "pause")

#: Relative tolerance of the :meth:`ArrivalSchedule.time_to_offer`
#: bisection (seconds of simulated time at convergence).
_INVERSION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SchedulePhase:
    """One segment of an arrival schedule: a rate shape over a duration.

    Attributes:
        kind: one of :data:`PHASE_KINDS`.
        rate: base arrival rate, transactions/second (the flat value for
            ``constant``, the start/end value for ``spike``, the mean
            for ``diurnal``; ignored and forced to 0 for ``pause``).
        duration: phase length in simulated seconds (> 0).
        rate_to: the ``ramp`` end rate (required for ramps).
        peak: the ``spike`` midpoint rate (required, >= ``rate``).
        amplitude: the ``diurnal`` modulation depth in [0, 1): the rate
            swings between ``rate*(1-amplitude)`` and
            ``rate*(1+amplitude)`` over one period.
    """

    kind: str
    rate: float = 0.0
    duration: float = 1.0
    rate_to: Optional[float] = None
    peak: Optional[float] = None
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ConfigurationError(
                f"phase kind must be one of {PHASE_KINDS}, got {self.kind!r}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"phase duration must be positive, got {self.duration!r}")
        if self.rate < 0:
            raise ConfigurationError(
                f"phase rate must be >= 0, got {self.rate!r}")
        if self.kind == "ramp":
            if self.rate_to is None or self.rate_to < 0:
                raise ConfigurationError(
                    f"ramp phases need rate_to >= 0, got {self.rate_to!r}")
        elif self.rate_to is not None:
            raise ConfigurationError(
                f"rate_to only applies to ramp phases, not {self.kind!r}")
        if self.kind == "spike":
            if self.peak is None or self.peak < self.rate:
                raise ConfigurationError(
                    f"spike phases need peak >= rate, got peak={self.peak!r}")
        elif self.peak is not None:
            raise ConfigurationError(
                f"peak only applies to spike phases, not {self.kind!r}")
        if self.kind == "diurnal" and not 0 <= self.amplitude < 1:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0, 1), "
                f"got {self.amplitude!r}")
        if self.kind == "pause" and self.rate != 0.0:
            raise ConfigurationError(
                f"pause phases carry no rate, got {self.rate!r}")

    # ------------------------------------------------------------------
    # the rate shape
    # ------------------------------------------------------------------
    def rate_at(self, t: float) -> float:
        """Instantaneous rate ``t`` seconds into the phase."""
        if self.kind == "constant":
            return self.rate
        if self.kind == "pause":
            return 0.0
        if self.kind == "ramp":
            return self.rate + (self.rate_to - self.rate) * t / self.duration
        if self.kind == "spike":
            half = self.duration / 2.0
            climb = self.peak - self.rate
            if t <= half:
                return self.rate + climb * t / half
            return self.rate + climb * (self.duration - t) / half
        # diurnal
        return self.rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.duration))

    def offered(self, a: float, b: float) -> float:
        """Expected arrivals in ``[a, b]`` of phase-local time (analytic)."""
        a = min(max(a, 0.0), self.duration)
        b = min(max(b, 0.0), self.duration)
        if b <= a:
            return 0.0
        if self.kind == "constant":
            return self.rate * (b - a)
        if self.kind == "pause":
            return 0.0
        if self.kind == "ramp":
            return 0.5 * (self.rate_at(a) + self.rate_at(b)) * (b - a)
        if self.kind == "spike":
            half = self.duration / 2.0
            total = 0.0
            lo, hi = a, min(b, half)
            if hi > lo:  # rising edge: linear, trapezoid is exact
                total += 0.5 * (self.rate_at(lo) + self.rate_at(hi)) * (hi - lo)
            lo, hi = max(a, half), b
            if hi > lo:  # falling edge
                total += 0.5 * (self.rate_at(lo) + self.rate_at(hi)) * (hi - lo)
            return total
        # diurnal: integral of rate*(1 + A sin(2 pi t / D))
        omega = 2.0 * math.pi / self.duration
        return (self.rate * (b - a)
                + self.rate * self.amplitude / omega
                * (math.cos(omega * a) - math.cos(omega * b)))

    @property
    def end_rate(self) -> float:
        """The rate at the very end of the phase (what a tail holds)."""
        return self.rate_at(self.duration)

    @property
    def max_rate(self) -> float:
        """The highest instantaneous rate anywhere in the phase."""
        if self.kind == "ramp":
            return max(self.rate, self.rate_to)
        if self.kind == "spike":
            return self.peak
        if self.kind == "diurnal":
            return self.rate * (1.0 + self.amplitude)
        if self.kind == "pause":
            return 0.0
        return self.rate

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering; :meth:`from_dict` round-trips it."""
        out: Dict[str, Any] = {"kind": self.kind, "duration": self.duration}
        if self.kind != "pause":
            out["rate"] = self.rate
        if self.kind == "ramp":
            out["rate_to"] = self.rate_to
        if self.kind == "spike":
            out["peak"] = self.peak
        if self.kind == "diurnal":
            out["amplitude"] = self.amplitude
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulePhase":
        """Rebuild a phase from :meth:`to_dict` output (strict keys)."""
        known = {"kind", "rate", "duration", "rate_to", "peak", "amplitude"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SchedulePhase keys: {sorted(unknown)!r}")
        if "kind" not in data:
            raise ConfigurationError("a schedule phase needs a 'kind'")
        kwargs: Dict[str, Any] = {"kind": str(data["kind"])}
        for field_name in ("rate", "duration", "rate_to", "peak",
                           "amplitude"):
            if field_name in data and data[field_name] is not None:
                kwargs[field_name] = float(data[field_name])
        return cls(**kwargs)

    def describe(self) -> str:
        """One compact human fragment, e.g. ``spike 150->900/s 4s``."""
        if self.kind == "constant":
            shape = f"{self.rate:g}/s"
        elif self.kind == "ramp":
            shape = f"{self.rate:g}->{self.rate_to:g}/s"
        elif self.kind == "spike":
            shape = f"{self.rate:g}^{self.peak:g}/s"
        elif self.kind == "diurnal":
            shape = f"{self.rate:g}/s~{self.amplitude:g}"
        else:
            shape = "0/s"
        return f"{self.kind} {shape} {self.duration:g}s"


# ----------------------------------------------------------------------
# phase constructors (the declarative grammar's human face)
# ----------------------------------------------------------------------
def constant(rate: float, duration: float) -> SchedulePhase:
    """A flat-rate phase."""
    return SchedulePhase("constant", rate=rate, duration=duration)


def ramp(rate: float, rate_to: float, duration: float) -> SchedulePhase:
    """A linear ramp from ``rate`` to ``rate_to``."""
    return SchedulePhase("ramp", rate=rate, duration=duration,
                         rate_to=rate_to)


def spike(rate: float, peak: float, duration: float) -> SchedulePhase:
    """A triangular burst peaking at the phase midpoint."""
    return SchedulePhase("spike", rate=rate, duration=duration, peak=peak)


def diurnal(rate: float, duration: float,
            amplitude: float = 0.5) -> SchedulePhase:
    """One sinusoidal day with ``duration`` as the period."""
    return SchedulePhase("diurnal", rate=rate, duration=duration,
                         amplitude=amplitude)


def pause(duration: float) -> SchedulePhase:
    """A quiet period with no arrivals."""
    return SchedulePhase("pause", duration=duration)


@dataclass(frozen=True)
class ArrivalSchedule:
    """A sequence of rate phases defining the offered load over time.

    Time 0 is the start of the simulation run.  Past the final phase a
    non-repeating schedule holds the last phase's end rate forever;
    ``repeat=True`` cycles the whole schedule instead.
    """

    phases: Tuple[SchedulePhase, ...]
    repeat: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.phases, tuple):
            object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ConfigurationError("a schedule needs at least one phase")
        for phase in self.phases:
            if not isinstance(phase, SchedulePhase):
                raise ConfigurationError(
                    f"phases must be SchedulePhase instances, got {phase!r}")

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def total_duration(self) -> float:
        """One pass through every phase, seconds."""
        return sum(phase.duration for phase in self.phases)

    @property
    def end_rate(self) -> float:
        """The rate a non-repeating schedule holds after its last phase."""
        return self.phases[-1].end_rate

    def _locate(self, t: float) -> Tuple[SchedulePhase, float]:
        """The phase covering schedule-local time ``t`` (0 <= t < total)."""
        offset = 0.0
        for phase in self.phases:
            if t < offset + phase.duration:
                return phase, t - offset
            offset += phase.duration
        return self.phases[-1], self.phases[-1].duration

    def rate_at(self, t: float) -> float:
        """Instantaneous offered rate at absolute time ``t``."""
        if t < 0:
            t = 0.0
        total = self.total_duration
        if self.repeat:
            t = math.fmod(t, total)
        elif t >= total:
            return self.end_rate
        phase, local = self._locate(t)
        return phase.rate_at(local)

    # ------------------------------------------------------------------
    # offered load (the cumulative intensity function)
    # ------------------------------------------------------------------
    def _offered_within(self, a: float, b: float) -> float:
        """Expected arrivals in ``[a, b]`` of one pass (0 <= a <= b)."""
        total = 0.0
        offset = 0.0
        for phase in self.phases:
            total += phase.offered(a - offset, b - offset)
            offset += phase.duration
        return total

    def offered(self, t0: float, t1: float) -> float:
        """Expected arrivals in absolute ``[t0, t1]`` (the rate integral)."""
        if t1 <= t0:
            return 0.0
        t0 = max(t0, 0.0)
        total = self.total_duration
        if self.repeat:
            per_cycle = self._offered_within(0.0, total)
            n0, r0 = divmod(t0, total)
            n1, r1 = divmod(t1, total)
            return ((n1 - n0) * per_cycle
                    + self._offered_within(0.0, r1)
                    - self._offered_within(0.0, r0))
        out = self._offered_within(min(t0, total), min(t1, total))
        if t1 > total:
            out += self.end_rate * (t1 - max(t0, total))
        return out

    def time_to_offer(self, start: float,
                      target: float) -> Optional[float]:
        """The instant by which ``target`` more arrivals are offered.

        This inverts :meth:`offered` -- the inversion method for
        sampling a non-homogeneous Poisson process: with ``target``
        drawn from Exp(1), the returned instant is the next arrival.
        Returns ``None`` when the schedule can never offer that much
        load again (it ended in a pause), which ends the arrival stream.
        """
        if target <= 0:
            return max(start, 0.0)
        start = max(start, 0.0)
        total = self.total_duration
        # Can the schedule still deliver?  A repeating schedule delivers
        # iff one cycle offers anything; a finite one needs a positive
        # tail rate or enough load left before its end.
        if self.repeat:
            if self._offered_within(0.0, total) <= 0.0:
                return None
        elif self.end_rate <= 0.0 and self.offered(start, total) < target:
            return None
        # Bracket the answer, then bisect the monotone offered() curve.
        span = max(total, 1.0)
        hi = start + span
        while self.offered(start, hi) < target:
            span *= 2.0
            hi = start + span
        lo = start
        while hi - lo > _INVERSION_TOLERANCE * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if self.offered(start, mid) < target:
                lo = mid
            else:
                hi = mid
        return hi

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering; :meth:`from_dict` round-trips it."""
        out: Dict[str, Any] = {
            "phases": [phase.to_dict() for phase in self.phases]}
        if self.repeat:
            out["repeat"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrivalSchedule":
        """Rebuild a schedule from :meth:`to_dict` output (strict keys)."""
        known = {"phases", "repeat"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ArrivalSchedule keys: {sorted(unknown)!r}")
        raw = data.get("phases")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigurationError(
                "a schedule dict needs a non-empty 'phases' list")
        phases: List[SchedulePhase] = [SchedulePhase.from_dict(item)
                                       for item in raw]
        return cls(phases=tuple(phases),
                   repeat=bool(data.get("repeat", False)))

    def describe(self) -> str:
        """One human line, e.g. ``constant 150/s 2s | spike 150^900/s 4s``."""
        line = " | ".join(phase.describe() for phase in self.phases)
        return f"[{line}]" + (" repeat" if self.repeat else "")
