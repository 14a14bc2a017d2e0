"""Declarative, seed-reproducible fault plans.

A :class:`FaultPlan` describes *what should go wrong* during one
simulation run, independently of any particular system instance:

* **crash triggers** (:class:`CrashSpec`) -- lose all volatile state at a
  simulated time, after the N-th backup-disk write, at a named
  checkpoint phase, or at the N-th non-empty log flush (before the tail
  reaches stable storage, the classic lost-tail crash);
* **torn writes** -- segment writes in flight at the crash instant land
  only a prefix of their data in the backup image (the image's flush
  metadata is *not* updated, exactly like a power loss mid-transfer);
* **transient I/O faults** (:class:`IOFaultSpec`) -- backup-disk requests
  fail with a configurable probability and are retried with exponential
  backoff; exhausting the retry budget raises
  :class:`~repro.errors.MediaError`.  Latency spikes delay a request
  without failing it.

The determinism contract: a plan carries its own RNG ``seed``, every
random decision (fault draws, torn-write cut points) comes from that
single seeded stream, and the stream is consumed in event order -- so
the same ``(plan, system seed)`` pair produces an *identical* run,
crash, and recovery, byte for byte.  ``tests/test_fault_injection.py``
enforces this by comparing whole reports across reruns.

Plans serialise to plain dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`), which makes them sweepable: a crash
matrix is just a parameter grid with a ``plan`` axis fanned out over
the :class:`~repro.sweep.SweepRunner` (see
:mod:`repro.faults.matrix`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..errors import ConfigurationError

#: Checkpoint phases a :class:`CrashSpec` may target.  ``begin`` fires
#: right after the begin marker is logged; ``sweep`` after the N-th
#: segment write of the checkpoint completes; ``paint`` when the
#: two-color sweep paints segment N; ``quiesce`` during the COU
#: begin-checkpoint log force (requires ``cou_quiesce_latency``);
#: ``end`` just before the end marker would be logged.
CRASH_PHASES = ("begin", "sweep", "paint", "quiesce", "end")


@dataclass(frozen=True)
class CrashSpec:
    """When to pull the plug.  Unset fields never trigger.

    Several triggers may be armed at once; whichever fires first wins
    (at most one crash is injected per run).
    """

    #: absolute simulated time of the crash, seconds
    at_time: Optional[float] = None
    #: crash when the N-th backup-disk write request is submitted
    after_writes: Optional[int] = None
    #: crash when a checkpoint reaches this phase (see CRASH_PHASES)
    at_phase: Optional[str] = None
    #: which checkpoint the phase trigger applies to (real ids start at 1)
    checkpoint_ordinal: int = 1
    #: for ``at_phase="sweep"``/``"paint"``: progress count that triggers
    after_flushes: int = 1
    #: crash at the N-th non-empty log flush, before the tail is stable
    at_log_flush: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at_time is not None and self.at_time <= 0:
            raise ConfigurationError(
                f"crash at_time must be positive, got {self.at_time!r}")
        if self.after_writes is not None and self.after_writes < 1:
            raise ConfigurationError(
                f"crash after_writes must be >= 1, got {self.after_writes!r}")
        if self.at_phase is not None and self.at_phase not in CRASH_PHASES:
            raise ConfigurationError(
                f"crash at_phase must be one of {CRASH_PHASES}, "
                f"got {self.at_phase!r}")
        if self.checkpoint_ordinal < 1:
            raise ConfigurationError(
                f"checkpoint_ordinal must be >= 1, "
                f"got {self.checkpoint_ordinal!r}")
        if self.after_flushes < 1:
            raise ConfigurationError(
                f"after_flushes must be >= 1, got {self.after_flushes!r}")
        if self.at_log_flush is not None and self.at_log_flush < 1:
            raise ConfigurationError(
                f"at_log_flush must be >= 1, got {self.at_log_flush!r}")

    @property
    def empty(self) -> bool:
        """Whether no trigger is armed at all."""
        return (self.at_time is None and self.after_writes is None
                and self.at_phase is None and self.at_log_flush is None)


@dataclass(frozen=True)
class IOFaultSpec:
    """Transient backup-disk misbehaviour.

    A request failing a transient check is retried after an exponential
    backoff (``backoff_base * 2**k``, capped at ``backoff_cap``); each
    failed attempt also re-occupies the disk for one full service time.
    A request that fails ``max_retries + 1`` times raises
    :class:`~repro.errors.MediaError`.
    """

    #: per-attempt transient failure probability
    error_rate: float = 0.0
    #: retries after the initial attempt before giving up
    max_retries: int = 4
    #: first retry delay, seconds; doubles per further retry
    backoff_base: float = 0.002
    #: ceiling on a single backoff delay, seconds
    backoff_cap: float = 0.25
    #: probability a request suffers a latency spike (no failure)
    latency_spike_rate: float = 0.0
    #: added delay of one spike, seconds
    latency_spike: float = 0.05

    def __post_init__(self) -> None:
        for name in ("error_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {rate!r}")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries!r}")
        for name in ("backoff_base", "backoff_cap", "latency_spike"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {value!r}")

    @property
    def empty(self) -> bool:
        return self.error_rate == 0.0 and self.latency_spike_rate == 0.0

    def backoff_delay(self, retry_index: int) -> float:
        """Delay before retry ``retry_index`` (0-based), seconds."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** retry_index))


@dataclass(frozen=True)
class FaultPlan:
    """Everything one run's fault injection does, declaratively.

    An armed plan with all-empty specs is legal: the injector then only
    counts disk writes and log flushes, injecting nothing.
    """

    #: seed of the plan's private RNG stream (fault draws, torn cuts)
    seed: int = 0
    crash: Optional[CrashSpec] = None
    #: tear segment writes that are in flight when the crash hits
    torn_writes: bool = False
    io: IOFaultSpec = field(default_factory=IOFaultSpec)

    # ------------------------------------------------------------------
    # serialisation (sweepable / CLI friendly)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering; ``from_dict`` round-trips it."""
        out: Dict[str, Any] = {"seed": self.seed,
                               "torn_writes": self.torn_writes}
        if self.crash is not None:
            out["crash"] = asdict(self.crash)
        if not self.io.empty:
            out["io"] = asdict(self.io)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (strict keys)."""
        known = {"seed", "torn_writes", "crash", "io"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown FaultPlan keys: {sorted(unknown)!r}")
        crash = data.get("crash")
        io = data.get("io")
        return cls(
            seed=int(data.get("seed", 0)),
            torn_writes=bool(data.get("torn_writes", False)),
            crash=CrashSpec(**crash) if crash is not None else None,
            io=IOFaultSpec(**io) if io is not None else IOFaultSpec(),
        )

    def describe(self) -> str:
        """One human line, for reports and progress output."""
        parts = [f"seed={self.seed}"]
        crash = self.crash
        if crash is not None:
            if crash.at_time is not None:
                parts.append(f"crash@t={crash.at_time:g}s")
            if crash.after_writes is not None:
                parts.append(f"crash@write#{crash.after_writes}")
            if crash.at_phase is not None:
                parts.append(f"crash@{crash.at_phase}"
                             f"[ckpt {crash.checkpoint_ordinal}"
                             + (f", n={crash.after_flushes}"
                                if crash.at_phase in ("sweep", "paint")
                                else "")
                             + "]")
            if crash.at_log_flush is not None:
                parts.append(f"crash@logflush#{crash.at_log_flush}")
        if self.torn_writes:
            parts.append("torn")
        if self.io.error_rate:
            parts.append(f"io_err={self.io.error_rate:g}"
                         f"(r{self.io.max_retries})")
        if self.io.latency_spike_rate:
            parts.append(f"spike={self.io.latency_spike_rate:g}")
        return " ".join(parts)
