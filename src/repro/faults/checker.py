"""Crash-consistency verification: run, crash, recover, compare.

The :class:`CrashConsistencyChecker` closes the loop the fault plans
open: it executes one simulation under an armed
:class:`~repro.faults.plan.FaultPlan`, completes whatever failure the
plan injects (or pulls the plug itself at end of run, so every checked
run exercises recovery), recovers from backup image + stable log, and
compares the recovered database record-by-record against the
:class:`~repro.sim.oracle.CommittedStateOracle` -- the independent
shadow of exactly the durably-committed transactions.

The checker deliberately catches only :class:`~repro.errors.CrashError`
(the injected failure it asked for) and :class:`~repro.errors.MediaError`
(exhausted retries, a legitimate fault outcome).  Anything else --
notably :class:`~repro.errors.WALViolation` -- propagates: a fault plan
must never be able to coax the system into breaking the write-ahead
rule, and the crash-matrix tests rely on that propagation.

For transaction-consistent algorithms the checker additionally verifies
the stronger paper property: the recovered state must equal the oracle
state *exactly*, and for runs that crash mid-checkpoint, recovery must
have fallen back to a checkpoint whose backup image was complete.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..api import build_system
from ..errors import CrashError, MediaError
from ..params import SystemParameters
from ..sim.system import SimulatedSystem
from .plan import FaultPlan


@dataclass
class FaultRunReport:
    """One checked run: what was injected, what survived.

    ``ok`` is the headline: recovery reproduced the committed state
    exactly.  Everything else is forensics for when it did not (or for
    the determinism tests, which compare whole reports byte for byte
    via :meth:`to_dict`).
    """

    algorithm: str
    plan: Dict[str, Any]
    system_seed: int
    duration: float
    #: did an injected trigger crash the run (vs. the checker's own
    #: end-of-run plug pull)?
    crashed_by_fault: bool = False
    crash_trigger: Optional[str] = None
    #: simulated time at which the machine died
    crash_time: float = 0.0
    #: retry exhaustion, if the run died of one (abort taxonomy)
    media_error: Optional[str] = None
    media_disk: Optional[str] = None
    media_attempts: int = 0
    #: recovery outcome
    used_checkpoint_id: Optional[int] = None
    used_image: Optional[int] = None
    transactions_replayed: int = 0
    updates_applied: int = 0
    modelled_recovery_time: float = 0.0
    #: committed transactions the oracle holds the system accountable for
    durable_commits: int = 0
    checkpoints_completed: int = 0
    #: record-level divergences (empty = recovery verified)
    mismatches: List[Dict[str, int]] = field(default_factory=list)
    #: the injector's fault ledger (retries, backoff, torn segments...)
    counters: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Recovery ran and reproduced the committed state exactly."""
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON rendering; deterministic for a fixed (plan, seed)."""
        return {**asdict(self), "ok": self.ok}

    def summary(self) -> str:
        """One human line per checked run (CLI report rows)."""
        cause = (self.crash_trigger if self.crashed_by_fault
                 else "media" if self.media_error else "end-of-run")
        verdict = "OK" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (f"{self.algorithm:<10} crash={cause:<12} "
                f"t={self.crash_time:8.4f}s ckpt={self.used_checkpoint_id!s:>4} "
                f"replayed={self.transactions_replayed:>5} "
                f"recovery={self.modelled_recovery_time:7.3f}s {verdict}")


class CrashConsistencyChecker:
    """Runs fault plans to completion and verifies recovery each time."""

    def __init__(
        self,
        params: Optional[SystemParameters] = None,
        *,
        duration: float = 10.0,
        checkpoint_interval: Optional[float] = 1.0,
        telemetry: bool = False,
        mismatch_limit: int = 10,
        **system_args: Any,
    ) -> None:
        """
        Args:
            params: the system under test; ``None`` sizes it from
                ``scale=`` / ``lam=`` in ``system_args``.
            duration: simulated seconds to run before the checker pulls
                the plug itself (plans may crash earlier).
            checkpoint_interval: periodic checkpoint spacing; ``None``
                checkpoints back to back.
            telemetry: collect the run's telemetry into the report's
                system (fault counters are always reported regardless).
            mismatch_limit: at most this many record divergences are
                carried in a report.
            **system_args: any further :func:`repro.api.build_system`
                argument or :class:`SimulationConfig` field
                (``algorithm``/``seed``/``fault_plan`` are owned by
                :meth:`run` and must not appear here).
        """
        clash = {"algorithm", "seed", "fault_plan"} & set(system_args)
        if clash:
            raise TypeError(f"reserved config fields: {sorted(clash)!r}")
        self.duration = duration
        self.mismatch_limit = mismatch_limit
        # Backups start cold: a plan may crash the run before the first
        # complete image exists, and recovery has to win that cell too.
        self.system_args = {
            "params": params, "interval": checkpoint_interval,
            "telemetry": telemetry, "preload_backup": False, **system_args}

    def build_system(self, algorithm: str, plan: FaultPlan,
                     seed: int = 0) -> SimulatedSystem:
        return build_system(algorithm, seed=seed, fault_plan=plan,
                            **self.system_args)

    def run(self, algorithm: str, plan: FaultPlan,
            seed: int = 0) -> FaultRunReport:
        """Execute one (algorithm, plan, seed) cell and verify recovery."""
        system = self.build_system(algorithm, plan, seed)
        report = FaultRunReport(
            algorithm=system.checkpointer.name, plan=plan.to_dict(),
            system_seed=seed, duration=self.duration)
        try:
            system.run(self.duration)
        except CrashError as exc:
            report.crashed_by_fault = True
            report.crash_trigger = exc.trigger
        except MediaError as exc:
            report.media_error = str(exc)
            report.media_disk = exc.disk
            report.media_attempts = exc.attempts
        report.crash_time = system.engine.now
        # Whatever happened above, the machine now dies: volatile state
        # is lost, in-flight writes may tear, and recovery must win.
        system.crash()
        result = system.recover()
        report.used_checkpoint_id = result.used_checkpoint_id
        report.used_image = result.used_image
        report.transactions_replayed = result.transactions_replayed
        report.updates_applied = result.updates_applied
        report.modelled_recovery_time = result.total_time
        report.durable_commits = system.oracle.durable_commits
        report.checkpoints_completed = len(system.checkpointer.history)
        report.mismatches = [
            mm._asdict()
            for mm in system.verify_recovery(limit=self.mismatch_limit)]
        report.counters = system.faults.counters()
        return report

    def check(self, algorithm: str, plan: FaultPlan,
              seed: int = 0) -> FaultRunReport:
        """Like :meth:`run` but raises on a survival failure."""
        report = self.run(algorithm, plan, seed)
        if not report.ok:
            lines = "; ".join(
                f"record {mm['record_id']}: expected {mm['expected']}, "
                f"recovered {mm['actual']}" for mm in report.mismatches)
            raise AssertionError(
                f"{algorithm} failed crash consistency under plan "
                f"[{plan.describe()}] seed={seed}: {lines}")
        return report
