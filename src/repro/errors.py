"""Exception hierarchy for the checkpointing reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package-level failures with a single ``except`` clause
while still being able to distinguish the interesting sub-cases
(transaction aborts, WAL violations, recovery failures, ...).

The two-color abort (:class:`TwoColorViolation`) deserves a note: in the
paper, a transaction that touches both white (not yet checkpointed) and
black (already checkpointed) data during an active two-color checkpoint is
aborted and rerun.  The simulator models that control flow with this
exception -- the transaction manager catches it and schedules a rerun, so
user code normally never sees it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """A model or system parameter is missing, inconsistent, or out of range."""


class DatabaseError(ReproError):
    """Base class for errors raised by the in-memory database substrate."""


class AddressError(DatabaseError, IndexError):
    """A record or segment address is outside the database bounds."""


class LockError(DatabaseError):
    """A lock request could not be honoured (conflict or protocol misuse)."""


class TransactionError(ReproError):
    """Base class for transaction lifecycle errors."""


class TransactionAborted(TransactionError):
    """A transaction was aborted and (depending on policy) will be rerun.

    Attributes:
        reason: short machine-readable tag, e.g. ``"two-color"``.
    """

    def __init__(self, message: str, reason: str = "aborted") -> None:
        super().__init__(message)
        self.reason = reason


class TwoColorViolation(TransactionAborted):
    """A transaction accessed both white and black data during a 2C checkpoint."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="two-color")


class InvalidStateError(ReproError, RuntimeError):
    """An operation was attempted in a state where it is not permitted."""


class WALViolation(ReproError):
    """The write-ahead-log protocol was violated.

    Raised when a segment image would reach stable storage before the log
    records of updates it reflects are themselves stable.  A correct
    checkpointer never triggers this; the check exists so that the test
    suite can *prove* each algorithm respects WAL.
    """


class WALCorruptionError(ReproError):
    """A durable WAL file holds a frame that fits but does not check.

    A crash mid-flush can only tear the final frame of the file, and a
    torn frame is one that runs past the end of the file.  A frame that
    fits but fails its CRC (or breaks LSN continuity, or holds an
    undecodable entry) therefore means the file was damaged some other
    way (bit rot, manual editing, a foreign writer), and silently
    dropping the suffix would discard acknowledged commits; recovery
    must fail loudly instead.
    """


class WALFormatError(ReproError):
    """A data directory holds a WAL this version does not read.

    The JSON-line ``wal.jsonl`` of earlier versions, or a framed log of
    another format version.  Starting without it would serve a database
    missing every commit it holds, so it is refused by name instead.
    """


class WALFailedError(ReproError):
    """The durable WAL refused a flush because an earlier one failed.

    After a failed ``write``/``flush``/``fsync`` nobody knows what the
    file holds past its last completed flush: part of a frame, whole
    unacknowledged frames, or pages the kernel has already dropped.
    Encoding the tail again behind that would fuse or duplicate frames in
    a log that holds acknowledged commits, so the log fails stop: the
    first failure propagates as it is, and every later flush raises this
    error, chained to the original, without touching the file.
    """


class CheckpointError(ReproError):
    """A checkpointer reached an inconsistent internal state."""


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent primary database."""


class CrashError(ReproError):
    """Raised internally to unwind the simulator when a crash is injected.

    The fault-injection subsystem (:mod:`repro.faults`) raises this from
    inside an event callback the instant an armed trigger fires; it
    propagates out of :meth:`~repro.sim.engine.EventEngine.run` to the
    harness, which then performs :meth:`SimulatedSystem.crash`.

    Attributes:
        trigger: machine-readable cause, e.g. ``"time"``, ``"writes"``,
            ``"phase:sweep"``, or ``"log_flush"``.
    """

    def __init__(self, message: str, trigger: str = "crash") -> None:
        super().__init__(message)
        self.trigger = trigger


class MediaError(ReproError, IOError):
    """A backup-device request exhausted its transient-error retry budget.

    Raised by the disk layer when fault injection makes a request fail
    more times than the armed plan's ``max_retries`` allows.  Distinct
    from a *media failure* (the durable loss of a backup image, paper
    Section 2.7): a :class:`MediaError` is the device giving up on one
    I/O, after which the simulation run is aborted by the harness.

    Attributes:
        disk: name of the disk that gave up.
        attempts: how many attempts were made (initial try + retries).
    """

    def __init__(self, message: str, *, disk: str = "",
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.disk = disk
        self.attempts = attempts


class SweepError(ReproError):
    """One or more points of a parameter sweep failed after retry.

    The runner never lets a failing point kill the sweep; the failure is
    recorded in its cell.  Drivers that cannot tolerate holes (the
    figure generators) raise this via
    :meth:`repro.sweep.SweepResult.raise_failures`.
    """
