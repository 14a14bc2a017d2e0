"""Crash recovery (paper Section 3.3).

After a system failure the primary database is gone.  Recovery rebuilds
it in two steps: read the most recent *complete* backup image into
memory, then replay the stable REDO log forward from that checkpoint's
begin marker, applying the updates of committed transactions.  The
checkpointer's only influence on this path is how much log there is to
read -- which is exactly the recovery-time model of Section 4.
"""

from .._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "RecordMismatch": ".replay",
    "RedoApplier": ".replay",
    "ReplayCounts": ".replay",
    "replay_records": ".replay",
    "RecoveryManager": ".restore",
    "RecoveryResult": ".restore",
})

__all__ = [
    "RecoveryManager",
    "RecoveryResult",
    "RecordMismatch",
    "RedoApplier",
    "ReplayCounts",
    "replay_records",
]
