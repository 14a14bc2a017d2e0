"""Checkpointing algorithms -- the paper's primary contribution (Section 3).

Six asynchronous checkpointers maintain the on-disk backup images:

======== ============ =============== ================================
name     consistency  segment source  synchronisation with transactions
======== ============ =============== ================================
FUZZYCOPY fuzzy       buffered copy   none (LSN test before flushing)
FASTFUZZY fuzzy       direct flush    none (requires stable log tail)
2CFLUSH   txn-consist direct flush    two-color aborts; lock across I/O
2CCOPY    txn-consist buffered copy   two-color aborts; lock across copy
COUFLUSH  txn-consist direct flush    quiesce at begin; copy-on-update
COUCOPY   txn-consist buffered copy   quiesce at begin; copy-on-update
======== ============ =============== ================================

Every checkpointer supports **full** and **partial** scope (Section 3:
partial checkpoints back up only segments updated since the backup image
last saw them) and writes through the ping-pong image pair.
"""

from .._lazy import lazy_surface

# Every table name resolves through .registry, whose import loads all
# eleven algorithm families: a bare ``import repro.checkpoint`` (the live
# host's, for the scheduler) loads none of them.
__getattr__, __dir__ = lazy_surface(__name__, {
    "ActionConsistentCopyCheckpointer": ".action_consistent",
    "ActionConsistentFlushCheckpointer": ".action_consistent",
    "BaseCheckpointer": ".base",
    "CheckpointRun": ".base",
    "CheckpointScope": ".base",
    "COUCopyCheckpointer": ".copy_on_update",
    "COUFlushCheckpointer": ".copy_on_update",
    "FastFuzzyCheckpointer": ".fuzzy",
    "FuzzyCopyCheckpointer": ".fuzzy",
    "NaiveLockCheckpointer": ".naive",
    "TwoColorCopyCheckpointer": ".two_color",
    "TwoColorFlushCheckpointer": ".two_color",
    "ALGORITHM_NAMES": ".registry",
    "ALL_ALGORITHM_NAMES": ".registry",
    "EXTENSION_NAMES": ".registry",
    "create_checkpointer": ".registry",
    "resolve_algorithm": ".registry",
    "CheckpointPolicy": ".scheduler",
    "CheckpointScheduler": ".scheduler",
    "CheckpointStats": ".scheduler",
})

__all__ = [
    "ALGORITHM_NAMES",
    "ALL_ALGORITHM_NAMES",
    "ActionConsistentCopyCheckpointer",
    "ActionConsistentFlushCheckpointer",
    "BaseCheckpointer",
    "CheckpointPolicy",
    "CheckpointRun",
    "CheckpointScheduler",
    "CheckpointScope",
    "CheckpointStats",
    "COUCopyCheckpointer",
    "COUFlushCheckpointer",
    "EXTENSION_NAMES",
    "FastFuzzyCheckpointer",
    "FuzzyCopyCheckpointer",
    "NaiveLockCheckpointer",
    "TwoColorCopyCheckpointer",
    "TwoColorFlushCheckpointer",
    "create_checkpointer",
    "resolve_algorithm",
]
