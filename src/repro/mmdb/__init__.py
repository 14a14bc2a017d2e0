"""The memory-resident database substrate (paper Section 2.4, 2.6).

The primary database lives entirely in (simulated) volatile primary
memory.  It is an array of fixed-size **records** -- the granule of the
transaction interface -- grouped into fixed-size **segments**, the granule
of transfer to the backup disks.  Each segment carries the per-segment
state the checkpoint algorithms need: a dirty bit, a paint bit (two-color
algorithms), a timestamp and old-copy pointer (copy-on-update algorithms),
and the LSN of the latest update it reflects (for write-ahead-log checks).
That state lives in one struct-of-arrays table addressed by segment index.

Transactions use a shadow-copy update scheme (Section 2.6): updates live
in a transaction-local buffer until commit, then are installed by
overwriting the old record values.
"""

from .._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "Database": ".database",
    "LockManager": ".locks",
    "LockMode": ".locks",
    "ShadowBuffer": ".shadow",
})

__all__ = ["Database", "LockManager", "LockMode", "ShadowBuffer"]
