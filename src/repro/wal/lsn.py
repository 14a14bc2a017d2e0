"""Log sequence numbers.

LSNs totally order log records.  The checkpointing algorithms use them for
exactly one purpose (Section 3.1): deciding whether a segment image is
safe to flush -- safe iff the stable log already contains every update the
image reflects, i.e. ``segment.lsn <= stable_lsn``.

``C_lsn`` instructions are charged whenever an LSN is maintained (a
transaction update stamping its segment) or checked (the checkpointer
testing the flush condition); the charging is done by the callers, which
know whether the work is synchronous or asynchronous.
"""

from __future__ import annotations

from ..errors import InvalidStateError


class LSNAllocator:
    """Monotonic LSN source.  LSN 0 means "no updates reflected"."""

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise InvalidStateError(f"LSN cannot start below zero ({start!r})")
        self._next = start + 1

    def allocate(self) -> int:
        """Return the next LSN (strictly increasing, starting at 1)."""
        lsn = self._next
        self._next += 1
        return lsn

    def allocate_many(self, n: int) -> int:
        """Allocate ``n`` consecutive LSNs at once; return the last."""
        self._next += n
        return self._next - 1

    @property
    def last_allocated(self) -> int:
        """The most recently allocated LSN (0 if none yet)."""
        return self._next - 1
