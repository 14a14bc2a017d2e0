"""Segments: the unit of transfer between primary memory and backup disks.

Per-segment checkpoint metadata lives in a :class:`SegmentTable` -- a
struct-of-arrays store (one numpy array per field, indexed by segment
id).  The fields are the ones the checkpoint algorithms of Section 3
manipulate:

* ``dirty`` -- set by transaction updates, cleared by the checkpointer;
  enables *partial* checkpoints (only dirty segments are flushed).
* ``painted_black`` -- the two-color paint bit of Pu's algorithm: black
  segments have already been included in the current checkpoint.
* ``timestamp`` -- tau(S), the timestamp of the most recent transaction to
  update the segment (copy-on-update algorithms).
* ``old_copy`` -- p(S), the pointer to a saved pre-checkpoint copy of the
  segment's data, created by the first transaction to update it after a
  copy-on-update checkpoint began (sparse: held in a dict, since only a
  handful of segments carry one at any instant).
* ``old_copy_timestamp`` -- tau of the saved copy (the figure-3.3 test
  ``tau(OLD_SEG) > tau(OLDCH)`` needs it).
* ``lsn`` -- the LSN of the latest update reflected in the segment, used
  by FUZZYCOPY/2C/COU-style algorithms to respect the write-ahead rule.

A segment is addressed by its index alone: checkpointers, the
transaction manager's coordinator hooks and recovery read and write the
table's arrays at that index, so there is one copy of every field and
the scans -- the dirty set, the two-color paint reset, a post-crash
wipe -- are single vectorised numpy operations.

Record *values* are held in one numpy array owned by the
:class:`~repro.mmdb.database.Database`; segment ``i`` is the slice
``[i * records_per_segment, (i + 1) * records_per_segment)`` of it
(:meth:`~repro.mmdb.database.Database.segment_values`), so taking a copy
of a segment is a single vectorised operation.  The database also takes
and releases the copy-on-update old copies, since it owns the values.
"""

from __future__ import annotations

import numpy as np


class SegmentTable:
    """Struct-of-arrays store for every segment's checkpoint metadata."""

    __slots__ = ("n_segments", "dirty", "painted_black", "timestamp", "lsn",
                 "old_copy_timestamp", "old_copy_lsn", "old_copies")

    def __init__(self, n_segments: int) -> None:
        self.n_segments = n_segments
        self.dirty = np.zeros(n_segments, dtype=bool)
        self.painted_black = np.zeros(n_segments, dtype=bool)
        self.timestamp = np.zeros(n_segments, dtype=np.float64)
        self.lsn = np.zeros(n_segments, dtype=np.int64)
        self.old_copy_timestamp = np.zeros(n_segments, dtype=np.float64)
        self.old_copy_lsn = np.zeros(n_segments, dtype=np.int64)
        #: sparse old-copy data: segment id -> saved value snapshot
        self.old_copies: dict[int, np.ndarray] = {}

    # -- vectorised scans ---------------------------------------------------
    def dirty_indices(self) -> list[int]:
        """Ids of all dirty segments, ascending (one vectorised scan)."""
        return np.flatnonzero(self.dirty).tolist()

    def clear_paint(self) -> None:
        """Paint every segment white (two-color begin / crash reset)."""
        self.painted_black[:] = False

    def mark_all_dirty(self) -> None:
        """Set every dirty bit (post-recovery conservative restamp)."""
        self.dirty[:] = True

    def reset(self) -> None:
        """Forget all metadata (loss of volatile memory)."""
        self.dirty[:] = False
        self.painted_black[:] = False
        self.timestamp[:] = 0.0
        self.lsn[:] = 0
        self.old_copy_timestamp[:] = 0.0
        self.old_copy_lsn[:] = 0
        self.old_copies.clear()
