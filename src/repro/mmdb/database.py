"""The primary (memory-resident) database.

Records are 64-bit integers indexed ``0 .. n_records-1``; the value array
is one numpy array, segment ``i`` is a slice of it, and every segment's
checkpoint metadata lives in one
:class:`~repro.mmdb.segment.SegmentTable` addressed by segment index
(see :mod:`repro.mmdb.segment`).  Integer record values are sufficient
for the reproduction: the paper's algorithms never interpret record
contents, only move them, and integers make state digests and equality
checks exact.

Sizes come from :class:`repro.params.SystemParameters`; a scaled-down
parameter set (``SystemParameters.scaled_down``) keeps simulation runs
cheap while preserving the paper's record/segment ratios.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressError, InvalidStateError
from ..params import SystemParameters
from .segment import SegmentTable


class Database:
    """A segmented array of integer records, with per-segment metadata."""

    def __init__(self, params: SystemParameters) -> None:
        self.params = params
        self.n_records = params.n_records
        self.n_segments = params.n_segments
        self.records_per_segment = params.records_per_segment
        self._values = np.zeros(self.n_records, dtype=np.int64)
        #: struct-of-arrays metadata store, indexed by segment
        self.table = SegmentTable(self.n_segments)

    # -- addressing ---------------------------------------------------------
    def _check_record(self, record_id: int) -> None:
        if not 0 <= record_id < self.n_records:
            raise AddressError(
                f"record {record_id} out of range [0, {self.n_records})"
            )

    def segment_index_of(self, record_id: int) -> int:
        """The index of the segment containing ``record_id``."""
        self._check_record(record_id)
        return record_id // self.records_per_segment

    def segment_values(self, index: int) -> np.ndarray:
        """A *view* of segment ``index``'s record values."""
        if not 0 <= index < self.n_segments:
            raise AddressError(
                f"segment {index} out of range [0, {self.n_segments})"
            )
        first = index * self.records_per_segment
        return self._values[first:first + self.records_per_segment]

    def load_segment(self, index: int, data: np.ndarray) -> None:
        """Overwrite segment ``index``'s records (used by recovery)."""
        if data.shape != (self.records_per_segment,):
            raise InvalidStateError(
                f"segment {index} expects {self.records_per_segment} "
                f"records, got shape {data.shape}"
            )
        self.segment_values(index)[:] = data

    # -- record access --------------------------------------------------------
    def read_record(self, record_id: int) -> int:
        """Current value of ``record_id``."""
        self._check_record(record_id)
        return int(self._values[record_id])

    def install_record(self, record_id: int, value: int, *,
                       timestamp: float, lsn: int) -> None:
        """Install a committed update (shadow-copy install, Section 2.6).

        Overwrites the old value, marks the containing segment dirty and
        advances its timestamp tau(S) and its reflected LSN (callers
        charge the lock/LSN costs).
        """
        if not 0 <= record_id < self.n_records:
            raise AddressError(
                f"record {record_id} out of range [0, {self.n_records})"
            )
        index = record_id // self.records_per_segment
        self._values[record_id] = value
        table = self.table
        table.dirty[index] = True
        if timestamp > table.timestamp[index]:
            table.timestamp[index] = timestamp
        if lsn > table.lsn[index]:
            table.lsn[index] = lsn

    def check_record_ids(self, record_ids: np.ndarray) -> None:
        """Raise :class:`AddressError` unless every id is a record's."""
        bad = (record_ids < 0) | (record_ids >= self.n_records)
        if bad.any():
            raise AddressError(
                f"record {record_ids[bad][0]} out of range "
                f"[0, {self.n_records})"
            )

    def install_records(self, record_ids: np.ndarray, values: np.ndarray, *,
                        timestamp: float, first_lsn: int) -> None:
        """Install one transaction's updates at once.

        Exactly the effect of :meth:`install_record` called in order on
        each ``(record_ids[i], values[i])`` with LSN ``first_lsn + i``,
        except that a bad id raises before anything is written.
        """
        self.check_record_ids(record_ids)
        # numpy leaves the winner of a repeated-index assignment
        # unspecified; the loop's winner is the last write.  np.unique
        # indexes the first occurrence, so look from the back.
        targets, latest = np.unique(record_ids[::-1], return_index=True)
        self._values[targets] = values[::-1][latest]
        segments = record_ids // self.records_per_segment
        table = self.table
        table.dirty[segments] = True
        np.maximum.at(table.timestamp, segments, timestamp)
        np.maximum.at(table.lsn, segments,
                      np.arange(first_lsn, first_lsn + record_ids.size))

    # -- copy-on-update support ---------------------------------------------
    def save_old_copy(self, index: int) -> np.ndarray:
        """Save segment ``index``'s pre-update snapshot (COU Figure 3.2).

        The copy is taken "including timestamp" (Figure 3.2): the saved
        tau is the segment's *current* tau(S), i.e. the last update before
        the checkpoint began -- the checkpointer's staleness test
        ``tau(OLD_SEG) > tau(OLDCH)`` compares against it.

        Raises:
            InvalidStateError: if an old copy already exists; the COU
                algorithm copies each segment at most once per checkpoint.
        """
        table = self.table
        if index in table.old_copies:
            raise InvalidStateError(
                f"segment {index} already has an old copy this checkpoint"
            )
        copy = self.segment_values(index).copy()
        table.old_copies[index] = copy
        table.old_copy_timestamp[index] = table.timestamp[index]
        table.old_copy_lsn[index] = table.lsn[index]
        return copy

    def drop_old_copy(self, index: int) -> None:
        """Release segment ``index``'s old copy (once it is flushed)."""
        table = self.table
        table.old_copies.pop(index, None)
        table.old_copy_timestamp[index] = 0.0
        table.old_copy_lsn[index] = 0

    # -- bulk access for recovery ---------------------------------------------
    def wipe(self) -> None:
        """Simulate loss of volatile memory: zero values, reset metadata."""
        self._values[:] = 0
        self.table.reset()

    # -- verification helpers --------------------------------------------------
    def values_snapshot(self) -> np.ndarray:
        """An independent copy of every record value."""
        return self._values.copy()

    def load_values(self, values: np.ndarray) -> None:
        """Take ``values`` as every record's value (recovery bulk load):
        a contiguous, writable int64 array becomes the database's own,
        uncopied (the caller hands it over); anything else is copied."""
        if values.shape != self._values.shape:
            raise AddressError(
                f"expected {self._values.shape} values, got {values.shape}"
            )
        self._values = np.require(values, np.int64, ["C", "W"])

    def state_digest(self) -> str:
        """A SHA-256 digest of all record values (order-sensitive)."""
        # imported here, by the simulator's only caller: hashlib maps
        # OpenSSL's libcrypto, which no serving process needs
        import hashlib
        return hashlib.sha256(self._values.tobytes()).hexdigest()

    def equals_values(self, other: np.ndarray) -> bool:
        """Whether the database's record values equal ``other`` exactly."""
        return bool(np.array_equal(self._values, other))

    def differing_records(self, other: np.ndarray,
                          limit: int = 10) -> list[int]:
        """Up to ``limit`` record ids whose values differ from ``other``."""
        mismatch = np.nonzero(self._values != other)[0]
        return [int(r) for r in mismatch[:limit]]

    def __len__(self) -> int:
        return self.n_segments
