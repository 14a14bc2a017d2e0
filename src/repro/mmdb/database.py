"""The primary (memory-resident) database.

Records are 64-bit integers indexed ``0 .. n_records-1``; the value array
is one numpy array and segments hold views into it (see
:mod:`repro.mmdb.segment`).  Integer record values are sufficient for the
reproduction: the paper's algorithms never interpret record contents, only
move them, and integers make state digests and equality checks exact.

Sizes come from :class:`repro.params.SystemParameters`; a scaled-down
parameter set (``SystemParameters.scaled_down``) keeps simulation runs
cheap while preserving the paper's record/segment ratios.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from ..errors import AddressError
from ..params import SystemParameters
from .segment import Segment, SegmentTable


class Database:
    """A segmented array of integer records, with per-segment metadata."""

    def __init__(self, params: SystemParameters) -> None:
        self.params = params
        self.n_records = params.n_records
        self.n_segments = params.n_segments
        self.records_per_segment = params.records_per_segment
        self._values = np.zeros(self.n_records, dtype=np.int64)
        #: struct-of-arrays metadata store; the Segment objects are views
        self.table = SegmentTable(self.n_segments)
        self.segments = [
            Segment(
                index=i,
                first_record=i * self.records_per_segment,
                n_records=self.records_per_segment,
                values=self._values,
                table=self.table,
            )
            for i in range(self.n_segments)
        ]

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

    def segment_of(self, record_id: int) -> Segment:
        """The segment containing ``record_id``."""
        return self.segments[self.segment_index_of(record_id)]

    def segment(self, index: int) -> Segment:
        """The segment with index ``index``."""
        if not 0 <= index < self.n_segments:
            raise AddressError(
                f"segment {index} out of range [0, {self.n_segments})"
            )
        return self.segments[index]

    # -- record access --------------------------------------------------------
    def read_record(self, record_id: int) -> int:
        """Current value of ``record_id``."""
        self._check_record(record_id)
        return int(self._values[record_id])

    def install_record(self, record_id: int, value: int, *,
                       timestamp: float, lsn: int) -> Segment:
        """Install a committed update (shadow-copy install, Section 2.6).

        Overwrites the old value, marks the containing segment dirty,
        advances its timestamp tau(S) and its reflected LSN, and returns
        the segment (callers charge the lock/LSN costs).
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
        return self.segments[index]

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

    # -- bulk access for checkpointing / recovery -----------------------------
    def dirty_segments(self) -> Iterator[Segment]:
        """Segments whose dirty bit is set, in segment order.

        One vectorised mask scan; only the dirty segments' view objects
        are touched.
        """
        segments = self.segments
        return (segments[i] for i in self.table.dirty_indices())

    def wipe(self) -> None:
        """Simulate loss of volatile memory: zero values, reset metadata."""
        self._values[:] = 0
        self.table.reset()

    # -- verification helpers --------------------------------------------------
    def values_snapshot(self) -> np.ndarray:
        """An independent copy of every record value."""
        return self._values.copy()

    def load_values(self, values: np.ndarray) -> None:
        """Overwrite every record value (recovery bulk load)."""
        if values.shape != self._values.shape:
            raise AddressError(
                f"expected {self._values.shape} values, got {values.shape}"
            )
        self._values[:] = values

    def state_digest(self) -> str:
        """A SHA-256 digest of all record values (order-sensitive)."""
        return hashlib.sha256(self._values.tobytes()).hexdigest()

    def equals_values(self, other: np.ndarray) -> bool:
        """Whether the database's record values equal ``other`` exactly."""
        return bool(np.array_equal(self._values, other))

    def differing_records(self, other: np.ndarray,
                          limit: int = 10) -> list[int]:
        """Up to ``limit`` record ids whose values differ from ``other``."""
        mismatch = np.nonzero(self._values != other)[0]
        return [int(r) for r in mismatch[:limit]]

    # -- iteration ----------------------------------------------------------
    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return self.n_segments

    def record_values(self, record_ids: Iterable[int]) -> dict[int, int]:
        """Values of a set of records (test convenience)."""
        return {rid: self.read_record(rid) for rid in record_ids}
