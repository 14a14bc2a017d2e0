"""Ping-pong backup images (paper Section 2.6).

Two complete database images live on the backup disks.  Each checkpoint
updates exactly one of them, and successive checkpoints alternate, so at
every instant at least one image is complete -- a crash in the middle of a
checkpoint corrupts only the image being written.

Partial checkpoints interact subtly with ping-pong: a segment flushed by
checkpoint *k* (image A) but not by checkpoint *k+1* (image B) would leave
image B stale for that segment, and recovery from B replays the log only
from B's begin marker -- too late to repair it.  The segment therefore
stays "dirty **for image B**" until B itself has flushed it.  We implement
this with per-image flush timestamps: a segment must be written to image
*I* whenever its update timestamp exceeds the time *I* last flushed it.
This is the per-image generalisation of the paper's single dirty bit, and
the crash-recovery property tests prove it is exactly what correctness
requires.

Images store values durably: they survive :meth:`BackupStore.crash` (only
in-flight write completions are lost, handled by the simulator cancelling
their events).  An image's record values are one int64 array beside its
checkpointing metadata; *when* a segment write lands is the business of
the checkpointer's :class:`~repro.sim.ports.ImageWriter`, *that* it
landed is :meth:`BackupImage.write_segment`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import InvalidStateError, RecoveryError
from ..params import SystemParameters


class BackupImage:
    """One of the two on-disk database images."""

    def __init__(self, index: int, params: SystemParameters) -> None:
        self.index = index
        self.params = params
        #: the image's record values
        self.values = np.zeros(params.n_records, dtype=np.int64)
        #: per-segment time of the last completed write into this image
        self.segment_flush_time = np.full(params.n_segments, -np.inf)
        #: whether the segment has ever been written to this image
        self.segment_present = np.zeros(params.n_segments, dtype=bool)
        #: id of the last checkpoint that *completed* on this image
        self.completed_checkpoint_id: Optional[int] = None
        #: time the last completed checkpoint on this image *began*
        self.completed_checkpoint_begin: float = -np.inf
        #: LSN of that checkpoint's begin marker (0 = unknown).  Log
        #: truncation must never pass the *older* image's marker: if the
        #: newer image is lost to a media failure, recovery falls back to
        #: this one and replays from here.
        self.completed_begin_lsn: int = 0
        #: id of a checkpoint currently writing this image, if any
        self.active_checkpoint_id: Optional[int] = None

    # -- checkpoint lifecycle -------------------------------------------------
    def begin_checkpoint(self, checkpoint_id: int) -> None:
        if self.active_checkpoint_id is not None:
            raise InvalidStateError(
                f"image {self.index} already has active checkpoint "
                f"{self.active_checkpoint_id}"
            )
        self.active_checkpoint_id = checkpoint_id

    def complete_checkpoint(self, checkpoint_id: int, began_at: float,
                            begin_lsn: int = 0) -> None:
        if self.active_checkpoint_id != checkpoint_id:
            raise InvalidStateError(
                f"image {self.index}: completing checkpoint {checkpoint_id} "
                f"but active is {self.active_checkpoint_id}"
            )
        self.active_checkpoint_id = None
        self.completed_checkpoint_id = checkpoint_id
        self.completed_checkpoint_begin = began_at
        self.completed_begin_lsn = begin_lsn

    def abandon_checkpoint(self) -> None:
        """A crash interrupted the checkpoint writing this image."""
        self.active_checkpoint_id = None

    @property
    def is_complete(self) -> bool:
        """Whether this image holds a completed checkpoint."""
        return self.completed_checkpoint_id is not None

    # -- segment I/O ----------------------------------------------------------
    def write_segment(self, segment_index: int, data: np.ndarray,
                      flush_time: float) -> None:
        """Record the completion of a segment write into this image."""
        if data.shape != (self.params.records_per_segment,):
            raise InvalidStateError(
                f"segment {segment_index}: expected "
                f"{self.params.records_per_segment} records, got {data.shape}"
            )
        first = segment_index * self.params.records_per_segment
        self.values[first:first + len(data)] = data
        self.segment_flush_time[segment_index] = flush_time
        self.segment_present[segment_index] = True

    def tear_segment_prefix(self, segment_index: int,
                            prefix: np.ndarray) -> None:
        """A power loss mid-write: only ``prefix`` words actually landed.

        The image's *data* is physically overwritten for the prefix, but
        the flush timestamp and presence bit are NOT updated -- the disk
        never acknowledged the write, so the checkpointing layer still
        treats the segment as stale here.  Recovery correctness rests on
        never reading this image for that segment (the ping-pong
        guarantee); the fault-injection tests exist to prove exactly
        that.
        """
        words = len(prefix)
        if not 0 < words < self.params.records_per_segment:
            raise InvalidStateError(
                f"torn prefix must be a strict, non-empty prefix of a "
                f"segment ({words!r} of {self.params.records_per_segment})")
        first = segment_index * self.params.records_per_segment
        self.values[first:first + words] = prefix

    def read_segment(self, segment_index: int) -> np.ndarray:
        """Read one segment back (recovery path)."""
        if not self.segment_present[segment_index]:
            raise RecoveryError(
                f"image {self.index} never received segment {segment_index}"
            )
        words = self.params.records_per_segment
        first = segment_index * words
        return self.values[first:first + words].copy()

    # -- staleness ---------------------------------------------------------------
    def needs_segment(self, segment_index: int,
                      segment_timestamp: float) -> bool:
        """Whether the segment is stale in this image.

        True when the segment was updated after the image last flushed it,
        or was never flushed at all.  This is the partial-checkpoint flush
        test (the per-image dirty "bit").
        """
        if not self.segment_present[segment_index]:
            return True
        return segment_timestamp > self.segment_flush_time[segment_index]

    def values_snapshot(self) -> np.ndarray:
        return self.values.copy()


class BackupStore:
    """The pair of ping-pong images plus alternation bookkeeping."""

    def __init__(self, params: SystemParameters) -> None:
        self.params = params
        self.images = (BackupImage(0, params), BackupImage(1, params))
        self._next_image = 0

    def image(self, index: int) -> BackupImage:
        if index not in (0, 1):
            raise InvalidStateError(f"image index must be 0 or 1, got {index!r}")
        return self.images[index]

    def acquire_image_for_checkpoint(self, checkpoint_id: int) -> BackupImage:
        """Claim the next image in ping-pong order for ``checkpoint_id``."""
        image = self.images[self._next_image]
        image.begin_checkpoint(checkpoint_id)
        self._next_image = 1 - self._next_image
        return image

    def latest_complete_image(self) -> Optional[BackupImage]:
        """The complete image with the most recent checkpoint, if any."""
        complete = [img for img in self.images if img.is_complete]
        if not complete:
            return None
        return max(complete,
                   key=lambda img: img.completed_checkpoint_id or -1)

    def crash(self) -> None:
        """A system failure: abandon any in-progress checkpoint.

        Image *contents* are on disk and survive; only the notion of an
        active checkpoint (volatile checkpointer state) is lost.
        """
        for image in self.images:
            image.abandon_checkpoint()

    def media_failure(self, index: int) -> BackupImage:
        """Destroy one backup image (a secondary-media failure, §2.7).

        The image's contents and completion metadata are gone; the
        per-image staleness rule then treats every segment as missing, so
        the next checkpoint that lands on this image rewrites it in full
        -- the "repair" the paper notes is easy because the lost data is
        still in primary memory.

        Raises:
            InvalidStateError: if a checkpoint is actively writing the
                image (stop it first; a real array would fail the writes).
        """
        image = self.image(index)
        if image.active_checkpoint_id is not None:
            raise InvalidStateError(
                f"image {index} is being written by checkpoint "
                f"{image.active_checkpoint_id}; cannot fail it mid-write"
            )
        image.values[:] = 0
        image.segment_flush_time[:] = -np.inf
        image.segment_present[:] = False
        image.completed_checkpoint_id = None
        image.completed_checkpoint_begin = -np.inf
        image.completed_begin_lsn = 0
        return image
