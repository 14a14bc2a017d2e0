"""Durable checkpoint images, installed by atomic rename.

The simulator's ping-pong image pair exists because a crash *during* a
checkpoint must not destroy the only complete image (paper Section 2.2).
A POSIX filesystem offers a cheaper way to get the same guarantee for
the live host: write the new image to a temporary file, fsync it, then
``os.replace`` it over the current one.  At every instant the
``checkpoint.npz`` path names a complete, internally-consistent image --
either the old checkpoint or the new one, never a torn hybrid -- so a
single image file plays the role of the pair.

The install path takes an optional ``hold`` callback invoked at the two
phase boundaries (``"pre-install"``: image fully written but the rename
not yet done; ``"post-install"``: renamed but the caller's end-marker /
truncation work still pending).  The crash tests park there and SIGKILL
the process, which is how the suite proves each boundary is recoverable.
"""

from __future__ import annotations

import os
import zipfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib import format as npy

__all__ = ["ImageStore", "StoredImage"]


class StoredImage(NamedTuple):
    """One loaded checkpoint image."""

    #: id of the checkpoint that wrote the image
    checkpoint_id: int
    #: the stable-log horizon the image reflects; REDO replays records
    #: with LSN > base_lsn (earlier ones are already in the image)
    base_lsn: int
    #: every record value at the checkpoint instant
    values: np.ndarray


class ImageStore:
    """A single atomically-replaced checkpoint image in a directory."""

    FILENAME = "checkpoint.npz"

    def __init__(self, directory: os.PathLike, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.fsync_enabled = fsync
        #: completed installs this process performed
        self.installs = 0

    def install(self, checkpoint_id: int, base_lsn: int, values: np.ndarray,
                hold: Optional[Callable[[str], None]] = None) -> None:
        """Durably replace the current image with ``values``.

        Safe to call from a writer thread: nothing here touches shared
        kernel state, and the rename is the single commit point.  The
        file is the ``.npz`` :func:`numpy.savez` writes, but each array
        goes into the archive straight from its own buffer: ``savez``
        stages a zip member through 16 MiB ``bytes`` copies, which made
        a checkpoint's transient memory the snapshot *plus* half of it
        again at the live host's largest scale.
        """
        tmp = self.directory / (self.FILENAME + ".tmp")
        arrays = {"values": np.ascontiguousarray(values),
                  "meta": np.array([checkpoint_id, base_lsn], dtype=np.int64)}
        with open(tmp, "wb") as file:
            with zipfile.ZipFile(file, "w", zipfile.ZIP_STORED,
                                 allowZip64=True) as archive:
                for name, array in arrays.items():
                    with archive.open(name + ".npy", "w",
                                      force_zip64=True) as member:
                        npy.write_array_header_1_0(
                            member, npy.header_data_from_array_1_0(array))
                        member.write(memoryview(array).cast("B"))
            file.flush()
            if self.fsync_enabled:
                os.fsync(file.fileno())
        if hold is not None:
            hold("pre-install")
        os.replace(tmp, self.path)
        if self.fsync_enabled:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self.installs += 1
        if hold is not None:
            hold("post-install")

    def load(self) -> Optional[StoredImage]:
        """The current image, or None before the first checkpoint.

        A leftover ``.tmp`` from a crash mid-install is ignored (and
        removed): the rename never happened, so the previous image is
        still the truth.
        """
        tmp = self.directory / (self.FILENAME + ".tmp")
        if tmp.exists():
            tmp.unlink()
        if not self.path.exists():
            return None
        with np.load(self.path) as data:
            meta = data["meta"]
            return StoredImage(checkpoint_id=int(meta[0]),
                               base_lsn=int(meta[1]),
                               values=data["values"].copy())
