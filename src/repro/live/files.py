"""The live host's one door to the filesystem.

Every file operation of :mod:`repro.live` goes through a :class:`Files`
port, so the two POSIX durability disciplines the host relies on are
written here once:

* **sync before anything depends on the bytes** -- :meth:`Files.sync`
  flushes a file's buffer and fsyncs it; a caller acknowledges nothing
  the sync did not cover;
* **replace atomically** -- :meth:`Files.replace` writes a temp file,
  syncs it, renames it over the target and fsyncs the directory, so at
  every instant the target names either the old or the new contents,
  and the new ones survive a crash once ``replace`` returns.

``Files(sync=False)`` skips every fsync (file and directory) and
nothing else: the bytes, the renames and their order are the same.
Tests substitute an in-memory double (``tests/memfiles.py``) that
overrides every method but :meth:`~Files.replace`, so the sequence they
crash the host in is this one.

``os.fsync`` is looked up on the ``os`` module at every call, on the
file's own descriptor, so an interposed ``os.fsync`` sees each one.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable, Optional

__all__ = ["Files", "temp_path"]


def temp_path(path: Path) -> Path:
    """Where :meth:`Files.replace` stages ``path``'s new contents (a
    leftover one is a crash mid-replace: its owner removes it on
    open)."""
    return path.with_name(path.name + ".tmp")


class Files:
    """The real filesystem, with fsync (``sync=True``) or without."""

    def __init__(self, sync: bool = True) -> None:
        #: whether :meth:`sync` and :meth:`sync_directory` fsync
        self.syncing = sync

    def exists(self, path: Path) -> bool:
        return path.exists()

    def read(self, path: Path) -> bytes:
        return path.read_bytes()

    def open_read(self, path: Path) -> BinaryIO:
        """``path`` opened for reading (a reader that must not hold a
        whole file reads it through this, a piece at a time)."""
        return open(path, "rb")

    def read_range(self, path: Path, offset: int, size: int) -> bytes:
        """``size`` bytes of ``path`` from byte ``offset`` on (fewer
        where the file ends first)."""
        with open(path, "rb") as file:
            file.seek(offset)
            return file.read(size)

    def open_append(self, path: Path) -> BinaryIO:
        """``path`` opened for appending, created (with its directory)
        if missing."""
        return self._open(path, "ab")

    def size(self, file: BinaryIO) -> int:
        """The size of the open ``file`` on disk."""
        return os.fstat(file.fileno()).st_size

    def sync(self, file: BinaryIO) -> int:
        """Flush ``file``'s buffer and fsync it; return the fsyncs
        issued (0 with sync off)."""
        file.flush()
        return self._fsync(file.fileno())

    def truncate(self, file: BinaryIO, size: int) -> None:
        """Cut the open ``file`` to ``size`` bytes (durable after
        :meth:`sync`)."""
        file.truncate(size)

    def remove(self, path: Path) -> None:
        """Unlink ``path`` if it exists."""
        path.unlink(missing_ok=True)

    def sync_directory(self, directory: Path) -> None:
        """Fsync ``directory``, making the creations and renames in it
        durable (POSIX: the entry itself may not survive otherwise)."""
        fd = os.open(directory, os.O_RDONLY)
        try:
            self._fsync(fd)
        finally:
            os.close(fd)

    def replace(self, path: Path, write: Callable[[BinaryIO], None],
                before_rename: Optional[Callable[[], None]] = None) -> int:
        """Durably replace ``path`` with what ``write`` writes.

        Temp file, ``write(file)``, sync, ``before_rename()``,
        ``os.replace``, directory fsync.  A failure before the rename
        leaves ``path`` as it was.  Returns the file fsyncs issued (the
        temp file's; 0 with sync off).
        """
        tmp = temp_path(path)
        with self._open(tmp, "wb") as file:
            write(file)
            synced = self.sync(file)
        if before_rename is not None:
            before_rename()
        self._rename(tmp, path)
        self.sync_directory(path.parent)
        return synced

    def _fsync(self, fd: int) -> int:
        """The one place sync off is decided: fsync ``fd`` unless it is;
        return the fsyncs issued."""
        if not self.syncing:
            return 0
        os.fsync(fd)
        return 1

    # -- replace's own steps (an in-memory port overrides these) ------------
    def _open(self, path: Path, mode: str) -> BinaryIO:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, mode)

    def _rename(self, source: Path, target: Path) -> None:
        os.replace(source, target)
