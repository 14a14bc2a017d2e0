"""An in-memory filesystem behind the live host's file port, that can
lose power between any two operations.

:class:`MemoryFiles` is a :class:`repro.live.files.Files` that keeps
its files in memory and models what a crash keeps:

* bytes written to a file stay volatile until the file is synced;
* a creation, rename or removal stays volatile until its directory is
  synced;
* :meth:`MemoryFiles.crash` returns the durable state as a new
  ``MemoryFiles``: for each directory a seeded prefix of its unsynced
  entry changes (in order, each one atomic), and for each file its
  synced bytes plus a seeded prefix of the appends made since.

Every operation -- each port call, and each ``write`` to an open file --
is a numbered step (a file opened by ``open_read`` is read in one step,
its open), and ``trace[k - 1]`` is step *k*'s label
(``"sync wal.log"``); each distinct label is stored once and the trace
refers to it, so a step costs the trace one list slot.  ``faults`` maps
a step number or a label to the ``OSError`` that step raises instead of
running (once; a label fires at its next match).  With ``crash_at=k``, step *k* and every later one
raise :class:`PowerLoss` and change nothing: the host runs on, but what
it does no longer reaches the disk, so :meth:`crash` afterwards is the
disk as the power cut left it.
"""

from __future__ import annotations

import errno
import random
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.live.files import Files

__all__ = ["MemoryFiles", "PowerLoss"]


class PowerLoss(OSError):
    """What every operation raises from the crash step on."""


class _Inode:
    """One file's contents, live and as of its last sync.

    A sync of an append-only file copies nothing: the synced contents
    are the first ``synced_length`` live bytes.  Only a change to those
    bytes -- an overwrite, a truncation below them, a reopen for
    writing -- first freezes them into ``frozen``, a copy that lasts
    until the next sync.
    """

    __slots__ = ("data", "synced_length", "frozen")

    def __init__(self, data: bytes = b"") -> None:
        #: the contents as the process sees them
        self.data = bytearray(data)
        #: the synced contents' length (they are a prefix of ``data``
        #: while ``frozen`` is None)
        self.synced_length = len(data)
        #: the synced contents, once ``data`` no longer starts with them
        self.frozen: Optional[bytes] = None

    def synced(self) -> bytes:
        """The contents as of the last sync."""
        if self.frozen is not None:
            return self.frozen
        return bytes(self.data[:self.synced_length])


#: one entry change: ``path`` now names ``inode`` (None: nothing), and
#: ``source`` (a rename's) names nothing
_Change = Tuple[Path, Optional[_Inode], Optional[Path]]


def _apply(names: Dict[Path, _Inode], change: _Change) -> None:
    path, inode, source = change
    if source is not None:
        names.pop(source, None)
    if inode is None:
        names.pop(path, None)
    else:
        names[path] = inode


class MemoryFile:
    """An open file: a position into one inode."""

    def __init__(self, files: "MemoryFiles", path: Path, inode: _Inode,
                 append: bool) -> None:
        self.files = files
        self.path = path
        self.inode = inode
        self.append = append
        self.position = 0
        self.closed = False

    def write(self, data) -> int:
        data = bytes(data)
        with self.files.step("write", self.path):
            buffer = self.inode.data
            if self.append:
                self.position = len(buffer)
            self.files._changing(self.inode, self.position)
            end = self.position + len(data)
            buffer[self.position:end] = data
            self.position = end
        return len(data)

    def read(self, size: int = -1) -> bytes:
        buffer = self.inode.data
        end = len(buffer) if size < 0 else min(len(buffer),
                                               self.position + size)
        data = bytes(buffer[self.position:end])
        self.position = max(self.position, end)
        return data

    def tell(self) -> int:
        return self.position

    def seek(self, offset: int, whence: int = 0) -> int:
        base = (0, self.position, len(self.inode.data))[whence]
        self.position = base + offset
        return self.position

    def seekable(self) -> bool:
        return True

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "MemoryFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryFiles(Files):
    """The file port in memory, with numbered steps, faults and crashes.

    It overrides every method of :class:`Files` but ``replace``, which
    runs its temp file, sync, rename and directory sync through these.
    """

    def __init__(self, *, faults: Optional[Dict[Union[int, str],
                                                OSError]] = None,
                 crash_at: Optional[int] = None) -> None:
        super().__init__(sync=True)
        self.faults = dict(faults or {})
        self.crash_at = crash_at
        self.trace: List[str] = []
        #: every distinct label, once: the trace's entries point here
        self._labels: Dict[str, str] = {}
        #: whether the host has run into the crash step
        self.powered_off = False
        #: the namespace as the process sees it, and as the disk has it
        self._names: Dict[Path, _Inode] = {}
        self._durable: Dict[Path, _Inode] = {}
        #: per directory, its entry changes since it was last synced
        self._unsynced: Dict[Path, List[_Change]] = {}
        self._lock = threading.RLock()
        #: bytes copied to keep synced contents a write changed
        self.copied_bytes = 0

    # -- steps ---------------------------------------------------------------
    @contextmanager
    def step(self, operation: str, path: Path) -> Iterator[None]:
        """Number one operation on ``path`` and run it (the block), or
        raise its fault instead."""
        label = f"{operation} {Path(path).name}"
        label = self._labels.setdefault(label, label)
        with self._lock:
            number = len(self.trace) + 1
            if self.crash_at is not None and number >= self.crash_at:
                self.powered_off = True
                raise PowerLoss(errno.EIO,
                                f"power lost at step {self.crash_at}")
            self.trace.append(label)
            for key in (number, label):
                if key in self.faults:
                    raise self.faults.pop(key)
            yield

    def _link(self, path: Path, inode: Optional[_Inode],
              source: Optional[Path] = None) -> None:
        change = (path, inode, source)
        _apply(self._names, change)
        self._unsynced.setdefault(path.parent, []).append(change)

    def _inode(self, path: Path) -> _Inode:
        inode = self._names.get(path)
        if inode is None:
            raise FileNotFoundError(errno.ENOENT, "no such file", str(path))
        return inode

    # -- the port ------------------------------------------------------------
    def exists(self, path: Path) -> bool:
        with self.step("exists", path):
            return Path(path) in self._names

    def read(self, path: Path) -> bytes:
        with self.step("read", path):
            return bytes(self._inode(Path(path)).data)

    def read_range(self, path: Path, offset: int, size: int) -> bytes:
        with self.step("read", path):
            return bytes(self._inode(Path(path)).data[offset:offset + size])

    def size(self, file: MemoryFile) -> int:
        with self.step("size", file.path):
            return len(file.inode.data)

    def open_read(self, path: Path) -> MemoryFile:
        path = Path(path)
        with self.step("read", path):
            return MemoryFile(self, path, self._inode(path), append=False)

    def sync(self, file: MemoryFile) -> int:
        with self.step("sync", file.path):
            inode = file.inode
            inode.synced_length = len(inode.data)
            inode.frozen = None
        return 1

    def truncate(self, file: MemoryFile, size: int) -> None:
        with self.step("truncate", file.path):
            self._changing(file.inode, size)
            del file.inode.data[size:]

    def _changing(self, inode: _Inode, at: int) -> None:
        """``inode``'s live bytes from ``at`` on are about to change:
        freeze its synced contents first if they reach that far."""
        if inode.frozen is None and at < inode.synced_length:
            inode.frozen = inode.synced()
            self.copied_bytes += len(inode.frozen)

    def remove(self, path: Path) -> None:
        path = Path(path)
        with self.step("remove", path):
            if path in self._names:
                self._link(path, None)

    def sync_directory(self, directory: Path) -> None:
        directory = Path(directory)
        with self.step("syncdir", directory):
            for change in self._unsynced.pop(directory, []):
                _apply(self._durable, change)

    def _open(self, path: Path, mode: str) -> MemoryFile:
        path = Path(path)
        with self.step("open" if mode == "ab" else "create", path):
            inode = self._names.get(path)
            if inode is None:
                inode = _Inode()
                self._link(path, inode)
            elif mode == "wb":
                self._changing(inode, 0)
                inode.data.clear()
            return MemoryFile(self, path, inode, append=mode == "ab")

    def _rename(self, source: Path, target: Path) -> None:
        with self.step("rename", target):
            self._link(target, self._inode(source), source=source)

    def content_bytes(self) -> int:
        """The memory the files' contents take: each inode's live bytes
        and frozen synced copy, as allocated (what a memory test of the
        host subtracts, since a real disk holds these outside the
        process)."""
        with self._lock:
            inodes = {id(inode): inode for names in (self._names,
                                                     self._durable)
                      for inode in names.values()}
            return sum(sys.getsizeof(inode.data)
                       + (0 if inode.frozen is None
                          else sys.getsizeof(inode.frozen))
                       for inode in inodes.values())

    # -- the crash -----------------------------------------------------------
    def crash(self, seed: int) -> "MemoryFiles":
        """The disk after a power cut now, as a fresh ``MemoryFiles``."""
        rng = random.Random(seed)
        with self._lock:
            names = dict(self._durable)
            for directory in sorted(self._unsynced):
                changes = self._unsynced[directory]
                for change in changes[:rng.randint(0, len(changes))]:
                    _apply(names, change)
            image = MemoryFiles()
            for path in sorted(names):
                inode = names[path]
                kept = inode.synced()
                if inode.data.startswith(kept):
                    appended = len(inode.data) - len(kept)
                    kept += inode.data[len(kept):][:rng.randint(0, appended)]
                image._names[path] = image._durable[path] = _Inode(kept)
        return image
