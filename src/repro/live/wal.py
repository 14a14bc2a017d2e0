"""The durable WAL: :class:`~repro.wal.log.LogManager` over a real file.

The simulated log *models* stability -- ``flush()`` moves the volatile
tail into an in-memory "stable" list and charges modelled disk time.
:class:`DurableLog` keeps every simulated behaviour (LSNs, group-flush
accounting, ``when_stable`` waiters, truncation) but the two in-memory
lists, and adds the real thing: before the base class marks the tail
stable, the records are serialized to an append-only file, written,
and fsynced.  Only then does ``flush()`` fire stability waiters, so an
acknowledgement sent from a ``when_stable`` callback is backed by bytes
the kernel has promised are on the platter.  The file *is* the stable
log: a flushed record is not kept in memory, only its frame's entry in
a small index, and the base class's readers of the stable list raise
:class:`~repro.errors.InvalidStateError` here.

The file (``wal.log`` in a live data directory) starts with a 12-byte
header, :data:`FILE_HEADER` (magic and format version), and holds one
*frame* per group flush: the body length, the body's CRC32 and a CRC32
of those two fields (12 bytes, little-endian), then the body -- the
flushed records' entries back to back.  An entry is a one-byte tag and
little-endian int64 fields: a transaction's :class:`UpdateRun` is its
LSN, transaction id and update count followed by its two int64 columns
verbatim, so encoding it is a bytes join and decoding it two slices; a
commit is its LSN and transaction id.  The rare records (abort reason,
checkpoint markers, logical and media records) carry a JSON body.

What counts as durable: every flush writes whole frames before its
fsync, so a crash can only leave the *final* frame short, and a frame is
torn exactly when it runs past the end of the file (a partial file
header is a torn, empty log).  :func:`scan_wal` drops that frame --
whether or not its entries would decode -- which is correct, because a
flush that never finished was never fsynced, so no acknowledgement
depended on it.  A frame that fits but fails either CRC, or whose
entries do not continue the previous LSN by one, or do not decode, is
real damage and raises :class:`~repro.errors.WALCorruptionError` rather
than silently discarding acknowledged records.  A file that is not a
framed log of this version raises too (:class:`~repro.errors.WALFormatError`
for another version).

Opening a :class:`DurableLog` over an existing file runs that scan as
a stream: one open file (:meth:`Files.open_read
<repro.live.files.Files.open_read>`), read front to back a frame at a
time, so the scan never holds more than one frame's bytes and records.
Each whole frame is indexed and its records are handed to the log's
``on_frame`` consumer -- :meth:`LiveHost.recover
<repro.live.host.LiveHost.recover>` passes its REDO -- and let go; so a
restart reads the file once and never holds it whole.  The open then
*repairs* a torn tail, before anything is appended: the file is
truncated to the durable prefix before it is reopened for append, so a
new frame can never be written onto the back of a partial one (which
would fuse them and lose every later record at the next restart).
:func:`scan_wal` applies the same rules to bytes in memory, and
:func:`read_wal` is the standalone reader for tests and tools.

A flush that *fails* (``write``, ``flush`` or ``fsync`` raises) is never
retried onto the same file: nobody knows what the file holds past its
last completed flush, and encoding the tail again behind that would fuse
or duplicate frames.  The log keeps the first exception as ``failure``,
marks nothing stable and fires no stability waiter; a waiter registered
with ``on_failure`` gets a :class:`~repro.errors.WALFailedError` chained
to the failure at once instead, so a commit waiting on the failed flush
fails rather than waiting out its timeout.  From then on every
``flush()`` raises ``WALFailedError`` without touching the file.

Truncation (checkpoint log reclamation) rewrites the file -- the header,
then the surviving frames copied byte for byte from the old file through
a ranged read, with nothing decoded or encoded -- through
:meth:`Files.replace <repro.live.files.Files.replace>`.  It cuts whole
frames: a frame that reaches the cut LSN is kept whole, which is safe
because REDO replays only above the image's ``base_lsn`` (and on the
live path the cut falls on a frame boundary anyway, since a checkpoint
flushes before it takes ``base_lsn``).  A crash
during truncation leaves either the old or the new file, never a
hybrid, and the log's ``.tmp`` left by such a crash is removed when the
log is opened.  A rewrite that fails before its rename leaves the log
appending to the old file; one that fails at or after it makes the log
fail-stop, as a failed flush does.  Every file operation goes through
the :class:`~repro.live.files.Files` port the log is given.
"""

from __future__ import annotations

import gc
import io
import json
import os
import struct
import time
import zlib
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import (ConfigurationError, WALCorruptionError, WALFailedError,
                      WALFormatError)
from ..params import SystemParameters
from ..wal.log import FlushResult, LogManager
from ..wal.lsn import LSNAllocator
from ..wal.records import (
    AbortRecord,
    BeginCheckpointRecord,
    CommitRecord,
    EndCheckpointRecord,
    LogicalUpdateRecord,
    LogRecord,
    MediaFailureRecord,
    MediaRestoreRecord,
    UpdateRecord,
    UpdateRun,
)
from .files import Files, temp_path

__all__ = ["DurableLog", "FILE_HEADER", "decode_record", "encode_frame",
           "encode_record", "encode_records", "gc_paused", "read_wal",
           "scan_wal"]

_MAGIC = b"REPROWAL"
_U32 = struct.Struct("<I")
#: what every framed log file starts with: magic, then format version
FILE_HEADER = _MAGIC + _U32.pack(1)

#: frame header: body length, body CRC32, CRC32 of the first two fields
_FRAME = struct.Struct("<III")
_FRAME_FIELDS = struct.Struct("<II")

#: entry layouts: one tag byte, then little-endian fields
_RUN = struct.Struct("<BqqI")          # tag, last lsn, txn id, updates
_COMMIT = struct.Struct("<Bqq")        # tag, lsn, txn id
_UPDATE = struct.Struct("<Bqqqq")      # tag, lsn, txn id, record, value
_JSON = struct.Struct("<BI")           # tag, body length; body follows
_T_RUN, _T_COMMIT, _T_UPDATE, _T_JSON = b"RCUJ"

#: the rare records, JSON-bodied: type tag -> record class, and back
_TAG_TO_CLASS = {
    "L": LogicalUpdateRecord,
    "A": AbortRecord,
    "B": BeginCheckpointRecord,
    "E": EndCheckpointRecord,
    "F": MediaFailureRecord,
    "R": MediaRestoreRecord,
}
_CLASS_TO_TAG = {cls: tag for tag, cls in _TAG_TO_CLASS.items()}

_DECODE_ERRORS = (ValueError, KeyError, IndexError, TypeError,
                  RecursionError)


def encode_records(records: Sequence[LogRecord]) -> bytes:
    """The entries of ``records``, back to back (a frame's body)."""
    parts: List[bytes] = []
    append = parts.append
    for record in records:
        cls = type(record)
        if cls is UpdateRun:
            append(_RUN.pack(_T_RUN, record.lsn, record.txn_id,
                             len(record.record_ids) >> 3))
            append(record.record_ids)
            append(record.values)
        elif cls is CommitRecord:
            append(_COMMIT.pack(_T_COMMIT, *record))
        elif cls is UpdateRecord:
            append(_UPDATE.pack(_T_UPDATE, *record))
        else:
            text = json.dumps([_CLASS_TO_TAG[cls], *record],
                              separators=(",", ":")).encode("ascii")
            append(_JSON.pack(_T_JSON, len(text)))
            append(text)
    return b"".join(parts)


def encode_record(record: LogRecord) -> bytes:
    """One record's entry (entries are self-delimiting, so a batch's is
    the concatenation of its records')."""
    return encode_records((record,))


def encode_frame(records: Sequence[LogRecord]) -> bytes:
    """``records`` as one frame: header, then :func:`encode_records`."""
    body = encode_records(records)
    fields = _FRAME_FIELDS.pack(len(body), zlib.crc32(body))
    return fields + _U32.pack(zlib.crc32(fields)) + body


def _decode_json(text: bytes, at: int) -> LogRecord:
    try:
        obj = json.loads(text)
        cls = _TAG_TO_CLASS[obj[0]]
        if cls is BeginCheckpointRecord:
            obj[4] = tuple(obj[4])
        record = cls._make(obj[1:])
        if type(record.lsn) is not int:
            raise TypeError(f"LSN {record.lsn!r}")
    except _DECODE_ERRORS as exc:
        raise WALCorruptionError(
            f"undecodable WAL entry at byte {at}: {text[:80]!r}") from exc
    return record


def _decode_entries(data: bytes, at: int, end: int, records: List[LogRecord],
                    expected: Optional[int], origin: int = 0
                    ) -> Optional[int]:
    """Append the records of the entries in ``data[at:end]`` to
    ``records``; return the LSN the next entry must start at.

    ``expected`` is that LSN for the first entry (None: anything goes).
    Offsets in errors are ``origin`` plus the offset in ``data`` (the
    byte of the file, when ``data`` is a frame body read from one).
    """
    append = records.append
    while at < end:
        tag = data[at]
        if tag == _T_RUN and at + _RUN.size <= end:
            _, lsn, txn_id, n = _RUN.unpack_from(data, at)
            ids = at + _RUN.size
            values = ids + (n << 3)
            stop = values + (n << 3)
            if not n or stop > end:
                raise WALCorruptionError(
                    f"WAL run at byte {origin + at} of {n} updates does "
                    "not fit its frame")
            record = UpdateRun(lsn, txn_id, data[ids:values],
                               data[values:stop])
            first = lsn - n + 1
        elif tag == _T_COMMIT and at + _COMMIT.size <= end:
            record = CommitRecord._make(_COMMIT.unpack_from(data, at)[1:])
            first, stop = record.lsn, at + _COMMIT.size
        elif tag == _T_UPDATE and at + _UPDATE.size <= end:
            record = UpdateRecord._make(_UPDATE.unpack_from(data, at)[1:])
            first, stop = record.lsn, at + _UPDATE.size
        elif tag == _T_JSON and at + _JSON.size <= end:
            stop = at + _JSON.size + _JSON.unpack_from(data, at)[1]
            if stop > end:
                raise WALCorruptionError(
                    f"WAL entry at byte {origin + at} does not fit its frame")
            record = _decode_json(data[at + _JSON.size:stop], origin + at)
            first = record.lsn
        else:
            raise WALCorruptionError(
                f"undecodable WAL entry at byte {origin + at}: tag {tag!r}")
        if expected is not None and first != expected:
            raise WALCorruptionError(
                f"WAL entry at byte {origin + at} starts at LSN {first}; the "
                f"log before it ends at {expected - 1}")
        expected = record.lsn + 1
        append(record)
        at = stop
    return expected


def decode_record(entry: bytes) -> LogRecord:
    """Inverse of :func:`encode_record` (raises on anything but exactly
    one well-formed entry)."""
    records: List[LogRecord] = []
    _decode_entries(entry, 0, len(entry), records, None)
    if len(records) != 1:
        raise WALCorruptionError(
            f"expected one WAL entry, found {len(records)}")
    return records[0]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend the cyclic collector, restoring its prior state on exit.

    Restart allocates many acyclic objects while it alone owns all
    state; generational passes over them find nothing to free.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read_frames(read: Callable[[int], bytes], size: int,
                 on_frame: Callable[[int, List[LogRecord]], None]) -> int:
    """Parse a framed WAL of ``size`` bytes, read front to back through
    ``read(n)`` (the next ``n`` bytes, fewer at the end); return its
    durable length.

    Each whole frame is read and checked on its own, and its records go
    to ``on_frame(offset, records)`` -- the byte the frame starts at,
    and what its entries decode to -- before the next frame is read, so
    no more than one frame's bytes and records are held at a time.  The
    rules are :func:`scan_wal`'s.
    """
    head = read(len(FILE_HEADER))
    if head != FILE_HEADER:
        if len(head) < len(FILE_HEADER) and FILE_HEADER.startswith(head):
            return 0
        if head.startswith(_MAGIC):
            raise WALFormatError(
                f"WAL format version {head[len(_MAGIC):]!r}"
                f" is not {FILE_HEADER[len(_MAGIC):]!r}")
        raise WALCorruptionError(
            f"not a framed WAL: it starts {head + read(4)!r}")
    expected: Optional[int] = None
    offset = len(FILE_HEADER)
    crc32 = zlib.crc32
    while True:
        fields = read(_FRAME.size)
        if len(fields) < _FRAME.size:
            break                           # the end, or a torn header
        length, crc, fields_crc = _FRAME.unpack(fields)
        if crc32(fields[:_FRAME_FIELDS.size]) != fields_crc:
            raise WALCorruptionError(
                f"WAL frame at byte {offset}: header fails its CRC")
        start = offset + _FRAME.size
        if start + length > size:
            break                           # the torn final frame
        body = read(length)
        if len(body) < length:
            break                           # the file ended sooner
        if crc32(body) != crc:
            raise WALCorruptionError(
                f"WAL frame at byte {offset}: body fails its CRC")
        records: List[LogRecord] = []
        expected = _decode_entries(body, 0, length, records, expected, start)
        del body
        on_frame(offset, records)
        offset = start + length
    return offset


def scan_wal(data: bytes, frames: Optional[List[Tuple[int, int]]] = None
             ) -> Tuple[List[LogRecord], int]:
    """Parse ``data`` as a framed WAL; return ``(records,
    durable_bytes)``.

    ``frames``, if given, gets one ``(offset, records)`` pair per whole
    frame: the byte it starts at, and how many records the scan had
    decoded once it ended.

    ``durable_bytes`` is the length of the trusted prefix: the file
    header and every whole frame.  The final frame is torn -- and
    dropped, whether or not its entries would decode -- when it runs
    past the end of ``data``; so is a file header cut short (an empty,
    torn log).  A frame that fits but fails its header or body CRC, or
    holds entries that do not decode or do not continue the LSNs before
    them, raises :class:`WALCorruptionError`; so does anything that is
    not a framed log at all.
    """
    records: List[LogRecord] = []

    def collect(offset: int, batch: List[LogRecord]) -> None:
        records.extend(batch)
        if frames is not None:
            frames.append((offset, len(records)))

    with gc_paused():
        durable = _read_frames(io.BytesIO(data).read, len(data), collect)
    return records, durable


def read_wal(path: os.PathLike, files: Optional[Files] = None
             ) -> Tuple[List[LogRecord], bool]:
    """Load every durable record from ``path`` (through ``files``,
    default the real filesystem).

    Returns ``(records, torn)`` where ``torn`` reports whether a
    trailing partial frame was discarded (the signature of a crash
    midway through a group flush; everything before it is intact and
    trusted).  A missing file is an empty log.  A damaged frame raises
    :class:`WALCorruptionError` (see :func:`scan_wal`).
    """
    path = Path(path)
    files = files if files is not None else Files()
    if not files.exists(path):
        return [], False
    data = files.read(path)
    records, durable = scan_wal(data)
    return records, durable < len(data)


class DurableLog(LogManager):
    """A :class:`LogManager` whose stable log is an fsynced file.

    It holds no flushed record: per frame of the file, only the frame's
    last LSN, its offset and its words, which is all truncation needs.
    ``on_frame``, if given, gets the records of each whole frame the
    open-time scan reads from an existing file, in file order.
    """

    def __init__(self, params: SystemParameters, path: os.PathLike, *,
                 files: Optional[Files] = None,
                 on_frame: Optional[Callable[[List[LogRecord]], None]] = None,
                 **kwargs) -> None:
        if params.stable_log_tail:
            raise ConfigurationError(
                "DurableLog provides stability through flush+fsync; "
                "stable_log_tail would mark records durable before any "
                "byte reaches the file")
        super().__init__(params, **kwargs)
        # the file is the stable log, and nothing drains this one
        self._stable = None
        self._newly_stable = None
        self.path = Path(path)
        #: the port every file operation goes through
        self.files = files if files is not None else Files()
        self.fsync_count = 0
        #: bytes of torn tail cut off an existing file before appending
        self.repaired_bytes = 0
        #: the frame index, one entry per frame of the file, in file
        #: order: its last LSN, the byte it starts at, its records' words
        self._frame_lsns = array("q")
        self._frame_offsets = array("q")
        self._frame_words = array("q")
        #: size of the file as found, and seconds spent scanning it
        #: (``on_frame``'s time included)
        self.scanned_bytes = 0
        self.scan_seconds = 0.0
        #: the exception that failed a flush; once set the log is
        #: fail-stop (see :meth:`raise_if_failed`)
        self.failure: Optional[BaseException] = None
        files = self.files
        # what a crash during a truncation rewrite left behind
        files.remove(temp_path(self.path))
        durable = self._scan(on_frame) if files.exists(self.path) else 0
        #: the file's length: where the next frame goes
        self._end = durable
        self._file = files.open_append(self.path)
        if self.repaired_bytes:
            # before anything is appended: a new frame written after a
            # partial one would fuse with it, and the *next* restart
            # would lose every record from the tear onward.  Cutting to
            # the durable prefix is idempotent, so a crash racing this
            # repair just means it runs again next start.
            files.truncate(self._file, durable)
            self._sync()
        if not files.size(self._file):
            # a new (or torn-empty) log: the header, made durable with
            # the directory entry, before any frame can follow it
            self._file.write(FILE_HEADER)
            self._sync()
            files.sync_directory(self.path.parent)
            self._end = len(FILE_HEADER)

    def _scan(self, on_frame: Optional[Callable[[List[LogRecord]], None]]
              ) -> int:
        """Read the existing file once, a frame at a time through one
        open file (raises :class:`WALCorruptionError` if rotten): index
        each whole frame and hand its records to ``on_frame``, keeping
        none; return the durable length."""
        began = time.perf_counter()
        size = self.record_size_words
        last_lsn = 0

        def frame(offset: int, records: List[LogRecord]) -> None:
            nonlocal last_lsn
            if records:
                last_lsn = records[-1].lsn
            self._index(last_lsn, offset, sum(map(size, records)))
            if on_frame is not None:
                on_frame(records)

        files = self.files
        with files.open_read(self.path) as file, gc_paused():
            length = files.size(file)
            durable = _read_frames(file.read, length, frame)
        self.scan_seconds = time.perf_counter() - began
        self.scanned_bytes = length
        self.repaired_bytes = length - durable
        return durable

    def _index(self, last_lsn: int, offset: int, words: int) -> None:
        self._frame_lsns.append(last_lsn)
        self._frame_offsets.append(offset)
        self._frame_words.append(words)

    # -- durability ----------------------------------------------------------
    def _sync(self) -> None:
        self.fsync_count += self.files.sync(self._file)

    def failed_error(self) -> WALFailedError:
        """A fresh :class:`WALFailedError` chained to ``failure``."""
        error = WALFailedError(
            f"the WAL stopped at a failed flush ({self.failure!r}); "
            "nothing after it can be made durable")
        error.__cause__ = self.failure
        return error

    def raise_if_failed(self) -> None:
        """Raise :class:`WALFailedError` if an earlier flush failed."""
        if self.failure is not None:
            raise self.failed_error()

    def flush(self) -> FlushResult:
        """Write and fsync the tail as one frame, index the frame, then
        let the base class mark the tail stable (and drop it).

        Ordering is the whole point: waiters registered via
        ``when_stable`` fire inside ``super().flush()``, and anything
        they trigger (commit acknowledgements) must be preceded by the
        fsync.

        A failure is final.  The tail stays volatile and its waiters
        unfired (each one's ``on_failure`` runs instead), and no later
        call writes again: the file (or the buffer in front of it) may
        hold any part of this batch, so a retry would append the whole
        tail behind a partial or duplicate copy of itself, or re-fsync
        pages the kernel already dropped.
        """
        self.raise_if_failed()
        tail = self._tail
        if tail:
            frame = encode_frame(tail)
            try:
                self._file.write(frame)
                self._sync()
            except BaseException as exc:
                self._fail(exc)
                raise
            self._index(tail[-1].lsn, self._end, self._tail_words)
            self._end += len(frame)
        return super().flush()

    def _fail(self, exc: BaseException) -> None:
        """Make the log fail-stop on ``exc``.  Nothing pending can become
        stable any more: hand each waiter that asked for it a
        :class:`WALFailedError`, in LSN order, and drop the rest
        unfired."""
        self.failure = exc
        waiters, self._waiters = self._waiters, []
        for _, _, _, on_failure in sorted(waiters):
            if on_failure is not None:
                on_failure(self.failed_error())

    def truncate_stable_before(self, lsn: int) -> int:
        """Cut the frames wholly below ``lsn`` off the file, atomically;
        return their words.

        A frame that reaches ``lsn`` is kept whole (the cut has frame
        granularity).  The file is rewritten through :meth:`Files.replace
        <repro.live.files.Files.replace>` as the header plus the
        surviving frames, read back from the old file and copied byte
        for byte.  A rewrite that fails before its rename leaves the old
        file in place and the log appending to it; one that fails at or
        after the rename leaves it unknown which file the path names, so
        the log turns fail-stop on the error.  Either way the error
        propagates.
        """
        cut = bisect_left(self._frame_lsns, lsn)
        if not cut:
            return 0
        start = (self._frame_offsets[cut] if cut < len(self._frame_offsets)
                 else self._end)
        survivors = self.files.read_range(self.path, start, self._end - start)
        if len(survivors) != self._end - start:
            raise WALCorruptionError(
                f"WAL {self.path} holds {start + len(survivors)} bytes; "
                f"its flushes wrote {self._end}")
        renaming: List[bool] = []

        def write(file) -> None:
            file.write(FILE_HEADER)
            if survivors:
                file.write(survivors)

        try:
            self.fsync_count += self.files.replace(
                self.path, write, partial(renaming.append, True))
            old, self._file = self._file, self.files.open_append(self.path)
            old.close()
        except BaseException as exc:
            if renaming:
                self._fail(exc)
            raise
        reclaimed = sum(self._frame_words[:cut])
        shift = start - len(FILE_HEADER)
        del self._frame_lsns[:cut]
        del self._frame_words[:cut]
        self._frame_offsets = array(
            "q", [offset - shift for offset in self._frame_offsets[cut:]])
        self._end -= shift
        return reclaimed

    # -- restart -------------------------------------------------------------
    def hydrate(self) -> None:
        """Resume after the frames the open-time scan found.

        Called once at restart, before any new appends: the stable
        horizon and the LSN allocator resume exactly where the previous
        process durably left off -- the last LSN of the file's last
        whole frame.  No record is adopted: the file holds them, and
        the scan handed each frame's to its consumer and let them go.
        """
        if self._tail or self._stable_lsn:
            raise ConfigurationError("hydrate() requires a fresh log")
        if self._frame_lsns and self._frame_lsns[-1]:
            # the file is written in LSN order: the last frame is newest
            self._stable_lsn = self._frame_lsns[-1]
            self._allocator = LSNAllocator(start=self._stable_lsn)

    def close(self) -> None:
        self._file.close()
