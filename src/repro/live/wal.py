"""The durable WAL: :class:`~repro.wal.log.LogManager` over a real file.

The simulated log *models* stability -- ``flush()`` moves the volatile
tail into an in-memory "stable" list and charges modelled disk time.
:class:`DurableLog` keeps every simulated behaviour (LSNs, group-flush
accounting, ``when_stable`` waiters, truncation, the newly-stable drain
feeding the oracle) and adds the real thing: before the base class marks
the tail stable, the records are serialized to an append-only file,
written, and fsynced.  Only then does ``flush()`` fire stability
waiters, so an acknowledgement sent from a ``when_stable`` callback is
backed by bytes the kernel has promised are on the platter.

The on-disk format is one JSON array per line, first element a one-byte
type tag, remaining elements the record's fields in declaration order.
Newline-framed JSON keeps the file greppable and makes torn-write
handling trivial.  Every flush writes whole newline-terminated lines
before its fsync, so the durable prefix of a file is *everything through
its last newline*: after a power loss or SIGKILL the final line may be
unterminated, and :func:`scan_wal` drops exactly that suffix -- whether
or not it happens to decode -- which is correct, because a flush that
never finished was never fsynced, so no acknowledgement depended on it.
Only that final, unterminated line may be discarded; a *terminated*
line that fails to decode is real corruption and raises
:class:`~repro.errors.WALCorruptionError` rather than silently
discarding acknowledged records.

Restart decodes each durable byte once, in bulk.  :func:`scan_wal` cuts
the durable prefix at line boundaries into slices of at most 64 KB and
decodes a slice that is provably in canonical form (what
:func:`encode_record` writes) with a single ``json.loads``; any other
slice goes line by line through the per-line scanner, which remains the
reference the bulk path is tested against and the only place corruption
is diagnosed.  The cyclic GC is paused meanwhile: the scan allocates
only acyclic tuples.

A group flush encodes its tail the same way in the other direction.
:func:`encode_records` serialises the whole batch with a single
``json.dumps`` and frames the lines afterwards, when every ``],[`` in
the result is provably a record boundary; any other batch goes record by
record through :func:`encode_record`, which remains the reference the
bulk path is tested against.  Both produce the same bytes.

Opening a :class:`DurableLog` over an existing file runs that scan and
*repairs* a torn tail first: the file is truncated to the durable prefix
before it is reopened for append, so new records can never be written
onto the back of a partial line (which would fuse them into one
undecodable line and lose every later record at the next restart).  The
records the scan decoded are kept as ``recovered_records`` for
:meth:`LiveHost.recover <repro.live.host.LiveHost.recover>` to consume,
so a restart never reads the file twice; :func:`read_wal` is the
standalone reader for tests and tools.

A flush that *fails* (``write``, ``flush`` or ``fsync`` raises) is never
retried onto the same file: nobody knows what the file holds past its
last completed flush, and encoding the tail again behind that would fuse
or duplicate lines.  The log keeps the first exception as ``failure``,
marks nothing stable and fires no stability waiter; a waiter registered
with ``on_failure`` gets a :class:`~repro.errors.WALFailedError` chained
to the failure at once instead, so a commit waiting on the failed flush
fails rather than waiting out its timeout.  From then on every
``flush()`` raises ``WALFailedError`` without touching the file.

Truncation (checkpoint log reclamation) rewrites the file through the
same temp-file + fsync + :func:`os.replace` discipline the image store
uses, so a crash during truncation leaves either the old or the new
file, never a hybrid.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, WALCorruptionError, WALFailedError
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
)

__all__ = ["DurableLog", "encode_record", "encode_records", "decode_record",
           "gc_paused", "read_wal", "scan_wal"]

#: type tag -> record class, and the reverse, for the line format
_TAG_TO_CLASS = {
    "U": UpdateRecord,
    "L": LogicalUpdateRecord,
    "C": CommitRecord,
    "A": AbortRecord,
    "B": BeginCheckpointRecord,
    "E": EndCheckpointRecord,
    "F": MediaFailureRecord,
    "R": MediaRestoreRecord,
}
_CLASS_TO_TAG = {cls: tag for tag, cls in _TAG_TO_CLASS.items()}


def encode_record(record: LogRecord) -> bytes:
    """One record as a newline-terminated JSON line."""
    tag = _CLASS_TO_TAG[type(record)]
    fields: List = list(record)
    if tag == "B":
        # the active-transaction tuple must round-trip as a list
        fields[3] = list(fields[3])
    payload = json.dumps([tag] + fields, separators=(",", ":"))
    return payload.encode("ascii") + b"\n"


def encode_records(records: Sequence[LogRecord]) -> bytes:
    """``records`` as WAL lines: what :func:`encode_record` writes for
    each, joined, from a single ``json.dumps`` over the batch.

    The mirror of :func:`_decode_canonical`, under the mirrored guard.
    Serialised compactly as one array of arrays, consecutive records
    meet in ``],[``; putting a newline in place of that comma frames the
    lines -- provided every ``],[`` *is* a record boundary.  N records
    have N - 1 boundaries, so a further occurrence sits inside a string
    field (an abort reason), and the batch goes record by record instead
    (as does the empty batch, which has no line to frame).
    """
    tags = _CLASS_TO_TAG
    text = json.dumps([[tags[type(record)], *record] for record in records],
                      separators=(",", ":"))
    if text.count("],[") != len(records) - 1:
        return b"".join(encode_record(record) for record in records)
    return (text[1:-1].replace("],[", "]\n[") + "\n").encode("ascii")


def decode_record(line: str) -> LogRecord:
    """Inverse of :func:`encode_record` (raises on unknown tags)."""
    obj = json.loads(line)
    cls = _TAG_TO_CLASS[obj[0]]
    fields = obj[1:]
    if cls is BeginCheckpointRecord:
        fields[3] = tuple(fields[3])
    return cls(*fields)


#: upper bound on the bytes one bulk ``json.loads`` sees.  Small enough
#: that the transient list-of-lists it builds never shows in peak RSS
#: (1 MB slices cost +8 MB, no slicing +28 MB on a 7 MB log), large
#: enough that the per-slice overhead is noise.
_SLICE_BYTES = 64 * 1024

_DECODE_ERRORS = (ValueError, KeyError, IndexError, TypeError)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend the cyclic collector, restoring its prior state on exit.

    Restart allocates hundreds of thousands of acyclic tuples while it
    alone owns all state; generational passes over them find nothing to
    free and roughly double the decode time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _scan_lines(data: bytes, offset: int = 0,
                stop: Optional[int] = None) -> Tuple[List[LogRecord], int]:
    """The per-line reference scanner over ``data[offset:stop]``.

    One :func:`decode_record` per line.  It defines what a WAL buffer
    means -- :func:`scan_wal`'s bulk path is only ever a faster way to
    the same answer -- and is the sole source of
    :class:`WALCorruptionError` (offsets are absolute in ``data``).
    """
    records: List[LogRecord] = []
    size = len(data) if stop is None else stop
    while offset < size:
        newline = data.find(b"\n", offset, size)
        if newline < 0:
            # The torn tail: every flush writes whole terminated lines
            # before its fsync, so an unterminated final line was never
            # acknowledged -- whether or not it happens to decode.
            break
        line = data[offset:newline]
        if line:
            try:
                records.append(decode_record(line.decode("ascii")))
            except _DECODE_ERRORS as exc:
                raise WALCorruptionError(
                    f"undecodable WAL line at byte {offset}: "
                    f"{line[:80]!r}") from exc
        offset = newline + 1
    return records, offset


def _decode_canonical(chunk: bytes) -> Optional[List[LogRecord]]:
    """Decode whole lines with one ``json.loads``, or None to decline.

    ``chunk`` is newline-terminated lines.  Turning each newline into a
    comma and bracketing the lot parses every line at once, but is only
    *the same parse* when each line boundary ends up a top-level
    separator of the outer array.  The guards make that provable: with
    no whitespace, a separator between two top-level lists reads
    ``],[``; the chunk contains none of its own, so every such separator
    is a line boundary; and N list elements from N lines leave no
    boundary over to hide inside a string or a nested array.  Anything
    else -- including every malformed input -- returns None and goes
    through :func:`_scan_lines`.
    """
    lines = chunk.count(b"\n")
    if (not chunk.startswith(b"[") or not chunk.endswith(b"]\n")
            or chunk.count(b"]\n[") != lines - 1 or b"],[" in chunk
            or b" " in chunk or b"\t" in chunk or b"\r" in chunk):
        return None
    try:
        parsed = json.loads(
            "[" + chunk[:-1].decode("ascii").replace("\n", ",") + "]")
        if len(parsed) != lines or set(map(type, parsed)) != {list}:
            return None
        records = []
        append = records.append
        classes = _TAG_TO_CLASS
        for obj in parsed:
            cls = classes[obj[0]]
            if cls is BeginCheckpointRecord:
                obj[4] = tuple(obj[4])
            del obj[0]
            # _make demands every field (TypeError otherwise); a short
            # hand-written line gets its defaults from the per-line path
            append(cls._make(obj))
    except (*_DECODE_ERRORS, RecursionError):
        return None
    return records


def scan_wal(data: bytes) -> Tuple[List[LogRecord], int]:
    """Parse ``data`` as WAL lines; return ``(records, durable_bytes)``.

    ``durable_bytes`` is the length of the trusted prefix: everything
    through the last newline.  Every flush writes newline-terminated
    lines, so a crash can only leave a partial line at the very end with
    no terminator, and that line is dropped whether or not it decodes; a
    *terminated* line that fails to decode is corruption, not tearing,
    and raises :class:`WALCorruptionError`.

    The durable prefix is cut at line boundaries into slices of at most
    ``_SLICE_BYTES`` (a longer line is a slice of its own); each slice
    in canonical form is decoded in bulk, any other line by line.  The
    cyclic GC is paused for the duration (see :func:`gc_paused`).
    """
    durable = data.rfind(b"\n") + 1
    records: List[LogRecord] = []
    offset = 0
    with gc_paused():
        while offset < durable:
            end = data.rfind(b"\n", offset, offset + _SLICE_BYTES) + 1
            if not end:
                end = data.find(b"\n", offset + _SLICE_BYTES) + 1
            decoded = _decode_canonical(data[offset:end])
            if decoded is None:
                decoded, _ = _scan_lines(data, offset, end)
            records += decoded
            offset = end
    return records, durable


def read_wal(path: os.PathLike) -> Tuple[List[LogRecord], bool]:
    """Load every durable record from ``path``.

    Returns ``(records, torn)`` where ``torn`` reports whether a
    trailing partial line was discarded (the signature of a crash midway
    through a group flush; everything before it is intact and trusted).
    A missing file is an empty log.  An undecodable *interior* line
    raises :class:`WALCorruptionError` (see :func:`scan_wal`).
    """
    path = Path(path)
    if not path.exists():
        return [], False
    data = path.read_bytes()
    records, durable = scan_wal(data)
    return records, durable < len(data)


class DurableLog(LogManager):
    """A :class:`LogManager` whose stability promise is an fsynced file."""

    def __init__(self, params: SystemParameters, path: os.PathLike, *,
                 fsync: bool = True, **kwargs) -> None:
        if params.stable_log_tail:
            raise ConfigurationError(
                "DurableLog provides stability through flush+fsync; "
                "stable_log_tail would mark records durable before any "
                "byte reaches the file")
        super().__init__(params, **kwargs)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: fsync on every flush (off only for tests that measure the
        #: framing independent of disk latency)
        self.fsync_enabled = fsync
        self.fsync_count = 0
        #: bytes of torn tail cut off an existing file before reopening
        self.repaired_bytes = 0
        #: the durable records that open-time scan decoded, kept so
        #: restart does not read and decode the file a second time;
        #: handed over to (and emptied by) :meth:`hydrate`
        self.recovered_records: List[LogRecord] = []
        #: size of the file as found, and seconds spent reading and
        #: decoding it (the recovery timing report's scan term)
        self.scanned_bytes = 0
        self.scan_seconds = 0.0
        #: the exception that failed a flush; once set the log is
        #: fail-stop (see :meth:`raise_if_failed`)
        self.failure: Optional[BaseException] = None
        if self.path.exists():
            self._scan_and_repair()
        self._file = open(self.path, "ab")

    def _scan_and_repair(self) -> None:
        """Decode an existing file once and truncate a torn final line.

        The repair must happen before the file is reopened for append:
        writing new records after a partial line would fuse them into
        one undecodable line, and the *next* restart would then lose
        every record from the tear onward -- acknowledged-data loss.
        Truncation to the durable prefix is idempotent, so a crash
        racing this repair just means it runs again next start.
        """
        began = time.perf_counter()
        data = self.path.read_bytes()
        # raises WALCorruptionError if rotten
        self.recovered_records, durable = scan_wal(data)
        self.scan_seconds = time.perf_counter() - began
        self.scanned_bytes = len(data)
        self.repaired_bytes = len(data) - durable
        if self.repaired_bytes:
            with open(self.path, "r+b") as file:
                file.truncate(durable)
                self._sync_file(file)

    # -- durability ----------------------------------------------------------
    def _sync_file(self, file) -> None:
        file.flush()
        if self.fsync_enabled:
            os.fsync(file.fileno())
            self.fsync_count += 1

    def _sync_directory(self) -> None:
        """Make the rename of a rewritten log durable (POSIX: fsync the
        directory, or the entry itself may not survive)."""
        if not self.fsync_enabled:
            return
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

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
        """Write and fsync the tail, then let the base class mark it stable.

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
        if self._tail:
            try:
                self._file.write(encode_records(self._tail))
                self._sync_file(self._file)
            except BaseException as exc:
                self.failure = exc
                self._fail_waiters()
                raise
        return super().flush()

    def _fail_waiters(self) -> None:
        """Nothing pending can become stable any more: hand each waiter
        that asked for it a :class:`WALFailedError`, in LSN order, and
        drop the rest unfired."""
        waiters, self._waiters = self._waiters, []
        for _, _, _, on_failure in sorted(waiters):
            if on_failure is not None:
                on_failure(self.failed_error())

    def truncate_stable_before(self, lsn: int) -> int:
        """Reclaim old records in memory *and* on disk, atomically."""
        reclaimed = super().truncate_stable_before(lsn)
        if reclaimed:
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as file:
                file.write(encode_records(self._stable))
                self._sync_file(file)
            self._file.close()
            os.replace(tmp, self.path)
            self._sync_directory()
            self._file = open(self.path, "ab")
        return reclaimed

    # -- restart -------------------------------------------------------------
    def hydrate(self, records: Sequence[LogRecord]) -> None:
        """Adopt ``records`` (normally :attr:`recovered_records`) as the
        stable log.

        Called once at restart, before any new appends: the stable list,
        stable horizon, and the LSN allocator all resume exactly where
        the previous process durably left off.  A list is adopted as is,
        not copied -- the log owns it from here on.  The records are
        *not* offered to ``drain_newly_stable`` -- recovery feeds the
        oracle directly, and re-draining would double-apply.
        """
        if self._tail or self._stable:
            raise ConfigurationError("hydrate() requires a fresh log")
        self._stable = records if isinstance(records, list) else list(records)
        self.recovered_records = []
        if records:
            # the file is written in LSN order: the last record is newest
            self._stable_lsn = records[-1].lsn
            self._allocator = LSNAllocator(start=self._stable_lsn)

    def close(self) -> None:
        self._file.close()
