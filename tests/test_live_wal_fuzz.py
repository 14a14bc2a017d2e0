"""Fuzz of the framed WAL: what a crash, a flipped byte or a foreign
writer can leave in ``wal.log``, and how it reads back.

The contract (see ``repro.live.wal``): a file is its header, then whole
frames, then at most one torn frame -- one that runs past the end of the
file -- which is dropped whether or not its entries would decode.  A
frame that fits but does not check raises ``WALCorruptionError``.  So a
damaged log either reads back as exactly a whole-frame prefix of what
was written, or fails loudly; it never yields a record nobody wrote.

Histories are written the way a live flush writes them, one frame per
batch, with batches of at most ``frame_bytes`` of entries (an entry
larger than that is a frame of its own), so small bounds put many frame
boundaries in a short log.  Seeded ``random.Random``, so a failure
reproduces from its case number.

The replay side is differential: ``RedoApplier.feed`` writes whole
committed runs straight into the array and must match ``feed_each``,
the per-record reference, on any history.
"""

import random
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.errors import WALCorruptionError, WALFormatError
from repro.live.files import Files
from repro.live.host import LiveConfig, LiveHost, RecoveryInfo, replay_durable
from repro.live.store import ImageStore
from repro.live.wal import (FILE_HEADER, DurableLog, decode_record,
                            encode_frame, encode_record, encode_records,
                            read_wal, scan_wal)
from repro.params import SystemParameters
from repro.recovery.replay import RedoApplier
from repro.wal.records import (
    AbortRecord,
    BeginCheckpointRecord,
    CommitRecord,
    EndCheckpointRecord,
    LogicalUpdateRecord,
    MediaFailureRecord,
    MediaRestoreRecord,
    UpdateRecord,
    UpdateRun,
    log_updates,
)
from tests.engine import EngineScheduler
from tests.memfiles import MemoryFiles

#: record ids drawn from a small space, so ids repeat within and across
#: runs and last-writer-wins is exercised
_IDS = 48

#: abort reasons: plain, escaped, long, and JSON-structural
_REASONS = ["aborted", "two-color", 'quo"te', "x" * 300, "a],[b"]

_DAMAGE = (WALCorruptionError, WALFormatError)


def _run(rng, lsn, txn_id, n):
    """An ``n``-update run ending at ``lsn``."""
    ids = [rng.randrange(_IDS) for _ in range(n)]
    values = [rng.randrange(-(1 << 62), 1 << 62) for _ in range(n)]
    return UpdateRun(lsn, txn_id, np.array(ids, "<i8").tobytes(),
                     np.array(values, "<i8").tobytes())


def _history(rng, n_txns, *, live=False):
    """A plausible log.  ``live``: what the live host writes -- one run
    per transaction, then its commit, with checkpoint markers between
    transactions.  Otherwise also per-record and logical updates, aborts
    (some followed by a rerun of the same transaction id) and media
    records."""
    records, lsn = [], 0

    def emit(cls, *fields):
        nonlocal lsn
        lsn += 1
        records.append(cls(lsn, *fields))

    def run(txn_id):
        nonlocal lsn
        n = rng.randint(1, 6)
        lsn += n
        records.append(_run(rng, lsn, txn_id, n))

    txn_id = 0
    while txn_id < n_txns:
        txn_id += 1
        attempts = 1 if live or rng.random() > 0.15 else 2
        for attempt in range(attempts):
            if live:
                run(txn_id)
            else:
                for _ in range(rng.randint(1, 3)):
                    roll = rng.random()
                    if roll < 0.5:
                        run(txn_id)
                    elif roll < 0.8:
                        emit(UpdateRecord, txn_id, rng.randrange(_IDS),
                             rng.randrange(1 << 40))
                    else:
                        emit(LogicalUpdateRecord, txn_id, rng.randrange(_IDS),
                             rng.randint(-9, 9))
            if attempt + 1 < attempts:
                emit(AbortRecord, txn_id, rng.choice(_REASONS))
            else:
                emit(CommitRecord, txn_id)
        roll = rng.random()
        if roll < 0.1:
            active = tuple(rng.sample(range(1, 50), rng.randint(0, 3)))
            emit(BeginCheckpointRecord, txn_id, rng.random(), active, 0)
        elif roll < 0.2:
            emit(EndCheckpointRecord, txn_id, 0)
        elif live:
            pass
        elif roll < 0.23:
            emit(MediaFailureRecord, 0)
        elif roll < 0.26:
            emit(MediaRestoreRecord, 0, txn_id)
    return records


def _frames(records, frame_bytes):
    """Group ``records`` into flush batches of at most ``frame_bytes``
    of entries; return the encoded frames and their batches."""
    batches, batch, size = [], [], 0
    for record in records:
        entry = len(encode_record(record))
        if batch and size + entry > frame_bytes:
            batches.append(batch)
            batch, size = [], 0
        batch.append(record)
        size += entry
    if batch:
        batches.append(batch)
    return [encode_frame(batch) for batch in batches], batches


def _log(records, frame_bytes):
    """The file a live log of ``records`` leaves, and for each whole-
    frame prefix its ``(durable_bytes, records)``."""
    frames, batches = _frames(records, frame_bytes)
    prefixes, durable, kept = [(len(FILE_HEADER), [])], len(FILE_HEADER), []
    for frame, batch in zip(frames, batches):
        durable += len(frame)
        kept = kept + batch
        prefixes.append((durable, kept))
    return FILE_HEADER + b"".join(frames), prefixes


def _prefix_at(prefixes, size):
    """What a file cut to ``size`` bytes must read back as."""
    if size < len(FILE_HEADER):
        return 0, []
    return [p for p in prefixes if p[0] <= size][-1]


@pytest.fixture(params=[64 * 1024, 256, 64])
def frame_bytes(request):
    """One frame for a whole history, and bounds small enough that
    every few records start a new frame and single runs outgrow one."""
    return request.param


# ---------------------------------------------------------------------------
# reading back: whole frames, a torn final frame, or a loud failure
# ---------------------------------------------------------------------------

def test_clean_log_takes_the_bulk_path_and_matches_the_reference(
        frame_bytes, monkeypatch):
    records = _history(random.Random(7), 60, live=True)
    assert {type(r) for r in records} == {
        UpdateRun, CommitRecord, BeginCheckpointRecord, EndCheckpointRecord}
    data, prefixes = _log(records, frame_bytes)
    assert scan_wal(data) == (records, len(data))
    assert len(prefixes) > (2 if frame_bytes < 1024 else 1)
    expected = RedoApplier(np.zeros(_IDS, dtype=np.int64))
    expected.feed_each(records)

    def never(*args):
        raise AssertionError("a live log fell back to per-record replay")

    # otherwise the comparison below would be the reference vs itself
    monkeypatch.setattr(RedoApplier, "feed_each", never)
    applier = RedoApplier(np.zeros(_IDS, dtype=np.int64))
    applier.feed(scan_wal(data)[0])
    assert applier.target.tolist() == expected.target.tolist()
    assert applier.finish() == expected.finish()


def _mutate(rng, data):
    """One small edit: flip, insert, delete, swap or cut."""
    buf = bytearray(data)
    at = rng.randrange(len(buf))
    kind = rng.randrange(5)
    if kind == 0:
        buf[at] ^= 1 << rng.randrange(8)
    elif kind == 1:
        buf[at:at] = bytes([rng.randrange(256)])
    elif kind == 2:
        del buf[at]
    elif kind == 3 and at + 1 < len(buf):
        buf[at], buf[at + 1] = buf[at + 1], buf[at]
    else:
        del buf[at:]
    return bytes(buf)


def test_mutated_logs_decode_identically_or_fail_identically(frame_bytes):
    """Whatever a mutation did, the log reads back as a whole-frame
    prefix of what was written -- identical records -- or raises."""
    rng = random.Random(1989 + frame_bytes)
    outcomes = {"records": 0, "corrupt": 0}
    for case in range(600):
        records = _history(rng, rng.randint(1, 12))
        data, prefixes = _log(records, frame_bytes)
        mutated = data
        for _ in range(rng.randint(1, 3)):
            if mutated:
                mutated = _mutate(rng, mutated)
        try:
            kept, durable = scan_wal(mutated)
        except _DAMAGE:
            outcomes["corrupt"] += 1
            continue
        outcomes["records"] += 1
        assert (durable, kept) in prefixes + [(0, [])], f"case {case}"
        assert mutated[:durable] == data[:durable], f"case {case}"
    # the mutations land on both sides of the contract
    assert outcomes["records"] > 100 and outcomes["corrupt"] > 100


def test_truncation_at_every_byte_of_the_last_records(frame_bytes, tmp_path):
    """A cut anywhere -- inside the file header too -- reads back as the
    whole frames before it; reopening repairs the file to exactly those
    frames, and a flush after the repair is read back behind them."""
    params = SystemParameters.scaled_down(2048)
    records = _history(random.Random(3), 5, live=True)
    data, prefixes = _log(records, frame_bytes)
    path = tmp_path / "wal.log"
    for cut in range(len(data) + 1):
        durable, kept = _prefix_at(prefixes, cut)
        assert scan_wal(data[:cut]) == (kept, durable), f"cut at {cut}"
        path.write_bytes(data[:cut])
        scanned = []
        log = DurableLog(params, path, files=Files(sync=False),
                         on_frame=scanned.extend)
        assert log.repaired_bytes == cut - durable
        assert scanned == kept
        log.hydrate()
        log.append_update_run(99, np.array([1, 1], "<i8").tobytes(),
                              np.array([2, 3], "<i8").tobytes())
        log.append_commit(99)
        appended = log._tail[:]
        log.flush()
        log.close()
        assert read_wal(path) == (kept + appended, False), f"cut at {cut}"


@pytest.mark.parametrize("data", [
    # the byte strings once built to fool the JSON-line decoder's bulk
    # path: strings swallowing a line boundary, ...
    b'["C",1,1],"A]\n["]\n',
    b'["C",1,1]\n["C",2,2],"A]\n["]\n["C",3,3]\n',
    b'["A",1,2,"x]\n["]\n',
    # ... a second top-level list behind every separator JSON allows, ...
    b'["C",1,1],["A",2,3,"x]\n["]\n',
    b'["C",1,1], ["A",2,3,"x]\n["]\n',
    b'["C",1,1]\t,["A",2,3,"x]\n["]\n',
    b'["C",1,1],\r["A",2,3,"x]\n["]\n',
    # ... nested arrays, ...
    b'[["C",1,1]\n["C",2,2]],["C",3,3],["C",4,4]\n',
    b'["B",1,1,0.5,[3\n4],0]\n',
    # ... top-level scalars and objects, ...
    b'["C",1,1]\n5\n["C",2,2]\n',
    b'["C",1,1]\n{"C":2}\n["C",2,2]\n',
    b'["C",1,1]\n"C2"\n["C",2,2]\n',
    # ... two arrays on one line, ...
    b'["C",1,1],["C",2,2]\n',
    b'["C",1,1]["C",2,2]\n',
    b'["C",1,1] ["C",2,2]\n',
    # ... whitespace, ...
    b'["C", 1,1]\n["C",2,2]\n',
    b' ["C",1,1]\n["C",2,2] \n',
    b'["C",1,1]\r\n["C",2,2]\r\n',
    # ... blank lines, ...
    b'["C",1,1]\n\n["C",2,2]\n',
    b'\n\n',
    # ... short, long, unknown and empty records, ...
    b'["C",1]\n["U",2]\n',
    b'["C",1,2,3]\n',
    b'["Z",1]\n',
    b'[]\n',
    b'["B",1,1,0.5,7,0]\n',
    b'["B",1]\n["C",2,2]\n',
    # ... non-ASCII and NUL bytes, ...
    b'["A",1,1,"caf\xc3\xa9"]\n',
    b'["C",1,1]\n\x00\n',
    # ... and nothing at all, or one unterminated line
    b'',
    b'["C",1,1]',
])
def test_inputs_built_to_fool_the_bulk_path(data, frame_bytes):
    """None of them is a frame.  As a whole file (what a JSON-line log
    left in ``wal.log`` would be) each is refused, and only the empty
    one is an empty log.  Behind whole frames each is a torn tail when
    too short to hold a frame header, and corruption otherwise."""
    if data:
        with pytest.raises(WALCorruptionError):
            scan_wal(data)
    else:
        assert scan_wal(data) == ([], 0)
    records = _history(random.Random(len(data)), 8, live=True)
    log, prefixes = _log(records, frame_bytes)
    if len(data) < 12:
        assert scan_wal(log + data) == (records, len(log))
    else:
        with pytest.raises(WALCorruptionError):
            scan_wal(log + data)


def _reframe(body):
    """``body`` framed exactly as :func:`encode_frame` frames entries."""
    fields = struct.pack("<II", len(body), zlib.crc32(body))
    return fields + struct.pack("<I", zlib.crc32(fields)) + body


def test_nesting_deeper_than_the_parser_goes_fails_the_same_way(frame_bytes):
    """A frame that checks but holds a JSON entry too deep to parse is
    corruption like any other undecodable entry, at any frame size."""
    log, _ = _log(_history(random.Random(5), 8, live=True), frame_bytes)
    nested = b"[" * 5000 + b"]" * 5000
    entry = b"J" + struct.pack("<I", len(nested)) + nested
    with pytest.raises(WALCorruptionError):
        scan_wal(log + _reframe(entry))


def test_a_flipped_byte_in_any_but_the_final_frame_fails_loudly(frame_bytes):
    """The header CRC covers the length, so a flip there cannot pass for
    a frame running past the end of the file; the body CRC covers the
    rest."""
    records = _history(random.Random(11), 6)
    data, prefixes = _log(records, frame_bytes)
    # the file header, and every frame before the final one
    for at in range(prefixes[-2][0]):
        for bit in (0, 7):
            damaged = bytearray(data)
            damaged[at] ^= 1 << bit
            with pytest.raises(_DAMAGE):
                scan_wal(bytes(damaged))


def test_frames_must_continue_the_lsns_before_them():
    first = [UpdateRecord(1, 1, 2, 3), CommitRecord(2, 1)]
    gap = [UpdateRecord(4, 2, 2, 3), CommitRecord(5, 2)]
    whole = FILE_HEADER + encode_frame(first)
    assert scan_wal(whole + encode_frame(
        [UpdateRecord(3, 2, 2, 3)]))[0][-1].lsn == 3
    with pytest.raises(WALCorruptionError, match="LSN"):
        scan_wal(whole + encode_frame(gap))
    # a run covers as many LSNs as it has updates
    run = _run(random.Random(1), 6, 2, 4)
    assert scan_wal(whole + encode_frame([run]))[0][-1] == run
    with pytest.raises(WALCorruptionError, match="LSN"):
        scan_wal(whole + encode_frame([run._replace(lsn=7)]))


def test_a_log_of_another_format_version_is_refused():
    frame = encode_frame([CommitRecord(1, 1)])
    other = FILE_HEADER[:8] + struct.pack("<I", 2)
    with pytest.raises(WALFormatError, match="version"):
        scan_wal(other + frame)
    assert scan_wal(FILE_HEADER + frame) == ([CommitRecord(1, 1)],
                                             len(FILE_HEADER + frame))


# ---------------------------------------------------------------------------
# encoding: every record kind, in batches
# ---------------------------------------------------------------------------

def test_bulk_encode_matches_the_per_record_reference():
    rng = random.Random(14)
    kinds, active_lists = set(), 0
    for case in range(300):
        batch = _history(rng, rng.randint(1, 40))
        if case % 7 == 0:  # a batch need not start at a transaction
            batch = batch[rng.randrange(len(batch)):]
        kinds |= {type(record) for record in batch}
        active_lists += sum(1 for record in batch
                            if isinstance(record, BeginCheckpointRecord)
                            and record.active_txns)
        assert encode_records(batch) == b"".join(map(encode_record, batch))
        data = FILE_HEADER + encode_frame(batch)
        assert scan_wal(data) == (batch, len(data)), f"case {case}"
        assert [decode_record(encode_record(r)) for r in batch] == batch
    # every record type, and the one nested list, went through
    assert len(kinds) == 9 and active_lists > 50


#: reasons that must round-trip through a JSON-bodied entry
_HOSTILE_REASONS = ["a],[b", "],[", "x]\n[y", 'quo"te', "back\\slash\\",
                    "café ☃", "tab\tnewline\n"]


@pytest.mark.parametrize("reason", _HOSTILE_REASONS)
def test_bulk_encode_round_trips_every_hostile_reason(reason):
    batch = [UpdateRecord(1, 1, 5, 6), AbortRecord(2, 1, reason),
             BeginCheckpointRecord(3, 1, 0.25, (4, 9), 0),
             CommitRecord(4, 2)]
    data = FILE_HEADER + encode_frame(batch)
    assert scan_wal(data) == (batch, len(data))


def test_bulk_encode_of_the_empty_and_the_single_batch():
    assert encode_records([]) == b""
    assert scan_wal(FILE_HEADER + encode_frame([])) == ([], 24)
    for record in _history(random.Random(5), 30):
        assert encode_records([record]) == encode_record(record)
        assert decode_record(encode_record(record)) == record


# ---------------------------------------------------------------------------
# replay: whole committed runs vs the per-record reference
# ---------------------------------------------------------------------------

def test_batched_feed_matches_feed_each_on_mixed_histories():
    """Runs with ids repeated within and across them, per-record and
    logical updates, aborts followed by a rerun of the same id, markers,
    and batches that end inside a transaction: ``feed`` over any split
    equals ``feed_each`` over the whole history."""
    rng = random.Random(26)
    for case in range(300):
        records = _history(rng, rng.randint(1, 30), live=case % 3 == 0)
        reference = RedoApplier(np.zeros(_IDS, dtype=np.int64))
        reference.feed_each(records)
        applier = RedoApplier(np.zeros(_IDS, dtype=np.int64))
        cuts = sorted(rng.sample(range(len(records) + 1),
                                 rng.randint(0, min(4, len(records)))))
        for start, stop in zip([0] + cuts, cuts + [len(records)]):
            applier.feed(records[start:stop])
        assert applier.target.tolist() == reference.target.tolist(), case
        assert applier.finish() == reference.finish(), case


# ---------------------------------------------------------------------------
# restart: the streamed replay vs the whole-file reference
# ---------------------------------------------------------------------------

_DATA_DIR = Path("db")
_RESTART = LiveConfig(data_dir=str(_DATA_DIR), scale=2048,
                      checkpoint_interval=None, spans=False)


def _expected_restart(files, n_records):
    """What a restart over ``files`` must find, from the whole file read
    at once and replayed in one batch (or the error that refuses it)."""
    try:
        records, torn = read_wal(_DATA_DIR / "wal.log", files)
    except _DAMAGE as exc:
        return type(exc), None, None
    image = ImageStore(_DATA_DIR, files=files).read()
    values, counts = replay_durable(image, records, n_records)
    return RecoveryInfo(
        checkpoint_id=None if image is None else image.checkpoint_id,
        base_lsn=0 if image is None else image.base_lsn,
        records_scanned=log_updates(records),
        transactions_replayed=counts.transactions_committed,
        updates_dropped=counts.updates_dropped,
        torn_tail=torn), values, records[-1].lsn if records else 0


@pytest.mark.parametrize("damage", ["none", "torn", "crc", "gap"])
def test_streamed_restart_matches_the_whole_file_replay(frame_bytes, damage):
    """``LiveHost.recover`` hands each frame to REDO as it reads it;
    over clean, torn, CRC-damaged and LSN-gapped logs, with and without
    an image whose ``base_lsn`` falls anywhere in the log, it finds the
    same ``RecoveryInfo`` and values as ``replay_durable`` over
    ``read_wal`` -- or raises the same error."""
    rng = random.Random(f"{damage}/{frame_bytes}")
    outcomes = set()
    for case in range(25):
        records = _history(rng, rng.randint(1, 25), live=case % 2 == 0)
        frames, _ = _frames(records, frame_bytes)
        if damage == "gap" and len(frames) > 2:
            del frames[rng.randrange(1, len(frames) - 1)]
        data = FILE_HEADER + b"".join(frames)
        if damage == "torn":
            data = data[:rng.randrange(len(data) + 1)]
        elif damage == "crc" and len(frames) > 1:
            damaged = bytearray(data)
            damaged[rng.randrange(len(FILE_HEADER),
                                  len(data) - len(frames[-1]))] ^= 0x20
            data = bytes(damaged)
        files = MemoryFiles()
        wal = files.open_append(_DATA_DIR / "wal.log")
        wal.write(data)
        wal.close()
        host = LiveHost(_RESTART, files=files, scheduler=EngineScheduler())
        n_records = host.params.n_records
        if case % 3:
            base = rng.choice(records).lsn
            ImageStore(_DATA_DIR, files=files).install(
                case, base, np.arange(n_records, dtype=np.int64) * case)
        expected, values, last_lsn = _expected_restart(files, n_records)
        if values is None:
            with pytest.raises(expected):
                host.recover()
            outcomes.add("refused")
            continue
        assert host.recover() == expected, case
        assert host.database.values_snapshot().tolist() == values.tolist()
        assert host.log.stable_lsn == last_lsn  # resumes after the stream
        host.log.close()
        outcomes.add("torn" if expected.torn_tail else "recovered")
    seen, possible = {
        "none": ("recovered", {"recovered"}),
        "torn": ("torn", {"recovered", "torn"}),
        "crc": ("refused", {"recovered", "refused"}),
        "gap": ("refused", {"recovered", "refused"})}[damage]
    assert outcomes <= possible
    # at the largest size one frame holds a whole history: nothing to gap
    assert seen in outcomes or frame_bytes > 1024 and damage in ("crc", "gap")
