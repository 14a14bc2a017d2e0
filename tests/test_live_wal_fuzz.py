"""Differential fuzz: ``scan_wal``'s bulk decode vs the per-line reference.

``scan_wal`` decodes canonical-form slices with one ``json.loads`` each
and sends everything else through ``_scan_lines``, the per-line scanner
that defines what a WAL buffer means.  For every buffer -- clean,
mutated, or built to fool the bulk path's guards -- the two must return
identical ``(records, durable_bytes)`` or raise the same
``WALCorruptionError``.  Seeded ``random.Random``, so a failure
reproduces from its case number.  (The first piece of the byte-level
recovery fuzzer of ROADMAP item 4.)

The write side has the same shape: ``encode_records`` serialises a whole
batch with one ``json.dumps`` and must produce, byte for byte, what the
per-record ``encode_record`` produces -- falling back to it whenever a
string field could pass for a record boundary.
"""

import random

import pytest

from repro.errors import WALCorruptionError
from repro.live import wal
from repro.live.wal import encode_record, encode_records, scan_wal
from repro.wal.records import (
    AbortRecord,
    BeginCheckpointRecord,
    CommitRecord,
    EndCheckpointRecord,
    LogicalUpdateRecord,
    MediaFailureRecord,
    MediaRestoreRecord,
    UpdateRecord,
)

#: bytes that can turn one framing into another
_STRUCTURAL = [b"[", b"]", b",", b'"', b"\n", b" ", b"\t", b"\r", b"\\",
               b"\xc3", b"\xff", b"\x00"]


def _outcome(scan, data):
    try:
        return scan(data)
    except WALCorruptionError as exc:
        return str(exc)


def _assert_same(data, case=""):
    assert _outcome(scan_wal, data) == _outcome(wal._scan_lines, data), (
        f"bulk and per-line decode disagree ({case}) on {data!r}")


#: abort reasons: plain, escaped, long enough to outgrow a small slice
_CANONICAL_REASONS = ["aborted", "two-color", 'quo"te', "x" * 300]
#: ... and one whose line the bulk path must decline ("],[" in a string)
_REASONS = _CANONICAL_REASONS + ["a],[b"]


def _history(rng, n_txns, reasons=_REASONS):
    """A plausible log: transactions, aborts, checkpoint markers."""
    records, lsn = [], 0

    def emit(cls, *fields):
        nonlocal lsn
        lsn += 1
        records.append(cls(lsn, *fields))

    for txn_id in range(1, n_txns + 1):
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.2:
                emit(LogicalUpdateRecord, txn_id, rng.randrange(4096),
                     rng.randint(-9, 9))
            else:
                emit(UpdateRecord, txn_id, rng.randrange(4096),
                     rng.randrange(1 << 40))
        if rng.random() < 0.15:
            emit(AbortRecord, txn_id, rng.choice(reasons))
        else:
            emit(CommitRecord, txn_id)
        roll = rng.random()
        if roll < 0.1:
            active = tuple(rng.sample(range(1, 50), rng.randint(0, 3)))
            emit(BeginCheckpointRecord, txn_id, rng.random(), active, 0)
        elif roll < 0.2:
            emit(EndCheckpointRecord, txn_id, 0)
        elif roll < 0.23:
            emit(MediaFailureRecord, 0)
        elif roll < 0.26:
            emit(MediaRestoreRecord, 0, txn_id)
    return records


def _mutate(rng, data):
    """One small edit: flip, insert, delete, swap, split, merge or cut."""
    buf = bytearray(data)
    at = rng.randrange(len(buf))
    kind = rng.randrange(8)
    if kind == 0:
        buf[at] ^= 1 << rng.randrange(8)
    elif kind == 1:
        buf[at:at] = rng.choice(_STRUCTURAL)
    elif kind == 2:
        del buf[at]
    elif kind == 3 and at + 1 < len(buf):
        buf[at], buf[at + 1] = buf[at + 1], buf[at]
    elif kind == 4:
        buf[at:at] = b"\n"  # one array split across two lines
    elif kind == 5:
        # two arrays on one line, with and without a separator
        newline = buf.find(b"\n", at)
        if 0 <= newline < len(buf) - 1:
            buf[newline:newline + 1] = rng.choice([b"", b",", b" "])
    elif kind == 6:
        # a nested list split across lines
        nested = buf.find(b",[", at)
        if nested >= 0:
            comma = buf.find(b",", nested + 2)
            if comma >= 0:
                buf[comma + 1:comma + 1] = b"\n"
    else:
        del buf[at:]
    return bytes(buf)


@pytest.fixture(params=[64 * 1024, 256, 64])
def slice_bytes(request, monkeypatch):
    """The real slice bound, and ones small enough that records straddle
    slice edges and single lines outgrow a slice."""
    monkeypatch.setattr(wal, "_SLICE_BYTES", request.param)
    return request.param


def test_clean_log_takes_the_bulk_path_and_matches_the_reference(
        slice_bytes, monkeypatch):
    records = _history(random.Random(7), 60, _CANONICAL_REASONS)
    assert {type(r) for r in records} >= {
        UpdateRecord, LogicalUpdateRecord, CommitRecord, AbortRecord,
        BeginCheckpointRecord, EndCheckpointRecord}
    data = b"".join(encode_record(r) for r in records)
    assert wal._scan_lines(data) == (records, len(data))

    def never(*args):
        raise AssertionError("canonical lines fell back to per-line decode")

    # otherwise every comparison below would be the reference vs itself
    monkeypatch.setattr(wal, "_scan_lines", never)
    assert scan_wal(data) == (records, len(data))


def test_mutated_logs_decode_identically_or_fail_identically(slice_bytes):
    rng = random.Random(1989 + slice_bytes)
    outcomes = {"records": 0, "corrupt": 0}
    for case in range(1200):
        data = b"".join(encode_record(r)
                        for r in _history(rng, rng.randint(1, 12)))
        for _ in range(rng.randint(1, 3)):
            data = _mutate(rng, data) or b"\n"
        _assert_same(data, f"slice {slice_bytes}, case {case}")
        corrupt = isinstance(_outcome(scan_wal, data), str)
        outcomes["corrupt" if corrupt else "records"] += 1
    # the mutations land on both sides of the strictness contract
    assert outcomes["records"] > 100 and outcomes["corrupt"] > 100


def test_truncation_at_every_byte_of_the_last_records(slice_bytes):
    records = _history(random.Random(3), 8)
    data = b"".join(encode_record(r) for r in records)
    tail = sum(len(encode_record(r)) for r in records[-3:])
    for cut in range(len(data) - tail, len(data) + 1):
        _assert_same(data[:cut], f"cut at {cut}")
        kept, durable = scan_wal(data[:cut])
        # only whole, terminated lines survive, decodable tail or not
        assert durable == data.rfind(b"\n", 0, cut) + 1
        assert kept == records[:len(kept)]
        assert b"".join(encode_record(r) for r in kept) == data[:durable]


@pytest.mark.parametrize("data", [
    # a string swallows a line boundary while a top-level string supplies
    # the element it hides: N lines, N elements, all tag-shaped
    b'["C",1,1],"A]\n["]\n',
    b'["C",1,1]\n["C",2,2],"A]\n["]\n["C",3,3]\n',
    b'["A",1,2,"x]\n["]\n',
    # ... or a second top-level list does, behind each separator JSON
    # allows between elements
    b'["C",1,1],["A",2,3,"x]\n["]\n',
    b'["C",1,1], ["A",2,3,"x]\n["]\n',
    b'["C",1,1]\t,["A",2,3,"x]\n["]\n',
    b'["C",1,1],\r["A",2,3,"x]\n["]\n',
    # a nested array swallows the boundary instead
    b'[["C",1,1]\n["C",2,2]],["C",3,3],["C",4,4]\n',
    b'["B",1,1,0.5,[3\n4],0]\n',
    # top-level scalars and objects between well-formed records
    b'["C",1,1]\n5\n["C",2,2]\n',
    b'["C",1,1]\n{"C":2}\n["C",2,2]\n',
    b'["C",1,1]\n"C2"\n["C",2,2]\n',
    # two arrays on one line, every separator
    b'["C",1,1],["C",2,2]\n',
    b'["C",1,1]["C",2,2]\n',
    b'["C",1,1] ["C",2,2]\n',
    # whitespace the per-line JSON parse tolerates inside a line
    b'["C", 1,1]\n["C",2,2]\n',
    b' ["C",1,1]\n["C",2,2] \n',
    b'["C",1,1]\r\n["C",2,2]\r\n',
    # blank lines are skipped, not records
    b'["C",1,1]\n\n["C",2,2]\n',
    b'\n\n',
    # short lines take their defaults; long, unknown and empty ones rot
    b'["C",1]\n["U",2]\n',
    b'["C",1,2,3]\n',
    b'["Z",1]\n',
    b'[]\n',
    b'["B",1,1,0.5,7,0]\n',
    b'["B",1]\n["C",2,2]\n',
    # non-ASCII and NUL bytes
    b'["A",1,1,"caf\xc3\xa9"]\n',
    b'["C",1,1]\n\x00\n',
    # nothing durable at all
    b'',
    b'["C",1,1]',
])
def test_inputs_built_to_fool_the_bulk_path(data, slice_bytes):
    _assert_same(data)


def test_nesting_deeper_than_the_parser_goes_fails_the_same_way(slice_bytes):
    # the bulk parse nests one level deeper than the per-line one, so it
    # must hand a RecursionError back to the reference, not raise its own
    data = b'["C",1]\n' + b"[" * 5000 + b"]" * 5000 + b"\n"
    for scan in (scan_wal, wal._scan_lines):
        with pytest.raises(RecursionError):
            scan(data)


# ---------------------------------------------------------------------------
# the write side: bulk encode vs the per-record reference
# ---------------------------------------------------------------------------

#: reasons the bulk encoder must survive: its own separator before and
#: after framing, and everything JSON escapes
_HOSTILE_REASONS = ["a],[b", "],[", "x]\n[y", 'quo"te', "back\\slash\\",
                    "caf\u00e9 \u2603", "tab\tnewline\n"]


def _reference(batch):
    return b"".join(map(encode_record, batch))


def _counting_encode_record(monkeypatch):
    calls = []

    def counted(record):
        calls.append(record)
        return encode_record(record)

    monkeypatch.setattr(wal, "encode_record", counted)
    return calls


def test_bulk_encode_matches_the_per_record_reference():
    rng = random.Random(14)
    kinds, active_lists = set(), 0
    for case in range(300):
        reasons = _CANONICAL_REASONS + (_HOSTILE_REASONS if case % 2 else [])
        batch = _history(rng, rng.randint(1, 40), reasons)
        if case % 7 == 0:  # a batch need not start at a transaction
            batch = batch[rng.randrange(len(batch)):]
        kinds |= {type(record) for record in batch}
        active_lists += sum(1 for record in batch
                            if isinstance(record, BeginCheckpointRecord)
                            and record.active_txns)
        data = encode_records(batch)
        assert data == _reference(batch), f"case {case}"
        assert scan_wal(data) == (batch, len(data)), f"case {case}"
    # every record type, and the one nested list, went through
    assert len(kinds) == 8 and active_lists > 50


@pytest.mark.parametrize("reason", _HOSTILE_REASONS)
def test_bulk_encode_round_trips_every_hostile_reason(reason):
    batch = [UpdateRecord(1, 1, 5, 6), AbortRecord(2, 1, reason),
             BeginCheckpointRecord(3, 1, 0.25, (4, 9), 0),
             CommitRecord(4, 2)]
    data = encode_records(batch)
    assert data == _reference(batch)
    assert scan_wal(data) == (batch, len(data))


def test_bulk_encode_of_the_empty_and_the_single_batch():
    assert encode_records([]) == b""
    for record in _history(random.Random(5), 30):
        assert encode_records([record]) == encode_record(record)


def test_clean_batch_is_encoded_in_bulk_and_a_hostile_one_per_record(
        monkeypatch):
    calls = _counting_encode_record(monkeypatch)
    clean = _history(random.Random(7), 60, _CANONICAL_REASONS)
    assert any(isinstance(r, BeginCheckpointRecord) and r.active_txns
               for r in clean)
    assert encode_records(clean) == _reference(clean)
    assert calls == []  # otherwise the comparison is reference vs itself
    # one boundary look-alike in one string field sends the batch back
    hostile = clean + [AbortRecord(len(clean) + 1, 99, "a],[b")]
    assert encode_records(hostile) == _reference(hostile)
    assert calls == hostile
