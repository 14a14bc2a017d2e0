"""The wall-clock host's durability substrate, in-process.

Everything here runs the real file formats -- the framed WAL and the
atomically-renamed image -- against a tmp directory, with
``Files(sync=False)`` so the suite is not gated on disk latency (the
framing and atomicity logic under test is identical either way; the
subprocess SIGKILL tests in ``test_live_smoke.py`` run with fsync on).
The I/O-failure tests run on the in-memory port
(``tests/memfiles.py``), which raises a scripted ``OSError`` at a
chosen file operation.
"""

import gc
import io
import json
import random
import re
import socket
import struct
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (AddressError, ConfigurationError,
                          InvalidStateError, WALCorruptionError,
                          WALFailedError, WALFormatError)
from repro.live import server as live_server
from repro.live import wal as live_wal
from repro.live.files import Files
from repro.live.host import (CommitResult, LiveConfig, LiveHost,
                             transaction_columns)
from repro.live.server import Endpoint, check, serve
from repro.live.store import ImageStore
from repro.live.wal import DurableLog, decode_record, encode_record, read_wal
from repro.mmdb.database import Database
from repro.obs.attribution import (attribute_stalls, checkpoint_intervals,
                                   decompose_quantiles)
from repro.params import SystemParameters
from repro.recovery.replay import RecordMismatch
from repro.wal.log import LogManager
from repro.wal.records import (BeginCheckpointRecord, CommitRecord,
                                LogicalUpdateRecord, UpdateRecord, UpdateRun)
from tests.engine import EngineScheduler
from tests.helpers import columns
from tests.memfiles import MemoryFiles

#: the real filesystem without fsync
NO_SYNC = Files(sync=False)


@pytest.fixture()
def live_params():
    return SystemParameters.scaled_down(2048)


@pytest.fixture()
def wal_path(tmp_path):
    return tmp_path / "wal.log"


def _fresh_log(params, path):
    return DurableLog(params, path, files=NO_SYNC)


# ---------------------------------------------------------------------------
# WAL file format
# ---------------------------------------------------------------------------

def test_wal_frame_format_round_trips_every_record_kind(live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(7, 100)]))
    log.append_update_run(1, np.array([8, 9, 8], "<i8").tobytes(),
                          np.array([-1, 2**63 - 1, 3], "<i8").tobytes())
    log.append_logical_updates(1, [(8, 5)])
    log.append_commit(1)
    log.append_abort(2, reason="conflict")
    log.append_begin_checkpoint(1, timestamp=0.5, active_txns=(3, 4), image=0)
    log.append_end_checkpoint(1, image=0)
    log.append_media_failure(0)
    log.append_media_restore(0, checkpoint_id=1)
    originals = list(log._tail)
    log.flush()
    log.close()
    for record in originals:
        assert decode_record(encode_record(record)) == record
    records, torn = read_wal(wal_path)
    assert not torn
    assert records == originals
    assert wal_path.read_bytes() == (live_wal.FILE_HEADER
                                     + live_wal.encode_frame(originals))
    # no log appends a lone update record, but the codec carries it
    update = UpdateRecord(1, 1, 7, 100)
    assert decode_record(encode_record(update)) == update
    assert live_wal.scan_wal(live_wal.FILE_HEADER
                             + live_wal.encode_frame([update]))[0] == [update]


def test_wal_flush_lands_records_before_waiters_fire(live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    commit = log.append_commit(1)
    on_disk_at_ack = []
    log.when_stable(commit.lsn,
                    lambda: on_disk_at_ack.append(read_wal(wal_path)[0]))
    assert on_disk_at_ack == []  # not stable until the flush
    log.flush()
    log.close()
    # the waiter ran, and at that instant the commit was already on disk
    assert len(on_disk_at_ack) == 1
    assert any(r.lsn == commit.lsn for r in on_disk_at_ack[0])


def test_wal_torn_tail_dropped_but_prefix_trusted(live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    commit = log.append_commit(1)
    log.flush()
    log.close()
    with open(wal_path, "ab") as file:
        file.write(b'["C",99')  # SIGKILL mid-write: no newline, no ack
    records, torn = read_wal(wal_path)
    assert torn
    assert [r.lsn for r in records] == [commit.lsn - 1, commit.lsn]


def test_wal_reopen_truncates_a_torn_tail_before_appending(
        live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    first = log.append_commit(1)
    log.flush()
    log.close()
    garbage = b'["C",99'  # SIGKILL mid-write: no newline
    with open(wal_path, "ab") as file:
        file.write(garbage)
    # Reopening repairs the file *before* append mode, so the next
    # flush cannot fuse new records onto the partial line.
    reborn = _fresh_log(live_params, wal_path)
    assert reborn.repaired_bytes == len(garbage)
    records, torn = read_wal(wal_path)
    assert not torn  # the tear is gone from disk
    reborn.hydrate()
    reborn.append_update_run(2, *columns([(4, 43)]))
    second = reborn.append_commit(2)
    reborn.flush()
    reborn.close()
    # crash -> restart -> commit -> crash: the second restart must see
    # every acknowledged record, old and new
    records, torn = read_wal(wal_path)
    assert not torn
    assert [r.lsn for r in records] == [
        first.lsn - 1, first.lsn, second.lsn - 1, second.lsn]
    clean = _fresh_log(live_params, wal_path)
    assert clean.repaired_bytes == 0
    clean.close()


def test_wal_final_frame_short_of_one_byte_is_torn_even_if_it_decodes(
        live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    first = log.append_commit(1)
    log.flush()
    durable = wal_path.stat().st_size
    log.append_update_run(2, *columns([(4, 43)]))
    log.append_commit(2)
    log.flush()
    log.close()
    # a tear that takes only the last frame's final byte leaves its
    # header and most of its entries -- but its flush never finished,
    # so it was never acknowledged
    whole = wal_path.read_bytes()
    wal_path.write_bytes(whole[:-1])
    records, torn = read_wal(wal_path)
    assert torn
    assert [r.lsn for r in records] == [first.lsn - 1, first.lsn]
    reborn = _fresh_log(live_params, wal_path)
    assert reborn.repaired_bytes == len(whole) - 1 - durable
    assert wal_path.read_bytes() == whole[:durable]
    reborn.hydrate()
    reborn.append_update_run(3, *columns([(5, 44)]))
    second = reborn.append_commit(3)
    reborn.flush()
    reborn.close()
    # the next frame did not fuse onto the cut one, so the restart after
    # it reads the new commit instead of raising over it
    scanned = []
    again = DurableLog(live_params, wal_path, files=NO_SYNC,
                       on_frame=scanned.extend)
    assert again.repaired_bytes == 0
    assert [r.lsn for r in scanned] == [
        first.lsn - 1, first.lsn, second.lsn - 1, second.lsn]
    again.close()


def test_wal_interior_corruption_fails_loudly(live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    log.append_commit(1)
    log.flush()
    log.append_update_run(2, *columns([(4, 43)]))
    log.append_commit(2)
    log.flush()
    log.close()
    # a flipped byte inside the first of two frames cannot be a torn
    # tail; dropping the suffix would lose acknowledged commits
    damaged = bytearray(wal_path.read_bytes())
    damaged[len(live_wal.FILE_HEADER) + 20] ^= 0x10
    wal_path.write_bytes(bytes(damaged))
    with pytest.raises(WALCorruptionError):
        read_wal(wal_path)
    with pytest.raises(WALCorruptionError):
        _fresh_log(live_params, wal_path)  # refuse to append after rot


def test_wal_truncation_rewrites_the_file_atomically(live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    for txn_id in (1, 2, 3):  # one frame per transaction
        log.append_update_run(txn_id, *columns([(txn_id, txn_id * 10)]))
        log.append_commit(txn_id)
        log.flush()
    old = wal_path.read_bytes()
    horizon = log.stable_lsn - 1  # the last frame's first LSN
    reclaimed = log.truncate_stable_before(horizon)
    # two frames of one update and one commit each went
    assert reclaimed == 2 * (live_params.s_rec + live_params.s_log_header
                             + live_params.s_log_commit)
    frame = live_wal.encode_frame([UpdateRun(horizon, 3, *columns([(3, 30)])),
                                   CommitRecord(horizon + 1, 3)])
    assert wal_path.read_bytes() == live_wal.FILE_HEADER + frame
    assert old.endswith(frame)
    assert not wal_path.with_name(wal_path.name + ".tmp").exists()
    # the log is still appendable through the reopened file
    log.append_update_run(4, *columns([(4, 40)]))
    log.append_commit(4)
    log.flush()
    log.close()
    records, _ = read_wal(wal_path)
    assert [r.lsn for r in records] == [horizon, horizon + 1,
                                        horizon + 2, horizon + 3]
    assert records[-1].lsn == log.stable_lsn


def test_wal_hydrate_resumes_lsns_where_the_crash_left_them(
        live_params, wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    last = log.append_commit(1)
    log.flush()
    log.close()
    reborn = _fresh_log(live_params, wal_path)
    reborn.hydrate()
    assert reborn.stable_lsn == last.lsn
    fresh = reborn.append_update_run(2, *columns([(4, 43)]))
    assert fresh.lsn == last.lsn + 1  # no LSN reuse across restart
    with pytest.raises(ConfigurationError):
        reborn.hydrate()  # only a fresh log may resume a history
    reborn.close()


def test_wal_open_keeps_the_scanned_records_for_a_single_adoption(
        live_params, wal_path):
    scanned = []
    log = DurableLog(live_params, wal_path, files=NO_SYNC,
                     on_frame=scanned.append)
    assert scanned == []  # a new file has no history
    log.append_update_run(1, *columns([(3, 42)]))
    last = log.append_commit(1)
    originals = list(log._tail)
    log.flush()
    log.append_begin_checkpoint(1, timestamp=0.5, active_txns=(), image=0)
    marker = log._tail[0]
    log.flush()
    log.close()
    reborn = DurableLog(live_params, wal_path, files=NO_SYNC,
                        on_frame=scanned.append)
    # one hand-over per frame, in file order
    assert scanned == [originals, [marker]]
    reborn.hydrate()
    # the horizon resumes, and no record stays: the file is the log
    assert reborn.stable_lsn == marker.lsn == last.lsn + 1
    assert reborn._stable is None and reborn._tail == []
    assert not hasattr(reborn, "recovered_records")
    with pytest.raises(ConfigurationError):
        reborn.hydrate()
    reborn.close()


def test_wal_rejects_stable_log_tail(live_params, wal_path):
    params = live_params.replace(stable_log_tail=True)
    with pytest.raises(ConfigurationError):
        DurableLog(params, wal_path, files=NO_SYNC)


def test_durable_log_refuses_the_in_memory_stable_log_readers(live_params,
                                                              wal_path):
    log = _fresh_log(live_params, wal_path)
    log.append_update_run(1, *columns([(3, 42)]))
    log.append_commit(1)
    log.flush()
    # its file is the stable log: no reader gets an empty list instead
    for read in (log.stable_records, lambda: log.stable_words_from(0),
                 log.find_last_completed_checkpoint,
                 log.drain_newly_stable):
        with pytest.raises(InvalidStateError):
            read()
    log.close()


@pytest.mark.parametrize("make_files", [lambda: NO_SYNC, MemoryFiles],
                         ids=["files", "memory"])
def test_wal_bulk_flushes_keep_no_stable_record_in_memory(
        live_params, wal_path, make_files):
    """Thousands of group flushes with no truncation: the log keeps a
    few words per frame, not the frame's records.  (On the in-memory
    port, the files' own contents are subtracted: a disk holds those.)"""
    ids = np.arange(64, dtype=np.int64) * 3

    def flushes(n: int) -> None:
        for txn_id in range(n):
            # fresh columns per transaction, as the server parses them
            log.append_update_run(txn_id, ids.tobytes(),
                                  np.full(64, txn_id, np.int64).tobytes())
            log.flush()

    tracemalloc.start()
    try:
        files = make_files()
        held = getattr(files, "content_bytes", lambda: 0)
        log = DurableLog(live_params, wal_path, files=files)
        flushes(100)  # warm-up
        before = tracemalloc.get_traced_memory()[0] - held()
        flushes(2000)
        grown = tracemalloc.get_traced_memory()[0] - held() - before
    finally:
        tracemalloc.stop()
    log.close()
    assert log.flush_count == 2100
    # kept, the 2,000 runs would hold ~2.3 MB (1 KiB of columns each);
    # the frame index costs 24 B a frame, the memory port's trace 16 B
    assert grown < 64 * 2000, f"{grown} bytes kept by 2,000 flushes"


def test_wal_truncation_copies_the_surviving_frames_byte_for_byte():
    """A checkpoint's truncation leaves the header plus the old file's
    frames from the begin marker on, unchanged, and a restart from the
    rewritten file equals the database."""
    files = MemoryFiles()
    host = _engine_host(files)
    host.start()
    cuts = []
    truncate = host.log.truncate_stable_before

    def recording(lsn: int) -> int:
        old = files.read(host.wal_path)
        reclaimed = truncate(lsn)
        cuts.append((lsn, old, files.read(host.wal_path)))
        return reclaimed

    host.log.truncate_stable_before = recording
    try:
        for i in range(20):
            host.submit([(i, 100 + i), (i + 50, i)])
        host.scheduler.call(host.checkpointer.start_checkpoint)
        host.submit([(0, 7)])  # dispatches the writer and its finish
        assert len(host.checkpointer.history) == 1
        for i in range(5):
            host.submit([(i, 200 + i)])
        values = host.database.values_snapshot()
    finally:
        host.stop()
    [(lsn, old, new)] = cuts
    frames = []
    live_wal.scan_wal(old, frames=frames)
    survivors = new[len(live_wal.FILE_HEADER):]
    assert new.startswith(live_wal.FILE_HEADER) and old.endswith(survivors)
    # the cut is a frame boundary, and the first frame kept opens with
    # the checkpoint's begin marker
    assert len(old) - len(survivors) in [offset for offset, _ in frames]
    [first, *_], _ = live_wal.scan_wal(new)
    assert isinstance(first, BeginCheckpointRecord) and first.lsn == lsn
    reborn = _engine_host(files)
    reborn.start()
    try:
        np.testing.assert_array_equal(reborn.database.values_snapshot(),
                                      values)
        assert reborn.verify() == []
    finally:
        reborn.stop()


def test_wal_truncation_refuses_a_file_cut_short_behind_its_back(
        live_params, wal_path):
    files = MemoryFiles()
    log = DurableLog(live_params, wal_path, files=files)
    for txn_id in (1, 2, 3):
        log.append_update_run(txn_id, *columns([(txn_id, txn_id)]))
        log.append_commit(txn_id)
        log.flush()
    file = files.open_append(wal_path)
    files.truncate(file, len(files.read(wal_path)) - 5)
    file.close()
    damaged = files.read(wal_path)
    # the survivors are copied from the file: a short read is not a log
    with pytest.raises(WALCorruptionError):
        log.truncate_stable_before(log.stable_lsn)
    assert files.read(wal_path) == damaged and log.failure is None
    log.close()


def test_wal_mid_frame_cut_keeps_the_frame_whole_and_recovers_exactly():
    files = MemoryFiles()
    directory = Path("/nonexistent/live")
    params = SystemParameters.scaled_down(2048)
    log = DurableLog(params, directory / "wal.log", files=files)

    def commit(txn_id: int, pairs) -> None:
        log.append_update_run(txn_id, *columns(pairs))
        log.append_commit(txn_id)

    commit(1, [(1, 10)])                   # frame 0: LSNs 1-2
    log.flush()
    commit(2, [(2, 20), (3, 21)])          # frame 1: LSNs 3-5 ...
    commit(3, [(2, 30)])                   # ... and 6-7
    log.flush()
    commit(4, [(4, 40)])                   # frame 2: LSNs 8-9
    log.flush()
    old = files.read(log.path)
    frames = []
    live_wal.scan_wal(old, frames=frames)
    # an image taken after transaction 2, and a cut inside frame 1
    image = np.zeros(params.n_records, dtype=np.int64)
    image[[1, 2, 3]] = [10, 20, 21]
    ImageStore(directory, files=files).install(1, 5, image)
    reclaimed = log.truncate_stable_before(6)
    log.close()
    assert reclaimed == (params.s_rec + params.s_log_header
                         + params.s_log_commit)
    # frame 1 is kept whole, transaction 2 (below the cut) and all
    assert files.read(log.path) == live_wal.FILE_HEADER + old[frames[1][0]:]
    host = _engine_host(files)
    recovery = host.start()
    try:
        assert recovery.base_lsn == 5
        expected = np.zeros(params.n_records, dtype=np.int64)
        expected[[1, 2, 3, 4]] = [10, 30, 21, 40]
        np.testing.assert_array_equal(host.database.values_snapshot(),
                                      expected)
        assert host.verify() == []
    finally:
        host.stop()


# ---------------------------------------------------------------------------
# image store
# ---------------------------------------------------------------------------

def test_image_store_round_trip_and_replacement(tmp_path):
    store = ImageStore(tmp_path, files=NO_SYNC)
    assert store.load() is None
    first = np.arange(16, dtype=np.int64)
    store.install(1, 10, first)
    second = first * 2
    store.install(2, 25, second)
    image = store.load()
    assert image.checkpoint_id == 2
    assert image.base_lsn == 25
    np.testing.assert_array_equal(image.values, second)
    assert store.installs == 2


def test_image_store_ignores_a_crashed_install(tmp_path):
    store = ImageStore(tmp_path, files=NO_SYNC)
    store.install(1, 10, np.arange(8, dtype=np.int64))
    # a crash before the rename leaves only the temp file behind
    tmp = tmp_path / (ImageStore.FILENAME + ".tmp")
    tmp.write_bytes(b"half an npz")
    image = store.load()
    assert image.checkpoint_id == 1  # the old image is still the truth
    assert not tmp.exists()


def test_image_store_hold_runs_at_both_phase_boundaries(tmp_path):
    store = ImageStore(tmp_path, files=NO_SYNC)
    phases = []

    def hold(phase):
        phases.append((phase, store.path.exists()))

    store.install(1, 0, np.zeros(4, dtype=np.int64), hold=hold)
    # pre-install: rename pending, so the image path does not exist yet
    assert phases == [("pre-install", False), ("post-install", True)]


# ---------------------------------------------------------------------------
# the assembled host
# ---------------------------------------------------------------------------

def _host(tmp_path, files=None, **overrides):
    settings = dict(data_dir=str(tmp_path), scale=2048,
                    checkpoint_interval=None, flush_interval=0.002,
                    fsync=False)
    settings.update(overrides)
    return LiveHost(LiveConfig(**settings), files=files)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _park_dispatcher(host):
    """Hold the dispatcher inside a callback until the returned event is
    set: whatever is submitted meanwhile queues up behind it."""
    parked, release = threading.Event(), threading.Event()

    def park() -> None:
        parked.set()
        release.wait(10.0)

    host.scheduler.submit(park)
    assert parked.wait(2.0)
    return release


@contextmanager
def _serving(host):
    """An :class:`Endpoint` on the started ``host``, closed on exit."""
    endpoint = Endpoint(host)
    try:
        yield endpoint
    finally:
        host.scheduler.call(endpoint.close)


def _server_replies(host, requests):
    """Send ``requests`` down one connection to a server on ``host``;
    returns the decoded replies."""
    return _raw_server_replies(
        host, b"".join(json.dumps(r).encode() + b"\n" for r in requests))


def _raw_server_replies(host, stream: bytes):
    """Send ``stream`` down one loopback connection to a server on the
    started ``host`` and end the connection's input; returns the decoded
    replies, read until the server closes the connection."""
    with _serving(host) as endpoint, socket.create_connection(
            ("127.0.0.1", endpoint.port), timeout=10) as conn:
        def send() -> None:
            try:
                conn.sendall(stream)
                conn.shutdown(socket.SHUT_WR)
            except OSError:  # closed before it read everything
                pass

        sender = threading.Thread(target=send)
        sender.start()
        received = bytearray()
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                received += chunk
        except ConnectionResetError:  # closed with input left unread
            pass
        sender.join(10)
    return [json.loads(line) for line in received.splitlines()]


def _lines(conn, count: int):
    """Read ``count`` reply lines from ``conn``."""
    received = bytearray()
    while received.count(b"\n") < count:
        chunk = conn.recv(65536)
        assert chunk, "connection closed early"
        received += chunk
    return [json.loads(line) for line in received.splitlines()]


def test_live_host_commit_read_verify_and_restart(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        for i in range(20):
            result = host.submit([(i, 1000 + i)])
            assert result.latency >= 0.0
        multi = host.submit([(50, 1), (51, 2), (52, 3)])
        assert multi.commit_lsn > 0
        assert host.read(7) == 1007
        assert host.read(51) == 2
        assert host.verify() == []
        assert host.scheduler.errors == []
    finally:
        host.stop()

    reborn = _host(tmp_path)
    recovery = reborn.start()
    try:
        assert recovery.checkpoint_id is None  # no checkpoint ran
        assert recovery.transactions_replayed == 21
        assert recovery.updates_dropped == 0
        assert not recovery.torn_tail
        assert reborn.read(7) == 1007
        assert reborn.read(52) == 3
        assert reborn.verify() == []
        # txn ids continue past the previous incarnation's
        assert reborn.submit([(0, 9)]).txn_id == 22
    finally:
        reborn.stop()


def test_live_host_checkpoint_truncates_and_recovery_uses_the_image(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        for i in range(10):
            host.submit([(i, 2000 + i)])
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: host.checkpointer.history)
        stats = host.checkpointer.history[0]
        assert stats.checkpoint_id == 1
        assert stats.words_written > 0
        # post-checkpoint traffic: only this should need REDO at restart
        host.submit([(3, 7777)])
        assert host.verify() == []
        assert host.scheduler.errors == []
    finally:
        host.stop()

    image = ImageStore(tmp_path).load()
    assert image is not None and image.checkpoint_id == 1
    records, torn = read_wal(tmp_path / "wal.log")
    assert not torn
    # truncation reclaimed everything at or below the image's horizon
    assert all(r.lsn > image.base_lsn for r in records)

    reborn = _host(tmp_path)
    recovery = reborn.start()
    try:
        assert recovery.checkpoint_id == 1
        assert recovery.base_lsn == image.base_lsn
        assert recovery.transactions_replayed == 1
        assert reborn.read(3) == 7777
        assert reborn.read(9) == 2009
        assert reborn.verify() == []
        # checkpoint ids keep counting from the recovered image
        reborn.scheduler.call(reborn.checkpointer.start_checkpoint)
        assert _wait_until(lambda: reborn.checkpointer.history)
        assert reborn.checkpointer.history[0].checkpoint_id == 2
    finally:
        reborn.stop()


def _failing_image_write(error):
    """An in-memory port whose next image install raises ``error`` at
    its first file operation."""
    return MemoryFiles(faults={f"create {ImageStore.FILENAME}.tmp": error})


def test_live_host_survives_a_failed_checkpoint_image_write(tmp_path):
    """ENOSPC on the writer thread must not wedge checkpointing forever."""
    files = _failing_image_write(OSError(28, "No space left on device"))
    host = _host(tmp_path, files, spans=True)
    host.start()
    acked = {}
    try:
        for i in range(10):
            host.submit([(i, 3000 + i)])
            acked[i] = 3000 + i
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: host.checkpointer.checkpoints_failed)
        # the failure is surfaced, the checkpointer is idle again, and
        # the old image (none) + the untruncated log are left alone
        assert not host.checkpointer.active
        assert host.checkpointer.history == []
        assert host.stats()["checkpoints_failed"] == 1
        error = host.checkpointer.last_failure
        assert isinstance(error, OSError) and error.errno == 28
        assert host.scheduler.errors == []
        assert ImageStore(tmp_path, files=files).load() is None
        assert len(read_wal(tmp_path / "wal.log", files)[0]) >= 20

        host.submit([(3, 8888)])
        acked[3] = 8888
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: host.checkpointer.history)
        [stats] = host.checkpointer.history
        assert stats.checkpoint_id == 2
        assert host.stats()["checkpoints_completed"] == 1
        assert host.verify() == []
        ckpts = [span for span in host.spans_snapshot()
                 if span["name"] == "ckpt"]
        assert ["error" in span["fields"] for span in ckpts] == [True, False]
        host.submit([(4, 9999)])
        acked[4] = 9999
    finally:
        host.stop()

    reborn = _host(tmp_path, files)
    recovery = reborn.start()
    try:
        assert recovery.checkpoint_id == 2
        assert {i: reborn.read(i) for i in acked} == acked
        assert reborn.verify() == []
    finally:
        reborn.stop()


def test_a_failed_checkpoint_does_not_stop_the_paced_ones(tmp_path):
    host = LiveHost(LiveConfig(data_dir=str(tmp_path), scale=2048,
                               checkpoint_interval=0.05,
                               flush_interval=0.002, fsync=False),
                    files=_failing_image_write(OSError(5, "I/O error")))
    host.start()
    try:
        host.submit([(1, 11)])
        assert _wait_until(lambda: host.checkpointer.history)
        assert host.checkpointer.checkpoints_failed == 1
        assert host.checkpointer.history[0].checkpoint_id == 2
    finally:
        host.stop()


def test_failed_checkpoints_retain_no_snapshot(tmp_path):
    """A full disk fails every checkpoint; memory must not grow with
    them: only the latest failure is kept, and it holds no snapshot."""
    files = MemoryFiles()
    host = _host(tmp_path, files, scale=64)
    host.start()
    snapshot_bytes = host.database.n_records * 8
    try:
        host.submit([(0, 1)])
        tracemalloc.start()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for failures in range(1, 5):
            files.faults[f"create {ImageStore.FILENAME}.tmp"] = OSError(
                28, "No space left on device")
            host.scheduler.call(host.checkpointer.start_checkpoint)
            assert _wait_until(
                lambda: host.checkpointer.checkpoints_failed == failures)
            assert host.submit([(failures, failures)]).commit_lsn > 0
        assert _wait_until(lambda: not any(
            thread.name == "ckpt-writer" for thread in threading.enumerate()))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        assert grown < snapshot_bytes
        error = host.checkpointer.last_failure
        assert isinstance(error, OSError) and error.errno == 28
        assert host.scheduler.errors == []
        # the disk has room again: the next checkpoint completes
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: host.checkpointer.history)
        assert host.checkpointer.history[0].checkpoint_id == 5
        assert host.verify() == []
    finally:
        tracemalloc.stop()
        host.stop()


def test_live_host_recovery_drops_a_torn_tail(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        for i in range(5):
            host.submit([(i, 3000 + i)])
    finally:
        host.stop()
    with open(tmp_path / "wal.log", "ab") as file:
        file.write(b'["U",999,99')  # crash mid-flush

    reborn = _host(tmp_path)
    recovery = reborn.start()
    try:
        assert recovery.torn_tail
        assert recovery.transactions_replayed == 5
        assert reborn.read(4) == 3004
        assert reborn.verify() == []
    finally:
        reborn.stop()


def test_live_host_commits_after_a_torn_tail_survive_a_second_crash(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        for i in range(5):
            host.submit([(i, 3000 + i)])
    finally:
        host.stop()
    with open(tmp_path / "wal.log", "ab") as file:
        file.write(b'["U",999,99')  # first crash: torn flush

    second = _host(tmp_path)
    recovery = second.start()
    try:
        assert recovery.torn_tail
        second.submit([(7, 7007)])  # acknowledged after the repair
    finally:
        second.stop()
    # the repaired file parses end to end: the new commit was appended
    # after the truncated prefix, not fused into the garbage line
    records, torn = read_wal(tmp_path / "wal.log")
    assert not torn

    third = _host(tmp_path)
    recovery = third.start()
    try:
        assert not recovery.torn_tail
        assert recovery.transactions_replayed == 6
        assert third.read(7) == 7007  # the post-tear commit survived
        assert third.read(4) == 3004
        assert third.verify() == []
    finally:
        third.stop()


@pytest.mark.parametrize("txns, next_txn_id", [((3, 4), 5), ((), 1)])
def test_live_host_restart_past_trailing_markers_keeps_txn_ids(
        tmp_path, txns, next_txn_id):
    """The next transaction id is one past the last one logged, however
    many checkpoint markers follow it (and 1 with none logged)."""
    log = DurableLog(SystemParameters.scaled_down(2048),
                     tmp_path / "wal.log", files=NO_SYNC)
    for txn_id in txns:
        log.append_update_run(txn_id, *columns([(txn_id, 10 * txn_id)]))
        log.append_commit(txn_id)
    log.append_begin_checkpoint(1, 0.0, (), image=0)
    log.append_end_checkpoint(1, image=0)
    log.flush()
    log.close()
    reborn = _host(tmp_path)
    reborn.start()
    try:
        assert reborn.submit([(0, 1)]).txn_id == next_txn_id
        assert reborn.verify() == []
    finally:
        reborn.stop()


def test_live_host_restart_reads_and_scans_the_wal_once(tmp_path,
                                                        monkeypatch):
    host = _host(tmp_path)
    host.start()
    try:
        for i in range(5):
            host.submit([(i, 3000 + i)])
    finally:
        host.stop()
    scans, reads, opens = [], [], []
    real_scan, real_read = live_wal.scan_wal, Path.read_bytes
    real_open = Files.open_read

    def counting_scan(data, **kwargs):
        scans.append(len(data))
        return real_scan(data, **kwargs)

    def counting_read(path):
        reads.append(path.name)
        return real_read(path)

    def counting_open(files, path):
        opens.append(path.name)
        return real_open(files, path)

    monkeypatch.setattr(live_wal, "scan_wal", counting_scan)
    monkeypatch.setattr(Path, "read_bytes", counting_read)
    monkeypatch.setattr(Files, "open_read", counting_open)
    reborn = _host(tmp_path)
    recovery = reborn.recover()
    reborn.log.close()
    assert recovery.records_scanned == 10
    # one open file, streamed: the file is never read whole
    assert opens.count("wal.log") == 1
    assert scans == [] and reads == []
    # replayed, then let go: the log keeps none of the scanned records
    assert reborn.log._stable is None
    assert reborn.log.stable_lsn == 10
    with pytest.raises(InvalidStateError):
        reborn.recover()  # the log is open: a second pass has no start


@pytest.mark.parametrize("collecting", [True, False])
def test_live_host_recover_restores_the_gc_state(tmp_path, monkeypatch,
                                                 collecting):
    host = _host(tmp_path)
    host.start()
    try:
        host.submit([(1, 11)])
    finally:
        host.stop()
    was_enabled = gc.isenabled()
    seen = []

    def load(store):
        seen.append(gc.isenabled())
        raise OSError("image unreadable")

    try:
        (gc.enable if collecting else gc.disable)()
        reborn = _host(tmp_path)
        reborn.recover()
        reborn.log.close()
        assert gc.isenabled() is collecting
        # a failure inside recover() ...
        failing = _host(tmp_path)
        monkeypatch.setattr(ImageStore, "load", load)
        with pytest.raises(OSError):
            failing.recover()
        assert failing.log is None  # the image comes first
        assert seen == [False]  # paused while it ran
        assert gc.isenabled() is collecting
        # ... and one inside the open-time scan
        monkeypatch.undo()
        (tmp_path / "wal.log").write_bytes(b'["C",99,bogus\n')
        with pytest.raises(WALCorruptionError):
            _host(tmp_path).recover()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_live_host_reports_recovery_timing_outside_recovery_info(tmp_path):
    host = _host(tmp_path)
    assert host.recovery_timing == {}
    host.start()
    try:
        for i in range(5):
            host.submit([(i, 3000 + i)])
    finally:
        host.stop()
    wal_path = tmp_path / "wal.log"
    garbage = b'["U",999,99'
    with open(wal_path, "ab") as file:
        file.write(garbage)
    size = wal_path.stat().st_size

    reborn = _host(tmp_path)
    recovery = reborn.recover()
    reborn.log.close()
    timing = reborn.recovery_timing
    assert set(timing) == {"wal_bytes", "records", "repaired_bytes",
                           "scan_s", "image_load_s", "redo_s", "total_s",
                           "records_per_s"}
    assert timing["wal_bytes"] == size
    assert timing["records"] == recovery.records_scanned == 10
    assert timing["repaired_bytes"] == len(garbage)
    assert (timing["total_s"] >= timing["scan_s"] + timing["image_load_s"]
            + timing["redo_s"] > 0.0)
    assert reborn.stats()["recovery_timing"] == timing
    # the summary stays a pure function of the disk state: no timing in
    # it, and the repaired tear is still reported
    assert recovery.torn_tail
    assert not set(recovery.as_dict()) & set(timing)


def test_live_host_uncommitted_updates_are_dropped_at_recovery(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        host.submit([(1, 11)])
    finally:
        host.stop()
    # an update whose commit never made it to the file: REDO must drop it
    log = DurableLog(SystemParameters.scaled_down(2048),
                     tmp_path / "wal.log", files=NO_SYNC)
    log.hydrate()
    log.append_update_run(99, *columns([(1, 666666)]))
    log.flush()
    log.close()

    reborn = _host(tmp_path)
    recovery = reborn.start()
    try:
        assert recovery.updates_dropped == 1
        assert reborn.read(1) == 11  # the loser's value never surfaced
        assert reborn.verify() == []
    finally:
        reborn.stop()


def test_live_host_emits_txn_and_ckpt_spans(tmp_path):
    host = _host(tmp_path, spans=True)
    host.start()
    try:
        committed = [host.submit([(1, 5)]).txn_id]
        host.scheduler.call(host.checkpointer.start_checkpoint)
        committed += [host.submit([(i, i)]).txn_id for i in range(2, 6)]
        assert _wait_until(lambda: host.checkpointer.history)
        spans = host.spans_snapshot()
    finally:
        host.stop()
    names = {span["name"] for span in spans}
    assert {"txn", "txn.lock_wait", "txn.cpu",
            "ckpt", "ckpt.snapshot", "ckpt.install",
            "ckpt.truncate"} <= names
    roots = [s for s in spans if s["name"] == "txn"]
    assert roots and all(s["fields"]["outcome"] == "commit" for s in roots)
    # the simulator's stall attribution runs verbatim on live spans
    attributions = attribute_stalls(spans)
    assert [a.txn_id for a in attributions] == committed
    for attribution in attributions:
        assert sum(attribution.causes.values()) == pytest.approx(
            attribution.latency, abs=1e-9)
        assert 0.0 <= attribution.ckpt_share <= 1.0
    assert len(checkpoint_intervals(spans)) == 1
    quantiles = decompose_quantiles(attributions)
    assert set(quantiles) == {"p50", "p95", "p99"}
    assert quantiles["p99"]["latency"] > 0.0


def test_live_host_memory_is_flat_across_checkpointed_rounds(tmp_path):
    """Nothing the host keeps outlives the log window it describes: a
    round of bulk commits closed by a checkpoint leaves no net
    allocation behind (the log keeps no list of what each flush made
    stable; the truncated log frees its records; the span ring, full
    after one round, evicts as much as it records)."""
    host = _host(tmp_path, scale=64, spans=True)
    host.spans.capacity = 64
    rng = np.random.default_rng(26)
    n_records = host.params.n_records

    def bulk_round() -> None:
        for _ in range(30):
            host.submit(list(zip(rng.integers(n_records, size=1024).tolist(),
                                 range(1024))))
        done = len(host.checkpointer.history)
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: len(host.checkpointer.history) > done)

    host.start()
    try:
        bulk_round()        # warm-up: allocator pools, the first image
        tracemalloc.start()
        try:
            bulk_round()
            before = tracemalloc.get_traced_memory()[0]
            bulk_round()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert host.verify() == []
    finally:
        host.stop()
    # one round logs ~31 k records, ~4 MB were they kept
    assert grown < 1 << 20, f"{grown} bytes kept by one round"


def test_live_host_past_its_span_cap_returns_its_latest_commits(tmp_path):
    host = _host(tmp_path, spans=True)
    host.spans.capacity = 12
    host.start()
    try:
        committed = [host.submit([(i, i)]).txn_id for i in range(1, 21)]
        spans = host.spans_snapshot()
        dropped = host.spans.dropped
    finally:
        host.stop()
    assert len(spans) == 12 and dropped > 0
    assert [span["id"] for span in spans] == \
        list(range(dropped, dropped + 12))
    # the window ends at the last commit, with its children beside it
    attributions = attribute_stalls(spans)
    assert attributions and \
        [a.txn_id for a in attributions] == committed[-len(attributions):]


# ---------------------------------------------------------------------------
# the bulk commit path: validate -> log -> install -> commit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad, error", [
    ((10**9, 1), AddressError),
    ((-1, 1), AddressError),
    ((1, 2**63), OverflowError),
], ids=["id-past-the-end", "negative-id", "value-past-int64"])
def test_live_host_rejected_transaction_leaves_nothing_behind(
        tmp_path, bad, error):
    host = _host(tmp_path)
    host.start()
    try:
        first = host.submit([(0, 1)])
        # valid pairs ahead of the bad one: none of them may be logged
        # or installed, and the caller must hear why at once
        began = time.monotonic()
        with pytest.raises(error):
            host.submit([(0, 5), bad, (2, 7)], timeout=5.0)
        assert time.monotonic() - began < 1.0
        assert host.read(0) == 1
        assert host.read(2) == 0
        assert host.verify() == []
        # it cost neither a transaction id nor an LSN
        after = host.submit([(3, 4)])
        assert after.txn_id == first.txn_id + 1
        assert after.commit_lsn == first.commit_lsn + 2
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: host.checkpointer.history)
        assert host.scheduler.errors == []
    finally:
        host.stop()
    # the checkpoint did not carry the uncommitted 5 into the image ...
    image = ImageStore(tmp_path).load()
    assert image.values[0] == 1 and image.values[2] == 0

    reborn = _host(tmp_path)
    reborn.start()
    try:
        # ... so the recovered database holds the committed value, not
        # one nobody committed, and the image agrees with it
        assert reborn.read(0) == 1
        assert reborn.read(3) == 4
        assert reborn.verify() == []
        assert reborn.database.differing_records(image.values) == []
    finally:
        reborn.stop()


def test_server_answers_a_rejected_transaction_and_keeps_the_connection(
        tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        requests = [
            {"op": "put", "record": 0, "value": 1},
            {"op": "txn", "updates": [[0, 5], [10**9, 1]]},
            {"op": "txn", "updates": [[0, 6], [1, 2**70]]},
            {"op": "txn", "updates": [[0, 7], [1, 8]]},
            {"op": "get", "record": 0},
            {"op": "verify"},
        ]
        began = time.monotonic()
        replies = _server_replies(host, requests)
        assert time.monotonic() - began < 1.0  # no 30 s commit timeout
        assert [r["ok"] for r in replies] == [True, False, False, True,
                                              True, True]
        assert replies[1]["error"].startswith(
            "AddressError: record 1000000000")
        assert replies[2]["error"].startswith("OverflowError: ")
        assert replies[3]["txn_id"] == replies[0]["txn_id"] + 1
        assert replies[4]["value"] == 7
        assert replies[5]["mismatches"] == []
        assert host.scheduler.errors == []
    finally:
        host.stop()


@pytest.mark.parametrize("request_", [
    {"op": "put", "record": 5.7, "value": 1},
    {"op": "put", "record": "5", "value": 1},
    {"op": "put", "record": True, "value": 1},
    {"op": "put", "record": 5, "value": 1.0},
    {"op": "put", "record": 5, "value": None},
    {"op": "txn", "updates": [[0, 1], [5, 2.5]]},
    {"op": "txn", "updates": [[0, 1], ["5", 2]]},
    {"op": "txn", "updates": [[0, 1], [5, False]]},
    {"op": "txn", "updates": [[0, 1], [5, 2, 3]]},
    {"op": "txn", "updates": [[0, 1], [5]]},
    {"op": "txn", "updates": [[0, 1], 5]},
    {"op": "txn", "updates": "05"},
    {"op": "txn", "updates": {"0": 1}},
    {"op": "get", "record": 5.0},
], ids=lambda request: json.dumps(request, separators=(",", ":")))
def test_server_refuses_a_non_integer_id_or_value_and_logs_nothing(
        tmp_path, request_):
    host = _host(tmp_path)
    host.start()
    try:
        first = host.submit([(5, 9)])
        lsn = host.log.last_lsn
        hostile, after = _server_replies(host, [
            request_, {"op": "txn", "updates": [[0, 7]]}])
        assert hostile["ok"] is False, hostile
        assert hostile["error"].split(":")[0] in ("TypeError", "ValueError")
        # nothing logged, installed or spent; the connection still serves
        assert after["ok"] and after["txn_id"] == first.txn_id + 1
        assert after["commit_lsn"] == lsn + 2
        assert host.read(5) == 9
        assert host.verify() == []
    finally:
        host.stop()


def _padded_ping(length: int) -> bytes:
    """A valid ``ping`` line of exactly ``length`` bytes, newline
    included (JSON allows the padding spaces)."""
    ping = b'{"op": "ping"'
    return ping + b" " * (length - len(ping) - 2) + b"}\n"


def test_server_refuses_a_request_line_over_the_cap_and_closes(tmp_path):
    cap = 1 << 20  # 1 MiB, newline included
    host = _host(tmp_path)
    host.start()
    try:
        # at the cap: answered, and the connection keeps serving
        assert _raw_server_replies(host, _padded_ping(cap)
                                   + _padded_ping(20)) \
            == [{"ok": True, "pong": True}] * 2
        # one byte over: refused, and nothing after it is read
        replies = _raw_server_replies(host, _padded_ping(cap + 1)
                                      + _padded_ping(20))
        assert len(replies) == 1
        assert replies[0]["ok"] is False
        assert str(cap) in replies[0]["error"]
        # a line that never ends is refused too, without reading it all
        replies = _raw_server_replies(host, b" " * (4 * cap))
        assert [reply["ok"] for reply in replies] == [False]
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_server_answers_pipelined_lines_in_request_order(tmp_path):
    """One request in flight per connection: a ``ping`` sent behind a
    commit is answered after it, though a ping alone needs no flush."""
    host = _host(tmp_path)
    host.start()
    try:
        replies = _server_replies(host, [
            {"op": "txn", "updates": [[0, 1]]}, {"op": "ping"},
            {"op": "get", "record": 0},
            {"op": "put", "record": 0, "value": 2}, {"op": "ping"},
            {"op": "get", "record": 0}])
        first, _, _, second, _, _ = replies
        assert replies == [
            first, {"ok": True, "pong": True}, {"ok": True, "value": 1},
            second, {"ok": True, "pong": True}, {"ok": True, "value": 2}]
        assert first["ok"] and second["txn_id"] == first["txn_id"] + 1
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_a_client_that_never_reads_stalls_only_its_own_connection(
        tmp_path, monkeypatch):
    """The dispatcher never blocks on a client's socket, and a
    connection's next line is parsed only once the previous reply is
    with the kernel: a client that sends but never reads leaves one
    reply pending and the rest of its input unread, while a second
    connection is served as usual."""
    host = _host(tmp_path)
    host.start()
    parsed = []
    handle = live_server._handle

    def counted(host_, request, reply):
        parsed.append(request["op"][:1])
        return handle(host_, request, reply)

    monkeypatch.setattr(live_server, "_handle", counted)
    # refused as an unknown op, whose name the refusal repeats: ~100 KB
    # in each direction per line
    line = json.dumps({"op": "x" * 100_000}).encode() + b"\n"
    try:
        with _serving(host) as endpoint:
            hog = socket.socket()
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.connect(("127.0.0.1", endpoint.port))
            hog.setblocking(False)
            sent = 0
            while sent < 256 * len(line):  # the kernel refuses long before
                try:
                    sent += hog.send(line[sent % len(line):])
                except BlockingIOError:
                    break
                time.sleep(0.001)
            assert sent < 256 * len(line)
            lines_sent = sent // len(line)
            stalled = len(parsed)
            assert 1 <= stalled < lines_sent

            with socket.create_connection(("127.0.0.1", endpoint.port),
                                          timeout=5) as other:
                other.sendall(b'{"op": "put", "record": 1, "value": 5}\n'
                              b'{"op": "get", "record": 1}\n')
                ack, read = _lines(other, 2)
            assert ack["ok"] and read == {"ok": True, "value": 5}

            def hog_state():
                [connection] = [c for c in endpoint.connections
                                if c.sock.getpeername()
                                == hog.getsockname()]
                return (len(connection.unsent), connection.busy,
                        len(connection.inbox))

            unsent, busy, unread = host.scheduler.call(hog_state)
            assert unsent > 0 and busy
            assert unread <= (1 << 20) + (1 << 16)  # buffered: bounded
            assert len(parsed) == stalled + 2  # the other's two lines

            # once it reads, every whole line it sent is answered, in order
            hog.setblocking(True)
            hog.settimeout(10)
            hog.shutdown(socket.SHUT_WR)
            received = bytearray()
            while True:
                chunk = hog.recv(1 << 16)
                if not chunk:
                    break
                received += chunk
            hog.close()
            replies = [json.loads(r) for r in received.splitlines()]
            assert len(replies) == lines_sent
            assert all(r["error"].startswith("unknown op 'xxx")
                       for r in replies)
            assert parsed.count("x") == lines_sent
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_half_a_line_then_a_disconnect_leaves_nothing_behind(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        with _serving(host) as endpoint:
            last_lsn = host.log.last_lsn
            with socket.create_connection(("127.0.0.1", endpoint.port),
                                          timeout=5) as conn:
                conn.sendall(b'{"op": "put", "record": 4, "va')
                assert _wait_until(lambda: host.scheduler.call(
                    lambda: any(c.inbox for c in endpoint.connections)))
            assert _wait_until(lambda: not host.scheduler.call(
                lambda: len(endpoint.connections)))
            assert host.log.last_lsn == last_lsn
            assert host.read(4) == 0
            # the endpoint still serves
            with socket.create_connection(("127.0.0.1", endpoint.port),
                                          timeout=5) as conn:
                conn.sendall(b'{"op": "ping"}\n')
                assert _lines(conn, 1) == [{"ok": True, "pong": True}]
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_an_exception_serving_one_connection_closes_only_that_one(
        tmp_path, monkeypatch):
    host = _host(tmp_path)
    host.start()
    try:
        with _serving(host) as endpoint, socket.create_connection(
                ("127.0.0.1", endpoint.port), timeout=5) as good:
            good.sendall(b'{"op": "put", "record": 2, "value": 3}\n')
            [ack] = _lines(good, 1)
            assert ack["ok"]
            # a reply that cannot be encoded is no answer to give
            monkeypatch.setattr(host, "stats", lambda: {"bad": object()})
            with socket.create_connection(("127.0.0.1", endpoint.port),
                                          timeout=5) as bad:
                bad.sendall(b'{"op": "stats"}\n')
                assert bad.recv(1024) == b""  # closed, nothing sent
            good.sendall(b'{"op": "get", "record": 2}\n')
            assert _lines(good, 1) == [{"ok": True, "value": 3}]
            assert host.scheduler.call(lambda: len(endpoint.connections)) == 1
        # recorded on the endpoint; the scheduler's list is for callbacks
        assert endpoint.failures == 1
        assert isinstance(endpoint.last_failure, TypeError)
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_failing_connections_are_counted_not_kept(tmp_path, monkeypatch):
    """A client that keeps causing failures grows nothing: a thousand
    failed connections are a count and the latest exception."""
    host = _host(tmp_path)
    host.start()
    try:
        monkeypatch.setattr(host, "stats", lambda: {"bad": object()})
        with _serving(host) as endpoint:
            for _ in range(1000):
                with socket.create_connection(("127.0.0.1", endpoint.port),
                                              timeout=5) as bad:
                    bad.sendall(b'{"op": "stats"}\n')
                    assert bad.recv(1024) == b""  # closed, nothing sent
            assert host.scheduler.call(lambda: (
                endpoint.failures, len(endpoint.connections))) == (1000, 0)
        assert isinstance(endpoint.last_failure, TypeError)
        assert host.scheduler.errors == []
    finally:
        host.stop()


@pytest.mark.parametrize("entry", ["LiveHost", "serve", "check"])
def test_a_legacy_json_line_wal_is_refused_by_name(tmp_path, entry):
    legacy = tmp_path / "wal.jsonl"
    legacy.write_bytes(b'["U",1,1,0,5]\n["C",2,1]\n')
    with pytest.raises(WALFormatError, match=re.escape(str(legacy))):
        if entry == "LiveHost":
            _host(tmp_path)
        elif entry == "serve":
            serve(str(tmp_path), fsync=False, ready_stream=io.StringIO())
        else:
            check(str(tmp_path))
    # nothing was started over it: no framed log, the old one untouched
    assert not (tmp_path / "wal.log").exists()
    assert legacy.read_bytes() == b'["U",1,1,0,5]\n["C",2,1]\n'


def test_server_checkpoint_op_tests_and_starts_in_one_dispatcher_step(
        tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        def paced_checkpoint() -> None:
            # what CheckpointScheduler does, landing just before the op
            # is served: the op's test and start see it as one step
            time.sleep(0.1)
            host.checkpointer.arm_hold("pre-install", 0.2)
            host.checkpointer.start_checkpoint()

        host.scheduler.submit(paced_checkpoint)
        reply = _server_replies(host, [{"op": "checkpoint"}])
        assert reply == [{"ok": True, "started": False,
                          "already_active": True}]
        assert _wait_until(lambda: host.checkpointer.history)
        assert _server_replies(host, [{"op": "checkpoint"}]) == [
            {"ok": True, "started": True}]
        assert _wait_until(lambda: len(host.checkpointer.history) == 2)
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_checkpoint_op_refuses_a_hold_that_is_not_0_to_60_seconds(
        tmp_path):
    """A huge hold would park the writer with the checkpointer active,
    so pacing never starts another and the log is never truncated."""
    host = _host(tmp_path)
    host.start()
    try:
        bad = [1e9, 60.5, -1, True, "5", None, [1], float("nan"),
               float("inf")]
        replies = _server_replies(host, [
            {"op": "checkpoint", "hold_phase": "pre-install",
             "hold_seconds": seconds} for seconds in bad])
        assert [reply["ok"] for reply in replies] == [False] * len(bad)
        assert all("hold_seconds" in reply["error"] for reply in replies)
        # refused before anything was armed or started
        assert host.checkpointer._hold is None
        assert host.checkpointer.checkpoints_started == 0
        # the bounds themselves are accepted (no phase: nothing parks)
        for seconds in (0, 60):
            [reply] = _server_replies(host, [{"op": "checkpoint",
                                              "hold_seconds": seconds}])
            assert reply == {"ok": True, "started": True}
            assert _wait_until(lambda: not host.checkpointer.active)
        assert len(host.checkpointer.history) == 2
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_a_refused_checkpoint_op_arms_no_hold(tmp_path):
    """An op answered ``already_active`` must not leave its hold armed
    for the next checkpoint, whose writer would then park for it."""
    host = _host(tmp_path)
    host.start()
    try:
        assert _server_replies(host, [
            {"op": "checkpoint", "hold_phase": "pre-install",
             "hold_seconds": 0.5}]) == [{"ok": True, "started": True}]
        assert _server_replies(host, [
            {"op": "checkpoint", "hold_phase": "post-install",
             "hold_seconds": 30}]) == [
            {"ok": True, "started": False, "already_active": True}]
        assert host.checkpointer._hold is None
        assert _wait_until(lambda: host.checkpointer.history)
        assert _server_replies(host, [{"op": "checkpoint"}]) == [
            {"ok": True, "started": True}]
        assert _wait_until(lambda: len(host.checkpointer.history) == 2)
        assert host.scheduler.errors == []
    finally:
        host.stop()


def _counted(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_live_host_bulk_commit_makes_no_per_record_call(tmp_path,
                                                        monkeypatch):
    host = _host(tmp_path)
    host.start()
    try:
        host.submit([(0, 1)])  # warm: nothing below is first-use work
        per_record = [_counted(monkeypatch, live_wal, "encode_record"),
                      _counted(monkeypatch, Database, "install_record"),
                      _counted(monkeypatch, LogManager,
                               "append_logical_updates"),
                      _counted(monkeypatch, UpdateRecord, "__new__"),
                      _counted(monkeypatch, LogicalUpdateRecord, "__new__")]
        flushes = host.log.flush_count
        rng = random.Random(14)
        updates = [(rng.randrange(host.params.n_records),
                    rng.randrange(1 << 40)) for _ in range(1024)]
        result = host.submit(updates)  # returns once its flush is done
        assert host.log.flush_count > flushes
        assert result.commit_lsn == 2 + 1024 + 1
        assert per_record == [[], [], [], [], []]
        assert host.verify() == []
    finally:
        host.stop()


def _frame_bodies(data):
    """The bodies of a framed log's frames, walked by their lengths."""
    at, bodies = len(live_wal.FILE_HEADER), []
    while at < len(data):
        (length,) = struct.unpack_from("<I", data, at)
        bodies.append(data[at + 12:at + 12 + length])
        at += 12 + length
    assert at == len(data)
    return bodies


def test_live_host_wal_bytes_are_the_per_record_encoding(tmp_path):
    host = _host(tmp_path)
    host.start()
    rng = random.Random(1989)
    sizes = [rng.choice([1, 5, 1024]) for _ in range(24)] + [1, 5, 1024]
    expected = {}
    try:
        for size in sizes:
            updates = [(rng.randrange(host.params.n_records),
                        rng.randrange(-(1 << 62), 1 << 62))
                       for _ in range(size)]
            result = host.submit(updates)
            expected[result.txn_id] = (updates, result.commit_lsn)
        assert host.verify() == []
    finally:
        host.stop()
    wal_path = tmp_path / "wal.log"
    records, torn = read_wal(wal_path)
    assert not torn
    data = wal_path.read_bytes()
    assert data.startswith(live_wal.FILE_HEADER)
    assert b"".join(_frame_bodies(data)) == b"".join(map(encode_record,
                                                         records))
    # each transaction is one run of its updates, in the order
    # submitted, then its commit record, with nothing in between; the
    # run's LSNs are dense and end right before the commit's
    assert len(records) == 2 * len(expected)
    for at, txn_id in enumerate(sorted(expected)):
        updates, commit_lsn = expected[txn_id]
        run, commit = records[2 * at:2 * at + 2]
        assert type(run) is UpdateRun and run.txn_id == txn_id
        assert list(run.pairs()) == updates
        assert run.lsn == commit_lsn - 1
        assert commit == CommitRecord(commit_lsn, txn_id)
        first = records[2 * at - 1].lsn + 1 if at else 1
        assert run.lsn - run.n_updates + 1 == first


# ---------------------------------------------------------------------------
# commit-driven group flush: a commit asks for its own flush
# ---------------------------------------------------------------------------

#: a tick that never comes due inside a test: whatever flushes, a
#: commit (or a checkpoint / verify) asked for it
NO_TICK = 30.0


def test_live_host_commit_is_acknowledged_without_waiting_for_the_tick(
        tmp_path):
    host = _host(tmp_path, flush_interval=NO_TICK)
    host.start()
    try:
        result = host.submit([(1, 11)], timeout=2.0)
        assert result.commit_lsn == 2
        assert host.log.stable_lsn == 2
        assert host.log.flush_count == 1
        assert host.read(1) == 11
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_live_host_commits_queued_together_share_one_flush(tmp_path):
    host = _host(tmp_path, flush_interval=NO_TICK, fsync=True)
    host.start()
    workers = 8
    try:
        host.submit([(0, 1)], timeout=2.0)  # warm: file and trigger used
        release = _park_dispatcher(host)
        acks = {}

        def commit(i: int) -> None:
            acks[i] = host.submit([(i, 100 + i)], timeout=10.0)

        threads = [threading.Thread(target=commit, args=(i,))
                   for i in range(1, workers + 1)]
        for thread in threads:
            thread.start()
        # every transaction is in the dispatcher's queue, behind the
        # parked callback, before any of them runs
        assert _wait_until(lambda: host.scheduler.pending >= workers + 1)
        flushes, fsyncs = host.log.flush_count, host.log.fsync_count
        release.set()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert sorted(acks) == list(range(1, workers + 1))
        # the first to execute asked for the flush; it queued behind the
        # other seven, so one write + one fsync acknowledged all eight
        assert host.log.flush_count == flushes + 1
        assert host.log.fsync_count == fsyncs + 1
        assert host.log.stable_lsn == max(a.commit_lsn for a in acks.values())
        assert host.verify() == []
        assert host.scheduler.errors == []
    finally:
        host.stop()


def test_commits_queued_before_one_engine_step_share_one_flush(tmp_path):
    engine = EngineScheduler()
    host = LiveHost(LiveConfig(data_dir=str(tmp_path), scale=2048,
                               checkpoint_interval=None,
                               flush_interval=NO_TICK),
                    files=MemoryFiles(), scheduler=engine)
    host.start()
    workers = 8
    try:
        host.submit([(0, 1)])  # warm: file and trigger used
        flushes, fsyncs = host.log.flush_count, host.log.fsync_count
        acks = []
        for i in range(1, workers + 1):
            host.commit(np.array([i]), np.array([100 + i]), acks.append)
        assert engine.pending == workers + 1  # the tick, 30 s out
        assert acks == []
        # eight executes, then the flush the first of them asked for
        for _ in range(workers + 1):
            assert engine.step()
        assert [type(ack) for ack in acks] == [CommitResult] * workers
        assert [ack.txn_id for ack in acks] == list(range(2, workers + 2))
        assert host.log.flush_count == flushes + 1
        assert host.log.fsync_count == fsyncs + 1
        assert host.log.stable_lsn == acks[-1].commit_lsn
        assert engine.now == 0.0 and engine.errors == []
        assert host.verify() == []
    finally:
        host.stop()


@pytest.mark.parametrize("flusher", ["checkpoint", "verify"])
def test_live_host_requested_flush_behind_another_flush_costs_no_fsync(
        tmp_path, monkeypatch, flusher):
    host = _host(tmp_path, flush_interval=NO_TICK, fsync=True)
    host.start()
    installing = threading.Event()
    real_install = ImageStore.install

    def install(store, *args, **kwargs):
        installing.wait(10.0)  # keeps `finish` (a flush) out of the count
        return real_install(store, *args, **kwargs)

    monkeypatch.setattr(ImageStore, "install", install)
    try:
        host.submit([(0, 1)], timeout=2.0)
        release = _park_dispatcher(host)
        acks = []
        thread = threading.Thread(
            target=lambda: acks.append(host.submit([(1, 11)], timeout=10.0)))
        thread.start()
        assert _wait_until(lambda: host.scheduler.pending >= 2)
        # queued behind the commit, so ahead of the flush it will ask for
        if flusher == "checkpoint":
            host.scheduler.submit(host.checkpointer.start_checkpoint)
        else:
            verifier = threading.Thread(target=host.verify)
            verifier.start()
            assert _wait_until(lambda: host.scheduler.pending >= 3)
        flushes, fsyncs = host.log.flush_count, host.log.fsync_count
        release.set()
        thread.join(10.0)
        assert not thread.is_alive() and len(acks) == 1
        # a barrier behind the requested flush: once it has run, so has
        # the request
        host.scheduler.call(lambda: None)
        records, _ = read_wal(tmp_path / "wal.log")
        if flusher == "verify":
            verifier.join(10.0)
            assert not verifier.is_alive()
            # verify's flush acknowledged the commit; the flush the
            # commit had asked for found an empty tail and wrote nothing
            assert host.log.flush_count == flushes + 1
            assert host.log.fsync_count == fsyncs + 1
            assert records[-1] == CommitRecord(acks[0].commit_lsn, 2)
        else:
            # the checkpoint's own flush acknowledged the commit; the
            # requested one carried the begin marker and nothing else,
            # 30 s before the tick would have
            assert host.log.flush_count == flushes + 2
            assert host.log.fsync_count == fsyncs + 2
            assert records[-2] == CommitRecord(acks[0].commit_lsn, 2)
            assert records[-1].checkpoint_id == 1
            installing.set()
            assert _wait_until(lambda: host.checkpointer.history)
        assert host.log.tail_records == 0
        assert host.verify() == []
        assert host.scheduler.errors == []
    finally:
        installing.set()
        host.stop()


def test_live_host_failed_flush_is_never_retried_onto_the_file(tmp_path):
    files = MemoryFiles()
    host = _host(tmp_path, files, flush_interval=NO_TICK, fsync=True)
    host.start()
    wal_path = tmp_path / "wal.log"
    acked = {}
    try:
        for i in range(5):
            host.submit([(i, 4000 + i)], timeout=2.0)
            acked[i] = 4000 + i
        files.faults["sync wal.log"] = OSError(5, "Input/output error")
        # the commit whose fsync fails is never acknowledged: it fails
        # at once, with the reason, instead of waiting out its timeout
        began = time.monotonic()
        with pytest.raises(WALFailedError) as failed:
            host.submit([(7, 7007)], timeout=5.0)
        assert time.monotonic() - began < 1.0
        assert host.commits == len(acked)
        assert host.log.stable_lsn == 2 * len(acked)
        [error] = host.scheduler.errors
        assert isinstance(error, OSError) and error.errno == 5
        assert host.log.failure is error
        assert failed.value.__cause__ is error
        size = len(files.read(wal_path))
        # ... and the next one is refused at once, with the reason,
        # before a byte of it is logged: fsync works again, but nobody
        # knows what the failed one left behind
        last_lsn = host.log.last_lsn
        for _ in range(3):
            began = time.monotonic()
            with pytest.raises(WALFailedError) as refused:
                host.submit([(8, 8008)], timeout=5.0)
            assert time.monotonic() - began < 1.0
            assert refused.value.__cause__ is error
        # the server says the same instead of timing out after 30 s
        began = time.monotonic()
        [reply] = _server_replies(host, [{"op": "put", "record": 8,
                                          "value": 8008}])
        assert time.monotonic() - began < 1.0
        assert reply["ok"] is False
        assert reply["error"].startswith("WALFailedError: ")
        assert host.log.last_lsn == last_lsn
        assert host.database.read_record(8) == 0
        # the failed commit's install is in memory but never durable:
        # no read hands it out
        assert host.database.read_record(7) == 7007
        with pytest.raises(WALFailedError):
            host.read(7)
        with pytest.raises(WALFailedError):
            host.scheduler.call(host.log.flush)
        assert len(files.read(wal_path)) == size
        assert host.scheduler.errors == [error]
    finally:
        # stopping cannot flush either and says so, but still lets go
        # of the dispatcher thread and the file
        with pytest.raises(WALFailedError):
            host.stop()
    assert host.scheduler._thread is None and host.log._file.closed

    reborn = _host(tmp_path, files)
    reborn.start()
    try:
        assert {i: reborn.read(i) for i in acked} == acked
        assert reborn.verify() == []
    finally:
        reborn.stop()


def test_wal_failed_flush_marks_nothing_stable_and_fires_no_waiter(
        live_params, wal_path):
    files = MemoryFiles()
    log = DurableLog(live_params, wal_path, files=files)
    log.append_update_run(1, *columns([(3, 42)]))
    first = log.append_commit(1)
    log.flush()
    size = len(files.read(wal_path))
    log.append_update_run(2, *columns([(4, 43)]))
    second = log.append_commit(2)
    fired = []
    log.when_stable(second.lsn, lambda: fired.append(second.lsn))
    boom = OSError(5, "Input/output error")
    files.faults["write wal.log"] = boom
    with pytest.raises(OSError) as failed:
        log.flush()
    assert failed.value is boom and log.failure is boom
    # the fault fired once: the file works again; the log must not use it
    for _ in range(2):
        with pytest.raises(WALFailedError) as refused:
            log.flush()
        assert refused.value.__cause__ is boom
    assert fired == []
    assert log.stable_lsn == first.lsn and log.tail_records == 2
    log.close()
    assert len(files.read(wal_path)) == size
    # the file, the log's only stable copy, still ends at the first commit
    assert read_wal(wal_path, files)[0][-1] == first


class _ParkingFiles(Files):
    """``Files(sync=False)`` whose syncs park, once armed, until
    released."""

    def __init__(self) -> None:
        super().__init__(sync=False)
        self.armed = False
        self.parked, self.release = threading.Event(), threading.Event()

    def sync(self, file) -> int:
        if self.armed:
            self.parked.set()
            assert self.release.wait(10.0)
        return super().sync(file)


def test_a_get_does_not_reply_while_the_fsync_carrying_its_record_is_parked(
        tmp_path):
    files = _ParkingFiles()
    host = _host(tmp_path, files, flush_interval=NO_TICK)
    host.start()
    try:
        host.submit([(3, 1)])
        assert host.read(3) == 1  # durable: answered at once
        release = _park_dispatcher(host)
        acks, reads = [], []
        # executed before the read looks the record up, flushed after
        host.commit(*transaction_columns([(3, 2)]), acks.append)
        host.fetch(3, reads.append)
        files.armed = True
        release.set()
        assert files.parked.wait(2.0)
        time.sleep(0.1)
        assert reads == [] and acks == []
        files.armed = False
        files.release.set()
        assert _wait_until(lambda: reads and acks)
        assert reads == [2] and isinstance(acks[0], CommitResult)
        assert host.scheduler.errors == []
    finally:
        files.release.set()
        host.stop()


def test_a_get_after_a_failed_flush_fails_and_restart_serves_the_old_value(
        tmp_path):
    files = MemoryFiles()
    host = _host(tmp_path, files, flush_interval=NO_TICK, fsync=True)
    host.start()
    try:
        host.submit([(3, 1)])
        release = _park_dispatcher(host)
        acks, reads = [], []
        host.commit(*transaction_columns([(3, 2)]), acks.append)
        host.fetch(3, reads.append)
        # the flush's frame never reaches the file (a failed fsync could
        # leave it there, and restart would replay the unacked commit)
        files.faults["write wal.log"] = OSError(5, "Input/output error")
        release.set()
        assert _wait_until(lambda: reads and acks)
        [read], [ack] = reads, acks
        assert isinstance(read, WALFailedError)
        assert isinstance(ack, WALFailedError)
        # the value is installed, but no later read hands it out either
        assert host.database.read_record(3) == 2
        with pytest.raises(WALFailedError):
            host.read(3)
        [reply] = _server_replies(host, [{"op": "get", "record": 3}])
        assert reply["ok"] is False
        assert reply["error"].startswith("WALFailedError: ")
        # a segment with nothing volatile in it is still served
        assert host.read(host.params.n_records - 1) == 0
        [error] = host.scheduler.errors
        assert error.errno == 5
    finally:
        with pytest.raises(WALFailedError):
            host.stop()

    reborn = _host(tmp_path, files)
    reborn.start()
    try:
        assert reborn.read(3) == 1
    finally:
        reborn.stop()


@pytest.mark.parametrize("flush_interval", [0, 0.0, -1, -0.005])
def test_live_config_rejects_a_non_positive_flush_interval(tmp_path,
                                                           flush_interval):
    with pytest.raises(ConfigurationError, match="flush_interval"):
        LiveConfig(data_dir=str(tmp_path), flush_interval=flush_interval)
    assert not (tmp_path / "wal.log").exists()  # nothing was opened


# ---------------------------------------------------------------------------
# verify: the database against the state rebuilt from the files
# ---------------------------------------------------------------------------

def _engine_host(files=None, **overrides):
    """A threadless host on the event engine, in memory by default."""
    settings = dict(data_dir="/nonexistent/live", scale=2048,
                    checkpoint_interval=None, flush_interval=NO_TICK,
                    spans=False)
    settings.update(overrides)
    return LiveHost(LiveConfig(**settings),
                    files=files if files is not None else MemoryFiles(),
                    scheduler=EngineScheduler())


class _FrameDroppingLog(DurableLog):
    """A mutant log: its ``drop``-th group flush with records marks them
    stable -- so their commits are acknowledged -- without writing the
    frame."""

    drop = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flushes = 0

    def flush(self):
        if self._tail:
            self.flushes += 1
            if self.flushes == self.drop:
                return LogManager.flush(self)
        return super().flush()


@pytest.mark.parametrize("drop", [2, 3], ids=["a-middle-frame",
                                              "the-last-frame"])
def test_verify_catches_a_log_that_acks_a_frame_it_never_wrote(
        monkeypatch, drop):
    monkeypatch.setattr(_FrameDroppingLog, "drop", drop)
    monkeypatch.setattr("repro.live.host.DurableLog", _FrameDroppingLog)
    host = _engine_host()
    host.start()
    try:
        # one commit per group flush, every one of them acknowledged
        acks = [host.submit([(record, 10 + record)]) for record in (1, 2, 3)]
        assert [ack.txn_id for ack in acks] == [1, 2, 3]
        assert host.log.flushes == 3
        if drop == 2:
            # the file skips the dropped frame's LSNs
            with pytest.raises(WALCorruptionError, match="LSN"):
                host.verify()
        else:
            # nothing follows the lost frame: its commit is simply missing
            assert host.verify() == [RecordMismatch(3, 0, 13)]
    finally:
        host.stop()


def test_verify_names_a_value_altered_in_the_stored_image(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        for record in range(4):
            host.submit([(record, 100 + record)])
        host.scheduler.call(host.checkpointer.start_checkpoint)
        assert _wait_until(lambda: host.checkpointer.history)
        host.submit([(3, 7)])
        assert host.verify() == []
        store = ImageStore(tmp_path)
        image = store.load()
        image.values[2] = 999
        store.install(image.checkpoint_id, image.base_lsn, image.values)
        # record 2 is in the image only; record 3's newer value in the
        # log still covers the image's
        assert host.verify() == [RecordMismatch(2, 999, 102)]
        assert host.read(2) == 102
    finally:
        host.stop()


def test_verify_leaves_an_in_flight_checkpoint_image_alone(tmp_path):
    host = _host(tmp_path)
    host.start()
    try:
        for record in range(5):
            host.submit([(record, 7 + record)])

        def checkpoint_parked_before_its_rename() -> None:
            host.checkpointer.arm_hold("pre-install", 0.5)
            host.checkpointer.start_checkpoint()

        host.scheduler.call(checkpoint_parked_before_its_rename)
        staged = tmp_path / "checkpoint.npz.tmp"
        assert _wait_until(staged.exists)
        host.submit([(0, 1)])
        assert host.verify() == []
        assert staged.exists()
        assert _wait_until(lambda: host.checkpointer.history)
        assert host.checkpointer.checkpoints_failed == 0
        assert host.verify() == []
    finally:
        host.stop()
    assert ImageStore(tmp_path).load().values[4] == 11


def test_thousands_of_commits_leave_no_per_flush_list_on_the_log(tmp_path):
    """No record outlives the checkpoint that truncates it: the live log
    keeps no list of what each flush made stable for a reader that never
    comes.  (On the real files: the in-memory double keeps a trace of
    every file operation.)"""
    host = _engine_host(NO_SYNC, data_dir=str(tmp_path))
    n_records = host.params.n_records

    def round_of_commits() -> None:
        for i in range(2000):
            host.submit([(i % n_records, i)])
        done = len(host.checkpointer.history)
        host.scheduler.call(host.checkpointer.start_checkpoint)
        host.submit([(0, 0)])  # dispatches the writer and its finish
        assert len(host.checkpointer.history) == done + 1

    host.start()
    try:
        round_of_commits()   # warm-up: allocator pools, the first image
        tracemalloc.start()
        try:
            round_of_commits()
            before = tracemalloc.get_traced_memory()[0]
            round_of_commits()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert host.log.flush_count > 6000
        # a round's 4,000 records would hold ~400 KB were they kept
        assert grown < 64 << 10, f"{grown} bytes kept by one round"
        with pytest.raises(InvalidStateError):
            host.log.drain_newly_stable()
        assert host.verify() == []
    finally:
        host.stop()


#: updates per transaction in the restart-memory test: one frame each
_BULK_UPDATES = 1024


def _bulk_wal(path, frames: int, n_records: int) -> int:
    """Write a WAL of ``frames`` frames, each one committed 1024-update
    transaction; return the bytes of the largest frame."""
    rng = np.random.default_rng(frames)
    largest = 0
    with open(path, "wb") as file:
        file.write(live_wal.FILE_HEADER)
        lsn = 0
        for txn_id in range(1, frames + 1):
            lsn += _BULK_UPDATES
            run = UpdateRun(lsn, txn_id,
                            rng.integers(n_records, size=_BULK_UPDATES,
                                         dtype="<i8").tobytes(),
                            rng.integers(1 << 40, size=_BULK_UPDATES,
                                         dtype="<i8").tobytes())
            lsn += 1
            frame = live_wal.encode_frame([run, CommitRecord(lsn, txn_id)])
            largest = max(largest, len(frame))
            file.write(frame)
    return largest


def _restart_peak(directory) -> int:
    """Peak traced bytes of constructing a host over ``directory`` and
    recovering it."""
    tracemalloc.start()
    try:
        host = _host(directory)
        recovery = host.recover()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    host.log.close()
    assert recovery.transactions_replayed > 0
    return peak


def test_restart_memory_does_not_grow_with_the_wal(tmp_path):
    """Restart streams the WAL into REDO a frame at a time: over a log
    four times as long -- megabytes more -- its peak grows by less than
    one frame.  (Holding the file, or its decoded runs, would grow it
    by the file's size, or twice that.)"""
    n_records = SystemParameters.scaled_down(2048).n_records
    sizes, peaks, frame = [], [], 0
    for frames in (64, 256):
        directory = tmp_path / str(frames)
        directory.mkdir()
        frame = max(frame, _bulk_wal(directory / "wal.log", frames,
                                     n_records))
        sizes.append((directory / "wal.log").stat().st_size)
        _restart_peak(directory)  # warm-up: imports, caches
        peaks.append(_restart_peak(directory))
    assert sizes[1] - sizes[0] > 3 * 2**20
    slack = 64 * 1024
    assert peaks[1] - peaks[0] < frame + slack, (peaks, frame)
