"""The live host's file port: the real filesystem and the in-memory
double agree, and a power cut at every file operation of a fixed script
loses no acknowledged commit.

The crash test is the durability contract as a checkable predicate:
after a crash at step *k* and a restart, every record holds its last
acknowledged value or a value submitted after it (acked ⊆ recovered ⊆
submitted), and ``verify`` finds the database equal to the state
rebuilt from the files.  The script runs on the dispatcher thread and
on the threadless event engine (``tests/engine.py``); both make the
same file operations.
"""

import dataclasses
import errno
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.errors import WALFailedError
from repro.live.files import Files, temp_path
from repro.live.host import LiveConfig, LiveHost, replay_durable
from repro.live.store import ImageStore
from repro.live.wal import DurableLog, encode_frame, read_wal
from repro.params import SystemParameters
from repro.wal.records import CommitRecord, log_updates
from tests.engine import EngineScheduler
from tests.helpers import columns
from tests.memfiles import MemoryFiles, PowerLoss

#: one client, fsync on, and a flush tick that never comes due: every
#: file operation is caused by the script, so their order is fixed
CONFIG = LiveConfig(data_dir="db", scale=8192, checkpoint_interval=None,
                    flush_interval=30.0, spans=False)
WAL = Path("db/wal.log")
N_RECORDS = SystemParameters.scaled_down(CONFIG.scale).n_records
IMAGE = Path("db") / ImageStore.FILENAME
#: half of a frame whose header fits: the tail a crash mid-flush leaves
TORN = encode_frame([CommitRecord(10**6, 10**6)])[:16]


class History:
    """What the client submitted and what it was told was durable."""

    def __init__(self) -> None:
        self.value = 0
        #: record -> every value submitted for it, in order
        self.submitted = {}
        #: record -> how many of those were acknowledged (a prefix)
        self.acked = {}

    def commit(self, host: LiveHost, records) -> None:
        updates = []
        for record in records:
            self.value += 1
            updates.append((record, self.value))
            self.submitted.setdefault(record, []).append(self.value)
        host.submit(updates, timeout=10.0)
        for record in records:
            self.acked[record] = len(self.submitted[record])

    def violations(self, values: np.ndarray) -> list:
        """Records whose value is neither the last acknowledged one nor
        submitted after it (an untouched record must read 0)."""
        bad = [int(r) for r in np.flatnonzero(values)
               if int(r) not in self.submitted]
        for record, versions in self.submitted.items():
            acked = self.acked.get(record, 0)
            allowed = ([versions[acked - 1]] if acked else [0])
            if values[record] not in allowed + versions[acked:]:
                bad.append(record)
        return bad


@contextmanager
def running(files, engine: bool = False, recoveries=None):
    """A started host over ``files``: on the dispatcher thread, or on
    the event engine; its ``RecoveryInfo`` goes to ``recoveries``."""
    host = LiveHost(CONFIG, files=files,
                    scheduler=EngineScheduler() if engine else None)
    recovery = host.start()
    if recoveries is not None:
        recoveries.append(recovery.as_dict())
    try:
        yield host
    finally:
        host.stop()


def checkpoint(host: LiveHost) -> None:
    """One checkpoint, waited for through the scheduler until the
    checkpointer reports it done; raises if it failed."""
    checkpointer = host.checkpointer
    failed = checkpointer.checkpoints_failed
    chained = checkpointer.on_complete

    def begin(settle) -> None:
        def completed(stats) -> None:
            checkpointer.on_complete = chained
            if chained is not None:
                chained(stats)
            settle(stats)

        checkpointer.on_complete = completed
        try:
            checkpointer.start_checkpoint()
        except Exception as exc:
            checkpointer.on_complete = chained
            settle(exc)

    host.scheduler.wait(
        lambda settle: host.scheduler.submit(partial(begin, settle)),
        timeout=10.0)
    if checkpointer.checkpoints_failed > failed:
        raise checkpointer.last_failure


def script(files, history: History, engine: bool = False) -> list:
    """Commits, a checkpoint, commits, a second checkpoint, a restart
    over a torn tail, and commits; returns both starts'
    ``RecoveryInfo.as_dict()``."""
    recoveries = []
    with running(files, engine, recoveries) as host:
        for i in range(3):
            history.commit(host, [i, 100 + i])
        checkpoint(host)
        history.commit(host, [1, 200])
        history.commit(host, [2])
        checkpoint(host)
        history.commit(host, [0, 300])
    # the last flush of a process that died mid-write
    file = files.open_append(WAL)
    file.write(TORN)
    files.sync(file)
    file.close()
    with running(files, engine, recoveries) as host:
        assert host.recovery_timing["repaired_bytes"] == len(TORN)
        history.commit(host, [1, 400])
        history.commit(host, [3])
    return recoveries


def restart_violations(image, history: History,
                       engine: bool = False) -> list:
    """Restart from the crash ``image``: the streamed restart must find
    what the whole WAL file replayed in one batch holds, and the result
    must keep every acknowledged commit."""
    records, torn = read_wal(WAL, image)
    stored = ImageStore(WAL.parent, files=image).read()
    base = (None, 0) if stored is None else (stored.checkpoint_id,
                                             stored.base_lsn)
    expected, counts = replay_durable(stored, records, N_RECORDS)
    recoveries = []
    with running(image, engine, recoveries) as host:
        values = host.database.values_snapshot()
        assert host.verify() == []
    [recovery] = recoveries
    assert (recovery["checkpoint_id"], recovery["base_lsn"]) == base
    assert recovery["records_scanned"] == log_updates(records)
    assert recovery["transactions_replayed"] == counts.transactions_committed
    assert recovery["updates_dropped"] == counts.updates_dropped
    assert recovery["torn_tail"] == torn
    assert values.tolist() == expected.tolist()
    # whichever temp file the crash left, the restart removed it
    assert not image.exists(temp_path(WAL))
    assert not image.exists(temp_path(IMAGE))
    return history.violations(values)


def _clean_trace(engine: bool = False):
    files = MemoryFiles()
    script(files, History(), engine)
    return files.trace


def test_the_script_runs_clean_and_restarts_to_its_last_values():
    files = MemoryFiles()
    history = History()
    script(files, history)
    assert history.acked == {r: len(v) for r, v in history.submitted.items()}
    assert restart_violations(files.crash(0), history) == []
    trace = _clean_trace()
    assert trace == files.trace  # the step order is fixed
    for label in ("rename checkpoint.npz", "rename wal.log",
                  "truncate wal.log"):
        assert label in trace


def _crash_sweep(engine: bool) -> int:
    """Cut the power at every step of the script, restart each crash
    image on two seeds, and return the number of steps swept."""
    steps = len(_clean_trace(engine))
    for k in range(1, steps + 1):
        files = MemoryFiles(crash_at=k)
        history = History()
        with pytest.raises((OSError, WALFailedError)) as crashed:
            script(files, history, engine)
        # a wait that timed out is an OSError too, but no power loss
        assert not isinstance(crashed.value, TimeoutError), k
        assert files.powered_off
        for seed in (2 * k, 2 * k + 1):
            assert restart_violations(files.crash(seed), history,
                                      engine) == [], \
                f"crash at step {k} ({files.trace[-1:]}), seed {seed}"
    return steps


def test_a_crash_at_every_step_loses_no_acknowledged_commit():
    _crash_sweep(engine=False)


def test_a_crash_at_every_step_under_the_engine_loses_nothing_acked():
    assert _crash_sweep(engine=True) == len(_clean_trace())


def test_the_script_runs_the_same_under_the_engine_as_on_threads():
    threaded = MemoryFiles()
    threaded_recoveries = script(threaded, History())
    runs = []
    for _ in range(2):
        files, history = MemoryFiles(), History()
        recoveries = script(files, history, engine=True)
        assert files.trace == threaded.trace
        assert recoveries == threaded_recoveries
        assert restart_violations(files.crash(0), history, engine=True) == []
        runs.append(files)
    # with no wall clock in the begin marker, the bytes repeat exactly
    for path in (WAL, IMAGE):
        assert runs[0].read(path) == runs[1].read(path)


@pytest.mark.parametrize("name", [WAL.name + ".tmp", IMAGE.name + ".tmp"])
def test_a_crash_mid_replace_leaves_a_temp_file_the_restart_removes(name):
    trace = _clean_trace()
    # the crash lands after the temp file's creation, before its rename
    k = trace.index(f"create {name}") + 2
    files = MemoryFiles(crash_at=k)
    history = History()
    with pytest.raises((OSError, WALFailedError)):
        script(files, history)
    images = [files.crash(seed) for seed in range(32)]
    left = [image for image in images if image.exists(Path("db") / name)]
    assert left, "no crash image kept the temp file"
    assert restart_violations(left[0], history) == []


# ---------------------------------------------------------------------------
# a failed log-truncation rewrite
# ---------------------------------------------------------------------------

def _rewrite_steps():
    """Step numbers of the first checkpoint's log rewrite, from the
    temp file's creation to the reopen of the new file."""
    trace = _clean_trace()
    first = trace.index("create wal.log.tmp") + 1
    return list(range(first, trace.index("open wal.log", first) + 2)), trace


#: create, write the header, write the frame, sync, rename, syncdir, open
REWRITE_STEPS = 7


@pytest.mark.parametrize("offset", range(REWRITE_STEPS))
def test_a_failed_log_rewrite_fails_the_checkpoint_not_the_host(offset):
    steps, trace = _rewrite_steps()
    assert len(steps) == REWRITE_STEPS
    k = steps[offset]
    label = trace[k - 1]
    renamed = trace.index("rename wal.log") + 1 <= k
    error = OSError(errno.ENOSPC, "No space left on device")
    files = MemoryFiles(faults={k: error})
    history = History()
    completed = []
    host = LiveHost(CONFIG, files=files)
    host.start()
    try:
        host.checkpointer.on_complete = completed.append
        for i in range(3):
            history.commit(host, [i, 100 + i])
        with pytest.raises(OSError) as failed:
            checkpoint(host)
        assert failed.value is error, label
        # counted like a failed image write: idle again, on_complete ran
        assert not host.checkpointer.active
        assert host.checkpointer.checkpoints_failed == 1
        assert host.checkpointer.history == []
        assert [stats.checkpoint_id for stats in completed] == [1]
        if renamed:
            # nobody knows which file the path names: fail-stop
            assert host.log.failure is error, label
            with pytest.raises(WALFailedError) as refused:
                host.submit([(5, 5)], timeout=5.0)
            assert refused.value.__cause__ is error
        else:
            # the old file is intact, and the log keeps appending to it
            assert host.log.failure is None, label
            history.commit(host, [5])
            history.commit(host, [6])
            checkpoint(host)
            assert len(host.checkpointer.history) == 1
    finally:
        try:
            host.stop()
        except WALFailedError:
            assert renamed
    for seed in (0, 1):
        assert restart_violations(files.crash(seed), history) == []


def test_a_failed_checkpoint_span_carries_the_error():
    error = OSError(errno.EIO, "Input/output error")
    files = MemoryFiles(faults={"rename wal.log": error})
    host = LiveHost(dataclasses.replace(CONFIG, spans=True), files=files)
    host.start()
    try:
        host.submit([(1, 1)])
        with pytest.raises(OSError):
            checkpoint(host)
        [span] = [s for s in host.spans_snapshot() if s["name"] == "ckpt"]
        assert span["fields"]["error"] == repr(error)
        assert host.stats()["checkpoints_failed"] == 1
    finally:
        with pytest.raises(WALFailedError):
            host.stop()


# ---------------------------------------------------------------------------
# the real filesystem and the double agree
# ---------------------------------------------------------------------------

def _log_and_image_script(files, directory: Path):
    """Drive a log and an image store directly (no wall-clock
    timestamps, so the bytes are fixed); return the log's fsync counts
    after each step."""
    params = SystemParameters.scaled_down(8192)
    wal = directory / "wal.log"
    log = DurableLog(params, wal, files=files)
    counts = [log.fsync_count]
    for txn_id in (1, 2, 3):
        log.append_update_run(txn_id, *columns([(txn_id, 10 * txn_id)]))
        log.append_commit(txn_id)
        log.flush()
    counts.append(log.fsync_count)
    log.append_begin_checkpoint(1, timestamp=0.5, active_txns=(),
                                image=0)
    log.flush()
    log.truncate_stable_before(5)
    counts.append(log.fsync_count)
    log.close()
    file = files.open_append(wal)
    file.write(TORN)
    file.close()
    reborn = DurableLog(params, wal, files=files)
    counts.append(reborn.fsync_count)
    reborn.hydrate()
    reborn.append_end_checkpoint(1, image=0)
    reborn.flush()
    counts.append(reborn.fsync_count)
    reborn.close()
    store = ImageStore(directory, files=files)
    store.install(1, 5, np.arange(64, dtype=np.int64))
    store.install(2, 9, np.arange(64, dtype=np.int64) * 3)
    image = store.load()
    assert (image.checkpoint_id, image.base_lsn) == (2, 9)
    np.testing.assert_array_equal(image.values, np.arange(64) * 3)
    return counts


def test_files_and_memory_files_write_identical_bytes(tmp_path):
    memory = MemoryFiles()
    counts = {"disk": _log_and_image_script(Files(), tmp_path),
              "memory": _log_and_image_script(memory, tmp_path)}
    names = ("wal.log", ImageStore.FILENAME)
    for name in names:
        assert (tmp_path / name).read_bytes() == memory.read(tmp_path / name)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert counts["disk"] == counts["memory"]
    assert read_wal(tmp_path / "wal.log") == read_wal(tmp_path / "wal.log",
                                                      memory)


def test_fsync_count_pins_the_header_flushes_truncation_and_repair(
        tmp_path):
    # header 1; three flushes 4; the marker's flush and the rewrite's
    # temp file 6; reopened over a torn tail, the repair 1; a flush 2
    assert _log_and_image_script(Files(), tmp_path) == [1, 4, 6, 1, 2]
    assert _log_and_image_script(Files(sync=False),
                                 tmp_path / "nosync") == [0] * 5


# ---------------------------------------------------------------------------
# the double itself
# ---------------------------------------------------------------------------

def test_memory_files_keep_only_what_was_synced():
    files = MemoryFiles()
    path = Path("d/f")
    file = files.open_append(path)
    file.write(b"abc")
    files.sync(file)
    # the bytes are durable, but the new name may not be
    crashed = [files.crash(seed) for seed in range(16)]
    assert {image.exists(path) for image in crashed} == {True, False}
    files.sync_directory(path.parent)
    file.write(b"defgh")
    kept = {files.crash(seed).read(path) for seed in range(64)}
    assert kept == {b"abc" + b"defgh"[:n] for n in range(6)}
    assert files.trace == ["open f", "write f", "sync f", "syncdir d",
                           "write f"]


def test_memory_files_faults_fire_once_by_step_or_label():
    error = OSError(errno.EIO, "Input/output error")
    files = MemoryFiles(faults={2: error, "sync f": error})
    file = files.open_append(Path("f"))
    with pytest.raises(OSError):
        file.write(b"x")
    file.write(b"x")
    with pytest.raises(OSError):
        files.sync(file)
    files.sync(file)
    off = MemoryFiles(crash_at=2)
    file = off.open_append(Path("f"))
    for _ in range(2):
        with pytest.raises(PowerLoss):
            file.write(b"x")
    assert off.powered_off and off.trace == ["open f"]


def test_memory_files_sync_copies_only_what_a_change_overwrites():
    """A sync is O(1): an append-only file's synced contents are a
    prefix of its bytes, so 4,000 one-KiB group flushes copy nothing.
    Only a change to synced bytes (a truncation below them, an
    overwrite) copies them, once, and a crash still keeps them."""
    files = MemoryFiles()
    log = DurableLog(SystemParameters.scaled_down(8192), WAL, files=files)
    ids = np.arange(32, dtype=np.int64)
    for txn_id in range(1, 4001):
        log.append_update_run(txn_id, ids.tobytes(), ids.tobytes())
        log.flush()
    log.close()
    assert log.fsync_count == 4001  # the header's, then one a flush
    assert files.copied_bytes == 0
    synced = files.read(WAL)
    assert len(synced) > 4000 * 512
    file = files.open_append(WAL)
    files.truncate(file, 100)
    file.write(b"new")
    files.truncate(file, 50)
    assert files.copied_bytes == len(synced)  # frozen once, not per change
    assert files.crash(0).read(WAL) == synced
    files.sync(file)
    assert files.crash(0).read(WAL) == synced[:50]
    assert files.copied_bytes == len(synced)
