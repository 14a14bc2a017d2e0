"""Crash images that keep only what a completed fsync covered.

Killing a process leaves the operating system's cache intact, so a
SIGKILL test cannot tell a write that was fsynced from one that merely
reached the page cache.  This module builds the disk state a *power
loss* would leave: while an in-process :class:`LiveHost` commits a
seeded history, ``os.fsync`` is interposed; at one seeded WAL fsync the
data directory is copied *before* the real call, and the copy's
``wal.jsonl`` is cut to the size the last *completed* fsync covered
plus a seeded fraction of the bytes written since (the torn tail).
Every acknowledgement the builder saw before that instant is kept in a
shadow; a restart from the copy must serve all of them.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from launcher import FLUSH_INTERVAL, FSYNC


#: one acknowledged transaction: its ``(record, value)`` pairs
Commit = List[Tuple[int, int]]


class CrashImage(NamedTuple):
    directory: Path
    #: name of the WAL file inside ``directory``
    wal_name: str
    scale: int
    #: commits acknowledged before the crash instant, in commit order
    acked: List[Commit]
    #: how many of them the checkpoint image (not the WAL) must supply
    in_image: int
    #: wal.jsonl size after each completed fsync, up to the crash
    synced_sizes: List[int]
    #: bytes of the cut file beyond the last completed fsync
    torn_bytes: int
    build_s: float

    def shadow(self) -> Dict[int, int]:
        """record -> value of the latest acknowledged write."""
        values: Dict[int, int] = {}
        for commit in self.acked:
            values.update(commit)
        return values


class _FsyncTap:
    """Interposed ``os.fsync``: tracks what the WAL's completed fsyncs
    cover and takes the crash copy when armed."""

    def __init__(self, wal_path: Path, image_path: Path, crash_dir: Path,
                 torn_fraction: float) -> None:
        self.wal_path = str(wal_path)
        self.image_path = image_path
        self.crash_dir = crash_dir
        self.torn_fraction = torn_fraction
        self.real_fsync = os.fsync
        self.synced_sizes: List[int] = []
        self.armed = False
        self.acked_at_crash: Optional[int] = None
        self.torn_bytes = 0
        #: acknowledgements the builder has seen (it updates this)
        self.acked = 0

    def __call__(self, fd) -> None:
        is_wal = os.readlink(f"/proc/self/fd/{fd}") == self.wal_path
        if is_wal and self.armed and self.acked_at_crash is None:
            self._take_copy(os.fstat(fd).st_size)
        self.real_fsync(fd)
        if is_wal and self.acked_at_crash is None:
            self.synced_sizes.append(os.fstat(fd).st_size)

    def _take_copy(self, written: int) -> None:
        synced = self.synced_sizes[-1]
        unsynced = written - synced
        if unsynced < 8:
            return                      # nothing to tear: wait for a flush
        self.acked_at_crash = self.acked
        self.crash_dir.mkdir(parents=True)
        shutil.copyfile(self.image_path,
                        self.crash_dir / self.image_path.name)
        with open(self.wal_path, "rb") as source:
            data = source.read(written)
        cut = synced + max(2, int(self.torn_fraction * unsynced))
        cut = min(cut, written - 2)
        # tear *inside* a record: a cut just after a line end tears
        # nothing, and one just before it leaves a whole record that
        # merely lacks its terminator
        while b"\n" in data[cut - 1:cut + 1]:
            cut -= 1
        self.torn_bytes = cut - synced
        with open(self.crash_dir / Path(self.wal_path).name, "wb") as target:
            target.write(data[:cut])


def build_crash_image(work_dir: Path, *, seed: int, scale: int,
                      small_commits: int, bulk_commits: int,
                      bulk_updates: int) -> CrashImage:
    """Commit a seeded history in-process and return its crash image.

    ``small_commits`` five-update transactions, one explicit checkpoint
    (which truncates them out of the WAL, so only the image holds them),
    then 1024-style ``bulk_updates``-update transactions.  The crash
    copy is taken at the WAL fsync of a seeded one of the last bulk
    commits; the builder stops there.
    """
    from repro.live.host import LiveConfig, LiveHost

    began = time.monotonic()
    rng = np.random.default_rng([seed, 0xC4A5])
    data_dir = work_dir / "build"
    crash_dir = work_dir / "crash"
    for stale in (data_dir, crash_dir):
        if stale.exists():
            shutil.rmtree(stale)
    data_dir.mkdir(parents=True)
    host = LiveHost(LiveConfig(data_dir=str(data_dir), scale=scale,
                               checkpoint_interval=None,
                               flush_interval=FLUSH_INTERVAL, fsync=FSYNC,
                               spans=False))
    tap = _FsyncTap(host.wal_path, host.store.path, crash_dir,
                    torn_fraction=float(rng.random()))
    # the crash lands on one of the last few bulk commits, seeded
    crash_after = bulk_commits - 1 - int(rng.integers(min(4, bulk_commits)))
    n_records = host.params.n_records
    commits: List[Commit] = []
    value = 0

    def commit(n_updates: int) -> None:
        nonlocal value
        records = rng.integers(n_records, size=n_updates).tolist()
        updates = [(record, value + i + 1) for i, record in enumerate(records)]
        value += n_updates
        host.submit(updates)
        commits.append(updates)
        tap.acked = len(commits)

    os.fsync = tap
    try:
        host.start()
        try:
            for _ in range(small_commits):
                commit(5)
            host.scheduler.call(host.checkpointer.start_checkpoint)
            deadline = time.monotonic() + 60
            while not host.checkpointer.history:
                if time.monotonic() > deadline:
                    raise TimeoutError("checkpoint did not complete")
                time.sleep(0.005)
            for index in range(bulk_commits):
                if index == crash_after:
                    tap.armed = True
                commit(bulk_updates)
                if tap.acked_at_crash is not None:
                    break
        finally:
            host.stop()
    finally:
        os.fsync = tap.real_fsync
    if tap.acked_at_crash is None:
        raise RuntimeError("crash point never reached")
    shutil.rmtree(data_dir)
    return CrashImage(directory=crash_dir, wal_name=host.wal_path.name,
                      scale=scale,
                      acked=commits[:tap.acked_at_crash],
                      in_image=small_commits,
                      synced_sizes=tap.synced_sizes,
                      torn_bytes=tap.torn_bytes,
                      build_s=time.monotonic() - began)


def copy_image(image: CrashImage, target: Path,
               wal_size: Optional[int] = None) -> Path:
    """A fresh copy of the crash image, optionally with the WAL cut to
    ``wal_size`` bytes (the negative test removes an acked commit)."""
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(image.directory, target)
    if wal_size is not None:
        with open(target / image.wal_name, "r+b") as wal:
            wal.truncate(wal_size)
    # a restart must not be charged for writing back this copy
    for name in os.listdir(target):
        fd = os.open(target / name, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return target


def missing_after_recovery(directory: Path, scale: int,
                           shadow: Dict[int, int]) -> Tuple[int, dict]:
    """Recover ``directory`` in-process; count shadow values not served.

    Returns ``(missing, recovery_info)``.
    """
    from repro.live.host import LiveConfig, LiveHost

    host = LiveHost(LiveConfig(data_dir=str(directory), scale=scale,
                               checkpoint_interval=None, spans=False))
    try:
        info = host.recover()
        values = host.database.values_snapshot()
    finally:
        host.log.close()
    records = np.fromiter(shadow.keys(), dtype=np.int64, count=len(shadow))
    expected = np.fromiter(shadow.values(), dtype=np.int64, count=len(shadow))
    return int(np.count_nonzero(values[records] != expected)), info.as_dict()


def checker_catches_lost_commit(work_dir: Path, seed: int) -> bool:
    """The negative self-test: remove the last acknowledged commit's
    bytes from a small crash image and confirm the check notices."""
    image = build_crash_image(work_dir / "negative", seed=seed, scale=2048,
                              small_commits=4, bulk_commits=8,
                              bulk_updates=32)
    try:
        shadow = image.shadow()
        intact, _ = missing_after_recovery(
            copy_image(image, work_dir / "negative-intact"), image.scale,
            shadow)
        # each builder commit has a flush+fsync of its own, so the size
        # before the last completed fsync is the file without that commit
        damaged, _ = missing_after_recovery(
            copy_image(image, work_dir / "negative-damaged",
                       wal_size=image.synced_sizes[-2]), image.scale, shadow)
    finally:
        shutil.rmtree(work_dir / "negative", ignore_errors=True)
        shutil.rmtree(work_dir / "negative-intact", ignore_errors=True)
        shutil.rmtree(work_dir / "negative-damaged", ignore_errors=True)
    return intact == 0 and damaged > 0
