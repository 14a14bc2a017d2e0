"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import build_system, columns
from repro.checkpoint.registry import ALGORITHM_NAMES
from repro.mmdb.database import Database
from repro.mmdb.locks import LockManager, LockMode
from repro.model.duration import minimum_duration, resolve_durations
from repro.model.restarts import (
    abort_probability,
    conflict_probability,
    expected_reruns,
    sweep_average_conflict,
)
from repro.params import SystemParameters
from repro.recovery.replay import RedoApplier, replay_records
from repro.sim.engine import EventEngine
from repro.wal.log import LogManager

NON_STABLE = [n for n in ALGORITHM_NAMES if n != "FASTFUZZY"]

# -- strategies -----------------------------------------------------------

params_strategy = st.builds(
    SystemParameters,
    s_db=st.sampled_from([8192 * 8, 8192 * 32, 8192 * 128]),
    s_seg=st.sampled_from([2048, 8192]),
    s_rec=st.sampled_from([16, 32, 64]),
    lam=st.floats(min_value=1.0, max_value=5000.0),
    n_ru=st.integers(min_value=1, max_value=10),
    n_bdisks=st.integers(min_value=1, max_value=64),
    t_seek=st.floats(min_value=1e-4, max_value=0.1),
)


@st.composite
def log_scripts(draw, rich=False):
    """A random, well-formed sequence of log operations.

    Transactions run one after another, reruns of an aborted attempt
    reuse its id, and the last transaction may stay open.  ``rich``
    may also draw logical (delta) updates, interleave the transactions
    with each other, and scatter data-less markers (``("m", kind)``)
    through the log.
    """
    logical = rich and draw(st.booleans())
    n_txns = draw(st.integers(min_value=1, max_value=8))
    scripts = []
    for txn_id in range(1, n_txns + 1):
        script = []
        n_attempts = draw(st.integers(min_value=1, max_value=3))
        for attempt in range(n_attempts):
            n_updates = draw(st.integers(min_value=0, max_value=4))
            for _ in range(n_updates):
                kind = draw(st.sampled_from("ul")) if logical else "u"
                rid = draw(st.integers(min_value=0, max_value=63))
                value = draw(st.integers(min_value=-1000, max_value=1000))
                script.append((kind, txn_id, rid, value))
            last = attempt == n_attempts - 1
            outcome = draw(st.sampled_from(
                ["commit", "abort", "open"] if last else ["abort"]))
            if outcome == "commit":
                script.append(("c", txn_id))
            elif outcome == "abort":
                script.append(("a", txn_id))
        if script:
            scripts.append(script)
    if rich and draw(st.booleans()):
        # interleave: repeatedly take the next entry of a random txn
        merged = []
        while scripts:
            index = draw(st.integers(min_value=0, max_value=len(scripts) - 1))
            merged.append(scripts[index].pop(0))
            if not scripts[index]:
                scripts.pop(index)
    else:
        merged = [entry for script in scripts for entry in script]
    if rich:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            at = draw(st.integers(min_value=0, max_value=len(merged)))
            merged.insert(at, ("m", draw(st.sampled_from("BEFR"))))
    return merged


def _log_of(script):
    """A flushed :class:`LogManager` holding ``script``'s records.

    Consecutive value updates of one transaction are logged as one run,
    the shape both hosts log; interleaved ones become one-update runs.
    """
    log = LogManager(SystemParameters(s_db=8192 * 8, lam=10.0))
    markers = {
        "B": lambda: log.append_begin_checkpoint(1, 0.0, (), image=0),
        "E": lambda: log.append_end_checkpoint(1, image=0),
        "F": lambda: log.append_media_failure(1),
        "R": lambda: log.append_media_restore(1, checkpoint_id=1),
    }
    for (kind, key), group in groupby(script, key=itemgetter(0, 1)):
        if kind == "u":
            log.append_update_run(key, *columns(entry[2:] for entry in group))
            continue
        for entry in group:
            if kind == "l":
                log.append_logical_updates(key, [entry[2:]])
            elif kind == "c":
                log.append_commit(key)
            elif kind == "a":
                log.append_abort(key)
            else:
                markers[key]()
    log.flush()
    return log


# -- restart model properties ------------------------------------------------


class TestRestartModelProperties:
    @given(f=st.floats(min_value=0.0, max_value=1.0),
           k=st.integers(min_value=1, max_value=20))
    def test_conflict_probability_is_a_probability(self, f, k):
        p = conflict_probability(f, k)
        assert 0.0 <= p <= 1.0

    @given(f=st.floats(min_value=0.0, max_value=1.0),
           k=st.integers(min_value=1, max_value=19))
    def test_conflict_monotone_in_k(self, f, k):
        assert conflict_probability(f, k) <= conflict_probability(f, k + 1)

    @given(f=st.floats(min_value=0.0, max_value=0.5),
           k=st.integers(min_value=1, max_value=20))
    def test_conflict_symmetric_around_half(self, f, k):
        a = conflict_probability(f, k)
        b = conflict_probability(1.0 - f, k)
        assert abs(a - b) < 1e-9

    @given(rho=st.floats(min_value=0.0, max_value=1.0),
           k=st.integers(min_value=1, max_value=20))
    def test_abort_probability_bounded_by_sweep_average(self, rho, k):
        assert abort_probability(rho, k) <= sweep_average_conflict(k) + 1e-12

    @given(p=st.floats(min_value=0.0, max_value=0.99))
    def test_expected_reruns_nonnegative_and_monotone(self, p):
        assert expected_reruns(p) >= 0.0
        assert expected_reruns(min(0.99, p + 0.005)) >= expected_reruns(p)


# -- duration model properties --------------------------------------------------


class TestDurationProperties:
    @settings(max_examples=40, deadline=None)
    @given(params=params_strategy)
    def test_minimum_duration_bounded_by_full_checkpoint(self, params):
        minimum = minimum_duration(params)
        floor = params.segment_io_time / params.n_bdisks
        assert floor * 0.999 <= minimum <= max(
            params.full_checkpoint_time, floor) * 1.001

    @settings(max_examples=40, deadline=None)
    @given(params=params_strategy,
           interval=st.floats(min_value=0.1, max_value=1e4))
    def test_active_never_exceeds_interval(self, params, interval):
        d = resolve_durations(params, interval)
        assert d.active <= d.interval * (1 + 1e-12)
        assert 0.0 <= d.active_fraction <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(params=params_strategy)
    def test_flush_count_bounded_by_segments(self, params):
        d = resolve_durations(params, None)
        assert 0 <= d.segments_flushed <= params.n_segments


# -- replay properties -----------------------------------------------------------


class TestReplayProperties:
    @settings(max_examples=60, deadline=None)
    @given(script=log_scripts())
    def test_replay_matches_reference_interpreter(self, script):
        """Replay must agree with a direct interpretation of the script."""
        replayed = np.zeros(64, dtype=np.int64)
        replay_records(_log_of(script).stable_records(), replayed)

        reference = [0] * 64
        pending = {}
        for entry in script:
            if entry[0] == "u":
                pending.setdefault(entry[1], []).append(entry[2:])
            elif entry[0] == "c":
                for rid, value in pending.pop(entry[1], []):
                    reference[rid] = value
            else:
                pending.pop(entry[1], None)
        assert replayed.tolist() == reference

    @settings(max_examples=30, deadline=None)
    @given(script=log_scripts())
    def test_replay_is_idempotent(self, script):
        records = _log_of(script).stable_records()
        once = np.zeros(64, dtype=np.int64)
        twice = np.zeros(64, dtype=np.int64)
        replay_records(records, once)
        for _ in range(2):
            replay_records(records, twice)
        assert once.tolist() == twice.tolist()

    @settings(max_examples=200, deadline=None)
    @given(script=log_scripts(rich=True),
           cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=4))
    def test_batched_feed_matches_the_per_record_loop(self, script, cuts):
        """``feed`` leaves the array and every count exactly where the
        per-record loop does, however the log is cut into batches."""
        records = list(_log_of(script).stable_records())
        bounds = [0, *sorted(min(cut, len(records)) for cut in cuts),
                  len(records)]
        batches = [records[a:b] for a, b in zip(bounds, bounds[1:])]
        initial = np.arange(64, dtype=np.int64) * 7   # deltas need a base
        batched = RedoApplier(initial.copy())
        reference = RedoApplier(initial.copy())
        for batch in batches:
            batched.feed(batch)
            reference.feed_each(batch)
        assert batched.target.tolist() == reference.target.tolist()
        assert batched.finish() == reference.finish()


# -- lock manager properties -----------------------------------------------------


class TestLockManagerProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),     # segment
                  st.integers(min_value=0, max_value=4),     # owner
                  st.booleans()),                            # exclusive?
        min_size=1, max_size=30))
    def test_no_incompatible_holders_ever(self, ops):
        locks = LockManager()
        held = {}
        for segment, owner, exclusive in ops:
            mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
            key = (segment, owner)
            if key in held:
                locks.release(segment, owner)
                del held[key]
            else:
                try:
                    if locks.try_acquire(segment, owner, mode):
                        held[key] = mode
                except Exception:
                    continue  # illegal upgrade attempts are fine to reject
            # Invariant: exclusive holders are always alone.
            by_segment = {}
            for (seg, own), m in held.items():
                by_segment.setdefault(seg, []).append(m)
            for modes in by_segment.values():
                if LockMode.EXCLUSIVE in modes:
                    assert len(modes) == 1


# -- database properties -------------------------------------------------------------


class TestDatabaseProperties:
    @settings(max_examples=40, deadline=None)
    @given(writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2047),
                  st.integers(min_value=-10**9, max_value=10**9)),
        max_size=40))
    def test_reads_reflect_last_write(self, writes):
        params = SystemParameters(s_db=8192 * 8, lam=10.0)
        database = Database(params)
        expected = {}
        for i, (rid, value) in enumerate(writes):
            database.install_record(rid, value, timestamp=i + 1, lsn=i + 1)
            expected[rid] = value
        for rid, value in expected.items():
            assert database.read_record(rid) == value

    @settings(max_examples=40, deadline=None)
    @given(record_ids=st.lists(st.integers(min_value=0, max_value=2047),
                               min_size=1, max_size=20))
    def test_dirty_segments_are_exactly_touched_segments(self, record_ids):
        params = SystemParameters(s_db=8192 * 8, lam=10.0)
        database = Database(params)
        for rid in record_ids:
            database.install_record(rid, 1, timestamp=1, lsn=1)
        dirty = set(database.table.dirty_indices())
        touched = {database.segment_index_of(r) for r in record_ids}
        assert dirty == touched


# -- end-to-end recovery property ------------------------------------------------------


class TestEndToEndRecoveryProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(algorithm=st.sampled_from(NON_STABLE),
           seed=st.integers(min_value=0, max_value=10**6),
           duration=st.floats(min_value=0.2, max_value=2.5))
    def test_recovery_always_matches_oracle(self, algorithm, seed, duration):
        """The headline invariant, under randomly chosen configurations."""
        params = SystemParameters(
            s_db=32 * 8192, lam=150.0, t_seek=0.002, n_bdisks=4)
        system = build_system(params, algorithm, seed=seed)
        system.run(duration)
        system.crash()
        system.recover()
        assert system.verify_recovery() == []


# -- event engine property ---------------------------------------------------------------


class TestEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(times=st.lists(st.floats(min_value=0.0, max_value=100.0),
                          min_size=1, max_size=50))
    def test_dispatch_order_is_nondecreasing(self, times):
        engine = EventEngine()
        fired = []
        for t in times:
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)
