"""The host-adapter seam: both hosts satisfy the same ports.

The kernel consumes time only through ``ClockPort``/``SchedulerPort``
(``repro/sim/ports.py``).  These tests pin the seam from both sides:
structurally (each host's clock and scheduler expose the port surface)
and behaviourally (the kernel's ``CheckpointScheduler`` paces
checkpoints identically whether the port underneath is the
discrete-event engine or the wall-clock dispatcher).  What the live
host asks beyond the port -- ``submit``, ``wait``, ``call``, ``offload``
-- is pinned over ``LiveScheduler`` and over the engine double
(``tests/engine.py``) alike.
"""

import threading
import time
from functools import partial

import pytest

from repro.checkpoint.base import CheckpointStats
from repro.checkpoint.scheduler import CheckpointPolicy, CheckpointScheduler
from repro.errors import InvalidStateError
from repro.live.clock import WallClock
from repro.live.scheduler import LiveScheduler
from repro.sim.clock import Clock
from repro.sim.engine import EventEngine
from repro.sim.ports import ClockPort, SchedulerPort, missing_methods
from tests.engine import EngineScheduler


# ---------------------------------------------------------------------------
# structural conformance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clock", [Clock(), WallClock()],
                         ids=["sim", "wall"])
def test_clocks_satisfy_clock_port(clock):
    assert list(missing_methods(clock, ClockPort)) == []
    assert isinstance(clock.now, float)
    # hot paths read _now directly; both clocks must provide it
    assert isinstance(clock._now, float)


@pytest.mark.parametrize("scheduler", [EventEngine(), LiveScheduler()],
                         ids=["engine", "live"])
def test_schedulers_satisfy_scheduler_port(scheduler):
    assert list(missing_methods(scheduler, SchedulerPort)) == []
    # the port's documented extras: a clock attribute satisfying ClockPort
    assert list(missing_methods(scheduler.clock, ClockPort)) == []


def test_wall_clock_is_monotonic_and_starts_near_zero():
    clock = WallClock()
    first = clock.now
    second = clock.now
    assert 0.0 <= first <= second
    assert second < 60.0  # seconds since construction, not an epoch


# ---------------------------------------------------------------------------
# LiveScheduler behaviour
# ---------------------------------------------------------------------------

@pytest.fixture()
def live_scheduler():
    scheduler = LiveScheduler()
    scheduler.start()
    yield scheduler
    scheduler.stop()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def test_live_scheduler_dispatches_in_time_order(live_scheduler):
    order = []
    live_scheduler.schedule_after(0.05, lambda: order.append("late"))
    live_scheduler.schedule_after(0.0, lambda: order.append("early"))
    assert _wait_until(lambda: len(order) == 2)
    assert order == ["early", "late"]
    assert live_scheduler.errors == []


def test_live_scheduler_cancel_is_lazy_and_idempotent(live_scheduler):
    ran = []
    handle = live_scheduler.schedule_after(0.05, lambda: ran.append(1))
    live_scheduler.cancel(handle)
    live_scheduler.cancel(handle)  # idempotent
    marker = []
    live_scheduler.schedule_after(0.08, lambda: marker.append(1))
    assert _wait_until(lambda: marker)
    assert ran == []


def test_live_scheduler_compaction_does_not_strand_the_dispatcher(
        live_scheduler):
    # Mass cancellation triggers a heap compaction; it must happen in
    # place, because the dispatcher thread captured its heap reference
    # at start().  A rebinding compaction would leave the dispatcher
    # draining a stale list -- cancelled entries re-dispatched, every
    # later submit (flush ticks, commit acks) invisible forever.
    from repro.sim.engine import COMPACT_MIN_BACKLOG
    doomed = []
    handles = [live_scheduler.schedule_after(60.0, lambda: doomed.append(1))
               for _ in range(2 * COMPACT_MIN_BACKLOG)]
    for handle in handles:
        live_scheduler.cancel(handle)
    with live_scheduler._lock:
        assert len(live_scheduler._heap) < len(handles)  # compaction ran
    after = []
    live_scheduler.submit(lambda: after.append(1))
    assert _wait_until(lambda: after)
    assert doomed == []
    assert live_scheduler.errors == []


def test_live_scheduler_past_time_is_clamped_not_an_error(live_scheduler):
    ran = []
    live_scheduler.schedule_at(-100.0, lambda: ran.append(1))
    assert _wait_until(lambda: ran)


def test_live_scheduler_negative_delay_rejected(live_scheduler):
    with pytest.raises(InvalidStateError):
        live_scheduler.schedule_after(-0.1, lambda: None)


def test_live_scheduler_call_returns_result_and_relays_exceptions(
        live_scheduler):
    assert live_scheduler.call(lambda: 41 + 1) == 42

    def boom():
        raise ValueError("kernel says no")

    with pytest.raises(ValueError, match="kernel says no"):
        live_scheduler.call(boom)
    # the dispatcher survived the exception
    assert live_scheduler.call(lambda: "alive") == "alive"
    # call() relays the exception to the caller; it is not a dispatcher
    # failure
    assert live_scheduler.errors == []


def test_live_scheduler_callback_exception_is_recorded_not_fatal(
        live_scheduler):
    def bad():
        raise RuntimeError("escaped")

    live_scheduler.submit(bad)
    after = []
    live_scheduler.submit(lambda: after.append(1))
    assert _wait_until(lambda: after)
    assert len(live_scheduler.errors) == 1
    assert isinstance(live_scheduler.errors[0], RuntimeError)
    live_scheduler.errors.clear()


def test_live_scheduler_stop_keeps_a_dispatcher_it_could_not_stop():
    scheduler = LiveScheduler()
    scheduler.start()
    parked, release = threading.Event(), threading.Event()

    def park() -> None:
        parked.set()
        release.wait(10.0)

    scheduler.submit(park)
    assert parked.wait(2.0)
    thread = scheduler._thread
    try:
        with pytest.raises(TimeoutError):
            scheduler.stop(timeout=0.1)
        # still the running dispatcher: call() must not run beside it
        assert scheduler._thread is thread and thread.is_alive()
    finally:
        release.set()
    scheduler.stop()
    assert scheduler._thread is None and not thread.is_alive()


def test_live_scheduler_call_without_a_dispatcher_runs_on_the_caller():
    scheduler = LiveScheduler()
    began = time.monotonic()
    assert scheduler.call(lambda: threading.current_thread(),
                          timeout=0.5) is threading.current_thread()
    scheduler.start()
    scheduler.stop()
    assert scheduler.call(lambda: 1, timeout=0.5) == 1
    assert time.monotonic() - began < 0.4


# ---------------------------------------------------------------------------
# what the live host asks of either scheduler
# ---------------------------------------------------------------------------

@pytest.fixture(params=["live", "engine"])
def host_scheduler(request):
    if request.param == "engine":
        yield EngineScheduler()
        return
    scheduler = LiveScheduler()
    scheduler.start()
    yield scheduler
    scheduler.stop()


def test_wait_returns_the_settled_outcome_or_raises_it(host_scheduler):
    wait, submit = host_scheduler.wait, host_scheduler.submit
    assert wait(lambda settle: submit(partial(settle, 42))) == 42
    assert wait(lambda settle: settle("at once")) == "at once"
    error = ValueError("refused")
    with pytest.raises(ValueError) as raised:
        wait(lambda settle: submit(partial(settle, error)))
    assert raised.value is error
    with pytest.raises(TimeoutError):
        wait(lambda settle: None, timeout=0.05)


def test_call_runs_behind_queued_callbacks_and_relays_exceptions(
        host_scheduler):
    order = []
    host_scheduler.submit(partial(order.append, "queued"))
    assert host_scheduler.call(lambda: order.append("call") or order) == [
        "queued", "call"]

    def boom():
        raise ValueError("kernel says no")

    with pytest.raises(ValueError, match="kernel says no"):
        host_scheduler.call(boom)
    assert host_scheduler.errors == []


def test_a_callback_exception_is_recorded_and_dispatching_goes_on(
        host_scheduler):
    def bad():
        raise RuntimeError("escaped")

    host_scheduler.submit(bad)
    assert host_scheduler.call(lambda: "alive") == "alive"
    [error] = host_scheduler.errors
    assert isinstance(error, RuntimeError)
    host_scheduler.errors.clear()


def test_offloaded_work_reports_back_through_submit(host_scheduler):
    ran = []

    def start(settle) -> None:
        def work() -> None:
            ran.append(threading.current_thread().name)
            host_scheduler.submit(partial(settle, "written"))

        host_scheduler.offload(work, label="ckpt-writer")

    assert host_scheduler.wait(start) == "written"
    expected = ("ckpt-writer" if isinstance(host_scheduler, LiveScheduler)
                else threading.current_thread().name)
    assert ran == [expected]
    assert host_scheduler.errors == []


# ---------------------------------------------------------------------------
# the kernel's checkpoint pacing runs unmodified on the live port
# ---------------------------------------------------------------------------

class _TickingCheckpointer:
    """Minimal CheckpointerPort: completes 10 ms after each start."""

    name = "TICK"

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.history = []
        self.on_complete = None
        self.active = False

    def start_checkpoint(self):
        began_at = self.scheduler.now
        self.active = True

        def finish():
            self.active = False
            stats = CheckpointStats(
                checkpoint_id=len(self.history) + 1, image=0,
                began_at=began_at, ended_at=self.scheduler.now,
                segments_flushed=0, segments_skipped=0, buffer_copies=0,
                cou_copies=0, words_written=0)
            self.history.append(stats)
            if self.on_complete is not None:
                self.on_complete(stats)

        self.scheduler.schedule_after(0.01, finish)

    def attach_transaction_manager(self, manager):
        pass

    def crash(self):
        self.active = False


def test_checkpoint_scheduler_paces_on_wall_clock():
    scheduler = LiveScheduler()
    checkpointer = _TickingCheckpointer(scheduler)
    pacing = CheckpointScheduler(
        checkpointer, scheduler,
        CheckpointPolicy(interval=0.05, initial_delay=0.0))
    scheduler.start()
    try:
        pacing.start()
        assert _wait_until(lambda: len(checkpointer.history) >= 3)
    finally:
        pacing.stop()
        scheduler.stop()
    assert scheduler.errors == []
    starts = [stats.began_at for stats in checkpointer.history[:3]]
    # fixed-interval policy: starts spaced by ~interval on the wall clock
    for earlier, later in zip(starts, starts[1:]):
        assert later - earlier >= 0.04


def test_checkpoint_scheduler_stop_cancels_pending_launch():
    scheduler = LiveScheduler()
    checkpointer = _TickingCheckpointer(scheduler)
    pacing = CheckpointScheduler(
        checkpointer, scheduler,
        CheckpointPolicy(interval=10.0, initial_delay=10.0))
    scheduler.start()
    try:
        pacing.start()
        pacing.stop()
        marker = []
        scheduler.submit(lambda: marker.append(1))
        assert _wait_until(lambda: marker)
    finally:
        scheduler.stop()
    assert checkpointer.history == []
    assert scheduler.errors == []
