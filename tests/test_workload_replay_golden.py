"""The workload stream is a pure function of its seed, host be damned.

Three views of the same ``(params, spec, seed)`` triple must agree
bit-for-bit on every arrival time, transaction id, and record selection:

1. the committed golden fixture (``tests/data/arrivals_golden.json``),
2. the offline replay loop (:func:`repro.workload.replay.replay_arrivals`),
3. a traced :class:`~repro.sim.system.SimulatedSystem` run consuming the
   stream event by event through the discrete-event engine.

The replay loop is the engine-free reference: pinning (2) to (1) and
(3) shows the host adds nothing to and takes nothing from the stream.
Times are compared via ``repr`` -- float-exact, the same discipline as
``workload_golden.json``.
"""

import json
from pathlib import Path

from repro.params import SystemParameters
from repro.sim.system import SimulatedSystem, SimulationConfig
from repro.txn.workload import WorkloadSpec
from repro.workload.replay import build_source, replay_arrivals

GOLDEN = Path(__file__).parent / "data" / "arrivals_golden.json"


def _golden():
    return json.loads(GOLDEN.read_text())


def _params(golden):
    return SystemParameters.scaled_down(golden["params"]["scale"],
                                        lam=golden["params"]["lam"])


def test_replay_matches_committed_golden_stream():
    golden = _golden()
    arrivals = replay_arrivals(_params(golden), WorkloadSpec(),
                               seed=golden["seed"],
                               horizon=golden["horizon"])
    assert len(arrivals) == len(golden["arrivals"])
    for got, want in zip(arrivals, golden["arrivals"]):
        assert repr(got["time"]) == want["time"]  # bit-exact
        assert got["txn_id"] == want["txn_id"]
        assert got["records"] == want["records"]


def test_simulated_system_consumes_the_identical_stream():
    golden = _golden()
    system = SimulatedSystem(SimulationConfig(
        params=_params(golden), seed=golden["seed"], spans=True))
    system.run(golden["horizon"])
    # A ``txn`` root span opens at the arrival instant.
    traced = [{"time": span["start"], "txn_id": span["fields"]["txn_id"]}
              for span in system.spans_snapshot() if span["name"] == "txn"]
    assert len(traced) == len(golden["arrivals"])
    for got, want in zip(traced, golden["arrivals"]):
        assert repr(got["time"]) == want["time"]  # bit-exact
        assert got["txn_id"] == want["txn_id"]


def test_replay_is_deterministic_and_horizon_monotone():
    golden = _golden()
    params = _params(golden)
    full = replay_arrivals(params, WorkloadSpec(), seed=golden["seed"],
                           horizon=golden["horizon"])
    again = replay_arrivals(params, WorkloadSpec(), seed=golden["seed"],
                            horizon=golden["horizon"])
    assert full == again
    half = replay_arrivals(params, WorkloadSpec(), seed=golden["seed"],
                           horizon=golden["horizon"] / 2)
    assert half == [a for a in full if a["time"] <= golden["horizon"] / 2]


def test_build_source_honours_a_schedule():
    from repro.workload.schedule import ArrivalSchedule, constant
    spec = WorkloadSpec(schedule=ArrivalSchedule((constant(50.0, 10.0),)))
    source = build_source(SystemParameters.scaled_down(2048), spec, seed=1)
    assert source.rate_at(0.0) == 50.0
