"""Every registered checkpointer reproduces a committed crash run exactly.

For each of the eleven algorithms, ``repro.simulate`` runs two simulated
seconds on a fixed seed, crashes, recovers and verifies.  The run
metrics, the recovery result and the recovered database's SHA-256
digest must equal ``tests/data/sim_golden.json`` bit for bit (floats are
compared by ``repr``).  A refactor of the kernel, the checkpointers or
recovery that changes any modelled decision shows up here.  Regenerate
the file (only for an intended change of the simulated behaviour) with::

    PYTHONPATH=src python -c "import json; \\
        from tests.test_sim_golden import golden_runs; \\
        print(json.dumps(golden_runs(), indent=1, sort_keys=True))" \\
        > tests/data/sim_golden.json

The default load commits three transactions in two seconds, so that run
never aborts, never copies an old segment value and replays nothing.
``tests/data/sim_golden_lam100.json`` pins the same run at
``lam=100.0`` (:data:`LOADED_RUN`): two-color aborts under 2CFLUSH and
2CCOPY, copy-on-update old copies, and 8-22 REDO-replayed transactions
per algorithm.  It is regenerated the same way with
``golden_runs(LOADED_RUN)``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro
import repro.api
from repro.checkpoint import ALL_ALGORITHM_NAMES

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"
RUN = {"scale": 1024, "duration": 2.0, "seed": 3, "crash": True}
LOADED_GOLDEN = Path(__file__).parent / "data" / "sim_golden_lam100.json"
LOADED_RUN = dict(RUN, lam=100.0)


def _exact(value):
    """``value`` with every float replaced by its ``repr`` (bit-exact)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def golden_run(algorithm: str, run: dict = RUN) -> dict:
    """One crash run of ``algorithm`` as a JSON-ready, float-exact dict."""
    built = []

    def build_system(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    original = repro.api.build_system
    repro.api.build_system = build_system
    try:
        outcome = repro.simulate(algorithm, **run)
    finally:
        repro.api.build_system = original
    recovery = outcome.recovery
    return _exact({
        "metrics": dataclasses.asdict(outcome.metrics),
        "recovery": dict(dataclasses.asdict(recovery),
                         total_time=recovery.total_time),
        "mismatches": len(outcome.mismatches),
        "state_digest": built[0].database.state_digest(),
    })


def golden_runs(run: dict = RUN) -> dict:
    return {"run": run,
            "algorithms": {name: golden_run(name, run)
                           for name in ALL_ALGORITHM_NAMES}}


def _golden(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())


def test_golden_covers_every_registered_algorithm():
    golden = _golden()
    assert golden["run"] == RUN
    assert sorted(golden["algorithms"]) == sorted(ALL_ALGORITHM_NAMES)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
def test_crash_run_matches_the_golden(algorithm):
    assert golden_run(algorithm) == _golden()["algorithms"][algorithm]


def test_loaded_golden_covers_every_algorithm_and_reaches_the_rare_paths():
    golden = _golden(LOADED_GOLDEN)
    assert golden["run"] == LOADED_RUN
    runs = golden["algorithms"]
    assert sorted(runs) == sorted(ALL_ALGORITHM_NAMES)
    for name in ("2CFLUSH", "2CCOPY"):
        assert runs[name]["metrics"]["aborts"]["two-color"] > 0
    for run in runs.values():
        assert run["recovery"]["transactions_replayed"] > 0
        assert run["mismatches"] == 0


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
def test_loaded_crash_run_matches_its_golden(algorithm):
    assert (golden_run(algorithm, LOADED_RUN)
            == _golden(LOADED_GOLDEN)["algorithms"][algorithm])
