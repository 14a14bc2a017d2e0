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


def _exact(value):
    """``value`` with every float replaced by its ``repr`` (bit-exact)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def golden_run(algorithm: str) -> dict:
    """One crash run of ``algorithm`` as a JSON-ready, float-exact dict."""
    built = []

    def build_system(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    original = repro.api.build_system
    repro.api.build_system = build_system
    try:
        outcome = repro.simulate(algorithm, **RUN)
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


def golden_runs() -> dict:
    return {"run": RUN,
            "algorithms": {name: golden_run(name)
                           for name in ALL_ALGORITHM_NAMES}}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registered_algorithm():
    golden = _golden()
    assert golden["run"] == RUN
    assert sorted(golden["algorithms"]) == sorted(ALL_ALGORITHM_NAMES)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
def test_crash_run_matches_the_golden(algorithm):
    assert golden_run(algorithm) == _golden()["algorithms"][algorithm]
