"""``sim_run``: the researcher's path -- three checkpointer families on
the discrete-event simulator, then crash, recover, verify.

No live code runs here.  FUZZYCOPY, COUCOPY and 2CCOPY cover fuzzy,
copy-on-update and the two-colour abort/rerun path.  Simulated duration
scales with ``--seconds`` (ten simulated seconds per second, 200 at the
benchmark's ``run_seconds``) and is otherwise fixed, because the host
rate falls as a run gets longer: short runs hide what sweeps pay.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from layers import Metrics, Outcome
from loadgen import child_env
from stats import median

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_sim.json"
ALGORITHMS = ("FUZZYCOPY", "COUCOPY", "2CCOPY")
SIM_SECONDS_PER_SECOND = 10.0
#: ``repro/<dir>/`` -> name of its share of host time in the profile
PROFILE_LAYERS = {"sim": "engine", "txn": "txn", "wal": "wal",
                  "checkpoint": "checkpoint", "mmdb": "mmdb",
                  "storage": "storage", "cpu": "cpu", "obs": "obs",
                  "workload": "workload"}


def _config(algorithm: str, seed: int):
    from repro.checkpoint.scheduler import CheckpointPolicy
    from repro.params import SystemParameters
    from repro.sim.system import SimulationConfig

    return SimulationConfig(
        params=SystemParameters(s_db=128 * 8192, lam=300.0, t_seek=0.002,
                                n_bdisks=8),
        algorithm=algorithm, seed=seed, policy=CheckpointPolicy(),
        preload_backup=True)


class SimOutcome(NamedTuple):
    run_s: float
    recover_s: float
    mismatches: int
    #: exact counts and modelled results: must not move when only the
    #: simulator's speed changes
    digest: Dict[str, float]


def _simulate(algorithm: str, seed: int, duration: float,
              profile: cProfile.Profile = None) -> SimOutcome:
    from repro.sim.system import SimulatedSystem

    system = SimulatedSystem(_config(algorithm, seed))
    began = time.perf_counter()
    if profile is not None:
        metrics = profile.runcall(system.run, duration)
    else:
        metrics = system.run(duration)
    run_s = time.perf_counter() - began
    began = time.perf_counter()
    system.crash()
    recovery = system.recover()
    recover_s = time.perf_counter() - began
    mismatches = len(system.verify_recovery())
    digest = {
        f"sim.engine.events.{algorithm}": system.engine.dispatched,
        f"txn.manager.committed.{algorithm}": metrics.transactions_committed,
        f"checkpoint.completed.{algorithm}": metrics.checkpoints_completed,
        f"model.overhead_instr.{algorithm}": metrics.overhead_per_transaction,
        f"model.recovery_s.{algorithm}": recovery.total_time,
    }
    if algorithm == "2CCOPY":
        digest["txn.manager.reruns.2CCOPY"] = metrics.reruns
    return SimOutcome(run_s, recover_s, mismatches, digest)


def _setup_trial(seed: int) -> float:
    """Seconds for a fresh interpreter to import the simulator and
    construct all three systems: what a sweep worker pays before its
    first event, wherever a change moves that work."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
            "import simrun\n"
            "from repro.sim.system import SimulatedSystem\n"
            "for a in simrun.ALGORITHMS:\n"
            f"    SimulatedSystem(simrun._config(a, {seed}))\n")
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())
    return time.perf_counter() - began


def _golden_problems(digest: Dict[str, float], seed: int,
                     seconds: float) -> List[str]:
    """Compare with the committed golden when it was taken at this seed
    and length (other seeds are checked run-against-run when traced)."""
    golden = json.loads(GOLDEN.read_text())
    if golden["seed"] != seed or golden["seconds"] != seconds:
        return []
    return [f"sim_run: {name} = {digest.get(name)!r}, golden {value!r}"
            for name, value in golden["digest"].items()
            if digest.get(name) != value]


def _events_per_second(n_events: int = 1_000_000, chains: int = 64) -> float:
    """No-op event chains: raw dispatch rate of ``EventEngine.run``."""
    from repro.sim.engine import EventEngine

    engine = EventEngine()
    per_chain = n_events // chains

    def start_chain(offset: float) -> None:
        remaining = per_chain

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                engine.schedule_after(1e-3, tick)

        engine.schedule_at(offset, tick)

    for chain in range(chains):
        start_chain(1e-4 * chain)
    began = time.perf_counter()
    engine.run()
    return engine.dispatched / (time.perf_counter() - began)


def _profile_shares(profile: cProfile.Profile) -> Metrics:
    """Share of profiled host time spent in each ``repro/<dir>/``."""
    own: Dict[str, float] = dict.fromkeys(PROFILE_LAYERS.values(), 0.0)
    total = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in \
            pstats.Stats(profile).stats.items():
        total += tottime
        parts = Path(filename).parts
        if "repro" in parts[:-1]:
            directory = parts[parts.index("repro") + 1]
            if directory in PROFILE_LAYERS:
                own[PROFILE_LAYERS[directory]] += tottime
    shares = {f"sim.share.{name}": (value / total if total else 0.0,
                                    "ratio", 1)
              for name, value in own.items()}
    shares["budget.terms_ms"] = (sum(own.values()) * 1e3, "ms", 1)
    # host time outside every listed module (numpy, builtins, heapq)
    shares["budget.residual_share"] = (
        1.0 - sum(own.values()) / total if total else 0.0, "ratio", 1)
    return shares


def run_sim(seed: int, seconds: float, trace: bool) -> Outcome:
    duration = seconds * SIM_SECONDS_PER_SECOND
    if trace:
        return _run_sim_traced(seed, seconds, duration)
    # set-up is timed before each family and twice after the last, so a
    # slow spell of the machine cannot take every sample
    setups: List[float] = []
    outcomes: Dict[str, SimOutcome] = {}
    for algorithm in ALGORITHMS:
        setups.append(_setup_trial(seed))
        outcomes[algorithm] = _simulate(algorithm, seed, duration)
    setups += [_setup_trial(seed), _setup_trial(seed)]
    digest = {k: v for o in outcomes.values() for k, v in o.digest.items()}
    problems = _problems(outcomes) + _golden_problems(digest, seed, seconds)
    committed = sum(o.digest[f"txn.manager.committed.{a}"]
                    for a, o in outcomes.items())
    # host milliseconds one simulated second costs, per family
    cost = [o.run_s / duration * 1e3 for o in outcomes.values()]
    metrics: Metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_per_s": (
            committed / sum(o.run_s for o in outcomes.values()), "1/s",
            committed),
        # the mean, not the median family: one family is one 4 s
        # measurement, and machine noise here lasts about that long
        "latency_p50_ms": (sum(cost) / len(cost), "ms", len(cost)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1),
    }
    # attempted: one recovery verdict per family, plus the digest check
    return Outcome(len(ALGORITHMS) + 1, 0, problems, metrics)


def _problems(outcomes: Dict[str, SimOutcome]) -> List[str]:
    problems = []
    for algorithm, outcome in outcomes.items():
        if outcome.mismatches:
            problems.append(f"sim_run: {algorithm} recovered "
                            f"{outcome.mismatches}+ records wrongly")
        if not outcome.digest[f"txn.manager.committed.{algorithm}"]:
            problems.append(f"sim_run: {algorithm} committed nothing")
    return problems


def _run_sim_traced(seed: int, seconds: float, duration: float) -> Outcome:
    outcomes = {a: _simulate(a, seed, duration) for a in ALGORITHMS}
    digest = {k: v for o in outcomes.values() for k, v in o.digest.items()}
    problems = _problems(outcomes) + _golden_problems(digest, seed, seconds)
    profile = cProfile.Profile()
    profiled = _simulate("FUZZYCOPY", seed, duration, profile)
    # two runs of one seed must agree exactly, whatever the seed
    if profiled.digest != outcomes["FUZZYCOPY"].digest:
        problems.append(f"sim_run: FUZZYCOPY is not deterministic: "
                        f"{profiled.digest} vs "
                        f"{outcomes['FUZZYCOPY'].digest}")
    metrics: Metrics = {}
    for name, value in digest.items():
        unit = ("instr" if name.startswith("model.overhead") else
                "sim_s" if name.startswith("model.recovery") else "count")
        metrics[name] = (value, unit, 1)
    for algorithm, outcome in outcomes.items():
        metrics[f"sim.txns_per_s.{algorithm}"] = (
            outcome.digest[f"txn.manager.committed.{algorithm}"]
            / outcome.run_s, "1/s",
            outcome.digest[f"txn.manager.committed.{algorithm}"])
    recoveries = [o.recover_s * 1e3 for o in outcomes.values()]
    metrics["recovery.sim_recover_ms"] = (median(recoveries), "ms",
                                          len(recoveries))
    metrics["sim.engine.events_per_s"] = (_events_per_second(), "1/s",
                                          1_000_000)
    metrics.update(_profile_shares(profile))
    plain_s = outcomes["FUZZYCOPY"].run_s
    metrics["trace.overhead_share"] = (
        (profiled.run_s - plain_s) / plain_s, "ratio", 1)
    return Outcome(len(ALGORITHMS) + 2, 0, problems, metrics)
