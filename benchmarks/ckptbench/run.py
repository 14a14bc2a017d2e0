"""ckptbench: end-to-end and per-layer benchmark of the checkpointing MMDB.

One workload, as the benchmark driver runs it (the last line printed is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/ckptbench/run.py --workload live_oltp --seed 3 \\
        --seconds 20 --trace 0

Everything, for a person (every workload untraced then traced, every
metric by name with unit and sample count, the layer budgets)::

    python3 benchmarks/ckptbench/run.py --seed 1
    python3 benchmarks/ckptbench/run.py --quick        # 2 s per workload
    python3 benchmarks/ckptbench/run.py --selfcheck    # two untraced sets

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Exit status is non-zero when any
correctness check fails.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
DEFAULT_SEED = 1


def _load_contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Put the program and the benchmark's own modules on the path."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").exists():
        raise SystemExit(f"ckptbench: no program to measure under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import liveloads
    import simrun

    if name == "live_oltp":
        return liveloads.run_live(liveloads.OLTP, seed, seconds, trace)
    if name == "live_bulk":
        return liveloads.run_live(liveloads.BULK, seed, seconds, trace)
    if name == "live_restart":
        return liveloads.run_restart(seed, seconds, trace)
    if name == "sim_run":
        return simrun.run_sim(seed, seconds, trace)
    raise SystemExit(f"ckptbench: unknown workload {name!r}")


def contract_run(contract: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Run one workload; print its metrics, then the result line."""
    outcome = run_workload(name, seed, seconds, trace)
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    undeclared = sorted(set(outcome.metrics) - set(units))
    if undeclared:
        raise SystemExit(f"ckptbench: metrics not in BENCHMARK.json: "
                         f"{undeclared}")
    problems = list(outcome.problems)
    metrics: Dict[str, dict] = {}
    for metric_name, unit in units.items():
        # a layer this workload never enters reports 0 over 0 samples
        value, measured_unit, samples = outcome.metrics.get(
            metric_name, (0.0, unit, 0))
        if measured_unit != unit:
            raise SystemExit(f"ckptbench: {metric_name} measured in "
                             f"{measured_unit}, declared in {unit}")
        if not trace and not value > 0:
            problems.append(f"{name}: end-to-end metric {metric_name} "
                            f"is {value!r}")
        metrics[metric_name] = {"value": value, "unit": unit}
        print(f"metric {name} {metric_name} {value:.6g} {unit} n={samples}")
    for problem in problems:
        print(f"FAILED {problem}")
    failed = outcome.failed_ops + len(problems)
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(1, outcome.attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# -- everything at once --------------------------------------------------------

def _child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One contract-mode run in a process of its own (clean memory,
    clean module state), echoing its metric lines."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(int(trace))],
        cwd=REPO_ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print("  " + line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"ckptbench: {name} printed no result "
                         f"(exit {done.returncode})")
    return result


def _values(result: dict) -> Dict[str, float]:
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def _print_budget(title: str, total_name: str, total: float,
                  terms: List[Tuple[str, float]]) -> None:
    print(f"layer budget: {title}")
    for term, value in terms:
        print(f"  {term:<34} {value:10.3f} ms")
    covered = sum(value for _, value in terms)
    print(f"  {'sum of terms':<34} {covered:10.3f} ms")
    print(f"  {total_name:<34} {total:10.3f} ms")
    residual = (total - covered) / total if total else 0.0
    print(f"  {'residual':<34} {residual:10.1%}")


def print_budgets(traced: Dict[str, dict]) -> None:
    """Terms of a commit on ``live_oltp`` and of a restart on
    ``live_restart``: the traced run's medians, their sum, what is left."""
    if "live_oltp" in traced:
        v = _values(traced["live_oltp"])
        terms = [("live.server.overhead_ms", v["live.server.overhead_ms"]),
                 ("live.scheduler.queue_wait_ms",
                  v["live.scheduler.queue_wait_ms"]),
                 ("live.host.execute_us / 1000",
                  v["live.host.execute_us"] / 1e3),
                 ("live.host.tick_wait_ms", v["live.host.tick_wait_ms"]),
                 ("live.wal.flush_ms", v["live.wal.flush_ms"]),
                 ("live.wal.fsync_ms", v["live.wal.fsync_ms"])]
        total = v["budget.terms_ms"] / (1.0 - v["budget.residual_share"])
        _print_budget("commit on live_oltp (traced run)",
                      "commit p50, client side", total, terms)
    if "live_restart" in traced:
        v = _values(traced["live_restart"])
        terms = [("proc.boot_ms", v["proc.boot_ms"]),
                 ("live.host.init_ms (1st scan_wal)", v["live.host.init_ms"]),
                 ("live.host.recover_s * 1000",
                  v["live.host.recover_s"] * 1e3)]
        total = v["budget.terms_ms"] / (1.0 - v["budget.residual_share"])
        _print_budget("restart on live_restart (traced run)",
                      "spawn -> first get reply", total, terms)
        print(f"  of which live.wal.scan_ms, {v['live.wal.scans_per_restart']:g} "
              f"scans: {v['live.wal.scan_ms']:.3f} ms "
              f"({v['live.wal.scan_ms'] / total:.0%})")


def run_everything(contract: dict, seed: int, seconds: float) -> int:
    names = [w["name"] for w in contract["workloads"]]
    failed = 0
    traced: Dict[str, dict] = {}
    for name in names:
        for trace in (False, True):
            print(f"== {name}  --trace {int(trace)}  --seed {seed}  "
                  f"--seconds {seconds:g}")
            result = _child(name, seed, seconds, trace)
            share = result["failed"] / result["attempted"]
            print(f"  failed_share {name} {share:.6g} "
                  f"({result['failed']} of {result['attempted']})")
            failed += result["failed"]
            if trace:
                traced[name] = result
    print_budgets(traced)
    print("ckptbench: " + ("all checks passed" if not failed
                           else f"{failed} checks FAILED"))
    return 0 if not failed else 1


def selfcheck(contract: dict, seed: int, seconds: float) -> int:
    """Two untraced sets of the same code must agree within the bounds."""
    names = [w["name"] for w in contract["workloads"]]
    sets: List[Dict[str, dict]] = []
    for round_ in (1, 2):
        results = {}
        for name in names:
            print(f"== set {round_}: {name}")
            results[name] = _child(name, seed, seconds, False)
        sets.append(results)
    status = 0
    print(f"{'metric':<18} {'workload':<13} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    from stats import relative_gap
    for metric in contract["end_to_end"]:
        for name in names:
            first = sets[0][name]["metrics"][metric["name"]]["value"]
            second = sets[1][name]["metrics"][metric["name"]]["value"]
            gap = relative_gap(first, second, metric["better"])
            verdict = "" if gap <= metric["bound"] else "  EXCEEDED"
            status |= bool(verdict)
            print(f"{metric['name']:<18} {name:<13} {first:12.5g} "
                  f"{second:12.5g} {gap:+9.1%} {metric['bound']:6.0%}"
                  f"{verdict}")
    for results in sets:
        status |= any(r["failed"] for r in results.values())
    traced = {name: _child(name, seed, seconds, True)
              for name in ("live_oltp", "live_restart")}
    print_budgets(traced)
    status |= any(r["failed"] for r in traced.values())
    print("ckptbench selfcheck: " + ("passed" if not status else "FAILED"))
    return int(status)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 s per workload (smoke test)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    contract = _load_contract()
    seconds = (2.0 if args.quick else args.seconds if args.seconds
               else float(contract["run_seconds"]))
    if args.workload is not None:
        return contract_run(contract, args.workload, args.seed, seconds,
                            bool(args.trace))
    if args.selfcheck:
        return selfcheck(contract, args.seed, seconds)
    return run_everything(contract, args.seed, seconds)


if __name__ == "__main__":
    raise SystemExit(main())
