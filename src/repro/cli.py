"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``      -- print Tables 2a-2d (the model parameters);
* ``figures``     -- regenerate the paper's figures (4a-4e or ``all``),
  optionally as ASCII plots;
* ``evaluate``    -- run the analytic model on one algorithm/configuration;
* ``simulate``    -- run the discrete-event testbed, optionally with a
  crash + verified recovery at the end;
* ``validate``    -- model-vs-testbed comparison table;
* ``ablations``   -- the modelling-choice ablation table;
* ``extensions``  -- the consistency-spectrum and latency extensions;
* ``capacity``    -- throughput capacity per algorithm on a MIPS budget;
* ``report``      -- regenerate the full report (tables + CSV + REPORT.md);
* ``metrics``     -- telemetry report for one instrumented testbed run
  (quantile tables, checkpoint phase timings, abort taxonomy, or JSON);
* ``trace``       -- span-trace summary for one run (``--out`` saves the
  run document) or for a saved document (``--load``); ``--attribution``
  adds the checkpoint-stall decomposition of tail latency,
  ``--chrome-out`` exports the spans as Chrome-trace JSON for
  Perfetto / ``chrome://tracing``;
* ``faults``      -- deterministic fault injection: run one fault plan
  (crash / torn writes / transient I/O) with verified recovery, or a
  seeded crash matrix over every algorithm (``--matrix N``);
* ``workload``    -- the open-system workload engine: ``list`` /
  ``describe`` the registered scenarios, ``run`` one scenario with
  offered-vs-served load reporting, or ``sweep`` a scenario axis
  against an algorithm list.

Commands that run simulations through the sweep runner (``validate``,
``extensions``, ``report``, ``faults --matrix``, ``workload sweep``) also
accept ``--workers``, ``--replicates``, ``--no-cache`` and ``--verbose``
(per-cell progress lines on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Union

from .api import SimulationOutcome, build_system, simulate
from .checkpoint.registry import ALGORITHM_NAMES, ALL_ALGORITHM_NAMES
from .faults.plan import CRASH_PHASES
from .model.evaluate import evaluate
from .obs.presets import PRESET_NAMES, get_preset
from .params import SystemParameters
from .storage.backends import storage_backend_names
from .sweep import SweepRunner, default_cache_dir


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform sweep flags shared by every sweep-backed command."""
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for parameter sweeps "
                             "(default: all CPUs; results are identical "
                             "for any worker count)")
    parser.add_argument("--replicates", type=int, default=1, metavar="R",
                        help="seeded replicates per simulation point "
                             "('faults --matrix' and 'workload sweep' seed "
                             "their own cells and ignore this)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point instead of reusing "
                             "the on-disk sweep result cache")
    parser.add_argument("--verbose", action="store_true",
                        help="log one stderr line per completed sweep cell "
                             "(done/total, cache hits, retries, failures)")


def _sweep_runner(args: argparse.Namespace) -> SweepRunner:
    """The one SweepRunner of a CLI invocation, built from the sweep flags."""
    workers = args.workers if args.workers is not None else os.cpu_count()
    return SweepRunner(
        workers=workers or 1,
        cache_dir=None if args.no_cache else default_cache_dir(),
        progress=_print_progress if sys.stderr.isatty() else None,
        verbose=args.verbose)


def _print_progress(done: int, total: int, _cell) -> None:
    end = "\n" if done == total else ""
    print(f"\rsweep: {done}/{total} points", end=end,
          file=sys.stderr, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of Salem & Garcia-Molina, 'Checkpointing "
                     "Memory-Resident Databases' (ICDE 1989)"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 2a-2d")

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("which", nargs="?", default="all",
                         choices=["4a", "4b", "4c", "4d", "4e", "all",
                                  "recovery-scaling"])
    figures.add_argument("--plot", action="store_true",
                         help="render ASCII plots where the figure is a "
                              "curve family")

    ev = sub.add_parser("evaluate", help="analytic model, one configuration")
    ev.add_argument("--algorithm", default="COUCOPY")
    ev.add_argument("--interval", type=float, default=None,
                    help="checkpoint interval in seconds (default: minimum)")
    ev.add_argument("--lam", type=float, default=None,
                    help="arrival rate, transactions/second")
    ev.add_argument("--disks", type=int, default=None,
                    help="number of backup disks")
    ev.add_argument("--segment-size", type=int, default=None,
                    help="segment size in words")
    ev.add_argument("--stable-tail", action="store_true",
                    help="stable RAM holds the log tail")

    sim = sub.add_parser("simulate", help="run the discrete-event testbed")
    _add_system_flags(sim, algorithm="COUCOPY", scale=256, duration=10.0,
                      lam=True, stable_tail=True)
    sim.add_argument("--crash", action="store_true",
                     help="inject a crash at the end and verify recovery")
    sim.add_argument("--storage-backend", default="memory",
                     choices=list(storage_backend_names()),
                     help="backup-image storage backend (default: memory)")
    sim.add_argument("--storage-dir", default=None, metavar="DIR",
                     help="directory for the file backend's image files "
                          "(default: a fresh temporary directory)")
    sim.add_argument("--partitions", type=int, default=1,
                     help="hash-partition the segment space into N "
                          "independent shards, each with its own "
                          "checkpointer and WAL stream (default: 1, the "
                          "paper's single-engine configuration)")
    sim.add_argument("--partition-policy", default="coordinated",
                     choices=["coordinated", "staggered"],
                     help="per-partition checkpoint phasing (staggered "
                          "offsets shard i by i/N of the interval)")
    sim.add_argument("--recovery-workers", type=int, default=1,
                     help="simulated concurrent REDO workers replaying "
                          "the per-partition log streams after a crash")
    _add_workload_flags(sim)

    val = sub.add_parser("validate", help="model-vs-testbed comparison")
    val.add_argument("--duration", type=float, default=10.0)
    val.add_argument("--seed", type=int, default=42)
    _add_sweep_flags(val)

    sub.add_parser("ablations", help="modelling-choice ablations")

    ext = sub.add_parser("extensions",
                         help="AC/NAIVELOCK extension experiments")
    _add_sweep_flags(ext)

    cap = sub.add_parser("capacity",
                         help="throughput capacity per algorithm")
    cap.add_argument("--mips", type=float, default=50.0,
                     help="processor budget in MIPS")

    rep = sub.add_parser("report", help="regenerate the full report")
    rep.add_argument("--out", default="reports",
                     help="output directory (default: ./reports)")
    rep.add_argument("--fast", action="store_true",
                     help="model-only report (skip simulation sections)")
    _add_sweep_flags(rep)

    met = sub.add_parser(
        "metrics", help="telemetry report for one instrumented testbed run")
    _add_run_flags(met)
    met.add_argument("--json", action="store_true",
                     help="machine-readable output: the run document "
                          "(meta + summary + telemetry snapshot + "
                          "checkpoint history)")
    met.add_argument("--load", default=None, metavar="PATH",
                     help="render a saved run document ('metrics --json' "
                          "or 'trace --out' output) instead of simulating")

    trc = sub.add_parser(
        "trace", help="span-trace summary / run-document export for one "
                      "run (txn lifecycle, checkpoint phases, WAL flushes)")
    _add_run_flags(trc)
    trc.add_argument("--out", default=None, metavar="PATH",
                     help="save the run document (the 'metrics --json' "
                          "payload plus the spans) as JSON to PATH")
    trc.add_argument("--load", default=None, metavar="PATH",
                     help="summarise a run document saved with --out "
                          "instead of simulating")
    trc.add_argument("--tail", type=int, default=20, metavar="N",
                     help="show the last N recorded spans (default 20)")
    trc.add_argument("--attribution", action="store_true",
                     help="decompose p50/p95/p99 commit latency by cause "
                          "(quiesce / ckpt-held locks / rerun backoff / "
                          "cpu / service) by joining txn spans against "
                          "overlapping checkpoint spans")
    trc.add_argument("--chrome-out", default=None, metavar="PATH",
                     help="write the span trace as Chrome-trace JSON "
                          "(loads in Perfetto / chrome://tracing)")

    srv = sub.add_parser(
        "serve",
        help="run the live wall-clock service (get/put socket server "
             "over the durable WAL + checkpoint host)")
    srv.add_argument("--data-dir", required=True, metavar="DIR",
                     help="directory for wal.jsonl and checkpoint.npz")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port on 127.0.0.1 (0 = ephemeral; the "
                          "bound port is announced on the ready line)")
    srv.add_argument("--scale", type=int, default=2048,
                     help="database scale-down factor vs the paper")
    srv.add_argument("--checkpoint-interval", type=float, default=2.0,
                     help="wall-clock seconds between checkpoint starts")
    srv.add_argument("--no-checkpoints", action="store_true",
                     help="disable scheduled checkpoints (explicit "
                          "'checkpoint' ops still work)")
    srv.add_argument("--flush-interval", type=float, default=0.005,
                     help="seconds between periodic WAL flushes, > 0: the "
                          "longest a record nobody waits on stays "
                          "volatile (a commit asks for its own group "
                          "flush and is acknowledged after that "
                          "flush+fsync, whatever this is)")
    srv.add_argument("--no-fsync", action="store_true",
                     help="skip fsync on WAL flushes (testing only; "
                          "forfeits the durability guarantee)")
    srv.add_argument("--check", action="store_true",
                     help="no server: recover from --data-dir, verify "
                          "against the committed-state oracle, print the "
                          "JSON verdict, exit (nonzero on mismatches)")

    flt = sub.add_parser(
        "faults",
        help="fault injection with verified crash recovery")
    _add_system_flags(flt, algorithm="FUZZYCOPY", scale=256, duration=10.0,
                      interval=1.0, lam=True)
    flt.add_argument("--plan", default=None, metavar="FILE",
                     help="JSON fault plan (FaultPlan.to_dict format; "
                          "'-' reads stdin); overrides the plan flags")
    flt.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the plan's private fault RNG")
    flt.add_argument("--crash-at", type=float, default=None, metavar="T",
                     help="crash at simulated time T")
    flt.add_argument("--crash-after-writes", type=int, default=None,
                     metavar="N", help="crash at the N-th backup-disk write")
    flt.add_argument("--crash-phase", default=None,
                     choices=list(CRASH_PHASES),
                     help="crash when a checkpoint reaches this phase")
    flt.add_argument("--crash-checkpoint", type=int, default=1, metavar="K",
                     help="which checkpoint the phase trigger targets")
    flt.add_argument("--crash-after-flushes", type=int, default=1,
                     metavar="N",
                     help="sweep/paint progress count that triggers")
    flt.add_argument("--crash-at-log-flush", type=int, default=None,
                     metavar="N",
                     help="crash at the N-th non-empty log flush "
                          "(lost-tail crash)")
    flt.add_argument("--torn-writes", action="store_true",
                     help="tear segment writes in flight at the crash")
    flt.add_argument("--io-error-rate", type=float, default=0.0,
                     help="per-attempt transient disk failure probability")
    flt.add_argument("--io-retries", type=int, default=4,
                     help="retry budget before MediaError")
    flt.add_argument("--io-backoff", type=float, default=0.002,
                     help="first retry backoff in seconds (doubles)")
    flt.add_argument("--latency-spike-rate", type=float, default=0.0,
                     help="probability a disk request suffers a spike")
    flt.add_argument("--latency-spike", type=float, default=0.05,
                     help="added delay of one spike, seconds")
    flt.add_argument("--matrix", type=int, default=None, metavar="N",
                     help="run N seeded-random plans against every "
                          "algorithm (sweep mode) instead of one plan")
    flt.add_argument("--algorithms", default=None,
                     help="comma-separated algorithm list for --matrix "
                          "(default: the paper's six)")
    flt.add_argument("--json", action="store_true",
                     help="machine-readable report(s)")
    _add_sweep_flags(flt)

    wl = sub.add_parser(
        "workload",
        help="open-system workload engine: scenarios, schedules, sweeps")
    wl_sub = wl.add_subparsers(dest="workload_command", required=True)

    wl_list = wl_sub.add_parser("list", help="registered workload scenarios")
    wl_list.add_argument("--json", action="store_true",
                         help="machine-readable scenario catalog")

    wl_desc = wl_sub.add_parser("describe",
                                help="one scenario's spec in full")
    wl_desc.add_argument("name", help="scenario name (see 'workload list')")
    wl_desc.add_argument("--json", action="store_true",
                         help="the scenario as WorkloadSpec.to_dict JSON")

    wl_run = wl_sub.add_parser(
        "run", help="run one scenario, reporting offered vs served load")
    wl_run.add_argument("--scenario", default=None,
                        help="registered scenario name")
    wl_run.add_argument("--spec", default=None, metavar="FILE",
                        help="JSON workload spec (WorkloadSpec.to_dict "
                             "format; '-' reads stdin); alternative to "
                             "--scenario")
    _add_system_flags(wl_run, algorithm="COUCOPY", scale=1024,
                      duration="the scenario's suggested duration, else 10")
    wl_run.add_argument("--crash", action="store_true",
                        help="inject a crash at the end and verify recovery")
    wl_run.add_argument("--json", action="store_true",
                        help="machine-readable run report")

    wl_sweep = wl_sub.add_parser(
        "sweep", help="sweep a scenario axis against an algorithm list")
    wl_sweep.add_argument("--scenarios", default=None,
                          help="comma-separated scenario names "
                               "(default: every registered scenario)")
    wl_sweep.add_argument("--algorithms", default="FUZZYCOPY,COUCOPY",
                          help="comma-separated algorithm list")
    _add_system_flags(wl_sweep, algorithm=None, scale=1024,
                      duration="each scenario's suggested duration")
    wl_sweep.add_argument("--json", action="store_true",
                          help="machine-readable cell table")
    _add_sweep_flags(wl_sweep)
    return parser


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """Workload knobs for ``simulate`` (spec source + skew shorthands)."""
    parser.add_argument("--workload", default=None, metavar="NAME|FILE",
                        help="workload: a registered scenario name or a "
                             "JSON spec file (WorkloadSpec.to_dict format; "
                             "'-' reads stdin)")
    parser.add_argument("--zipf-theta", type=float, default=None,
                        metavar="THETA",
                        help="Zipf record selection with this exponent "
                             "(>1); shorthand for a zipf-skewed spec")
    parser.add_argument("--hot-fraction", type=float, default=None,
                        metavar="H",
                        help="hotspot record selection: fraction of "
                             "records forming the hot set")
    parser.add_argument("--hot-probability", type=float, default=None,
                        metavar="P",
                        help="hotspot record selection: probability an "
                             "access lands in the hot set")
    parser.add_argument("--uniform-arrivals", action="store_true",
                        help="deterministically paced arrivals instead of "
                             "Poisson sampling")


def _add_system_flags(parser: argparse.ArgumentParser, *,
                      algorithm: Optional[str], scale: int,
                      duration: Union[float, str], seed: int = 0,
                      interval: Optional[float] = None, lam: bool = False,
                      stable_tail: bool = False) -> None:
    """The testbed flags every run command shares; defaults per command.

    ``duration`` given as text leaves the flag unset by default and
    names, in the help line, what the command falls back to.
    """
    if algorithm is not None:
        parser.add_argument("--algorithm", default=algorithm,
                            choices=list(ALL_ALGORITHM_NAMES))
    parser.add_argument("--scale", type=int, default=scale,
                        help="database scale-down factor vs the paper")
    if lam:
        parser.add_argument("--lam", type=float, default=200.0,
                            help="arrival rate, transactions/second")
    parser.add_argument(
        "--duration", type=float,
        default=None if isinstance(duration, str) else duration,
        help=f"simulated seconds (default: {duration})")
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--interval", type=float, default=interval,
                        help="checkpoint interval in seconds (default: "
                             "%(default)s; None = back-to-back checkpoints)")
    if stable_tail:
        parser.add_argument("--stable-tail", action="store_true",
                            help="stable RAM holds the log tail")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One-run scenario flags shared by ``metrics`` and ``trace``."""
    parser.add_argument("--preset", default=None, choices=list(PRESET_NAMES),
                        help="named scenario (overrides the individual "
                             "run flags below, except --duration)")
    _add_system_flags(parser, algorithm="2CCOPY", scale=256, seed=42,
                      duration="the preset's, else 6", lam=True,
                      stable_tail=True)


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------

def _cmd_tables(_args: argparse.Namespace) -> str:
    from .experiments import tables
    return tables.render()


def _cmd_figures(args: argparse.Namespace) -> str:
    from .experiments import fig4a, fig4b, fig4c, fig4d, fig4e, recovery_scaling
    # "all" means the paper's figures; the partitioned recovery-scaling
    # extension runs only when asked for by name.
    chosen = (["4a", "4b", "4c", "4d", "4e"] if args.which == "all"
              else [args.which])
    renderers = {
        "4a": fig4a.render, "4b": fig4b.render, "4c": fig4c.render,
        "4d": fig4d.render, "4e": fig4e.render,
        "recovery-scaling": recovery_scaling.render,
    }
    blocks = [renderers[name]() for name in chosen]
    if args.plot:
        blocks.extend(_figure_plots(chosen))
    return "\n\n".join(blocks)


def _figure_plots(chosen: List[str]) -> List[str]:
    from .experiments import fig4b, fig4c
    from .experiments.ascii_plot import AsciiPlot
    plots: List[str] = []
    if "4b" in chosen:
        plot = AsciiPlot(title="Figure 4b - overhead vs recovery time",
                         x_label="recovery time (s)",
                         y_label="overhead (instructions/txn)", log_y=True)
        for (alg, disks), curve in sorted(
                fig4b.figure4b().items()):
            plot.add_series(f"{alg}/{disks}d",
                            [(p.recovery_time, p.overhead_per_txn)
                             for p in curve])
        plots.append(plot.render())
    if "4c" in chosen:
        plot = AsciiPlot(title="Figure 4c - overhead vs load",
                         x_label="arrival rate (txns/s)",
                         y_label="overhead (instructions/txn)",
                         log_x=True, log_y=True)
        for name, points in fig4c.figure4c().items():
            plot.add_series(name, [(p.lam, p.overhead_per_txn)
                                   for p in points])
        plots.append(plot.render())
    return plots


def _cmd_evaluate(args: argparse.Namespace) -> str:
    params = SystemParameters.paper_defaults()
    overrides = {}
    if args.lam is not None:
        overrides["lam"] = args.lam
    if args.disks is not None:
        overrides["n_bdisks"] = args.disks
    if args.segment_size is not None:
        overrides["s_seg"] = args.segment_size
    if args.stable_tail:
        overrides["stable_log_tail"] = True
    if overrides:
        params = params.replace(**overrides)
    result = evaluate(args.algorithm, params, interval=args.interval)
    lines = [f"{args.algorithm.upper()} @ interval="
             f"{result.interval:.2f}s (requested: "
             f"{args.interval if args.interval is not None else 'minimum'})"]
    for key, value in result.summary().items():
        lines.append(f"  {key:20s} {value:.4g}")
    return "\n".join(lines)


def _spec_from_file_or_name(value: str):
    """A --workload/--spec operand: a JSON file, '-', or a scenario name."""
    from .workload import WorkloadSpec, resolve_workload
    if value == "-":
        return WorkloadSpec.from_dict(json.loads(sys.stdin.read()))
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as handle:
            return WorkloadSpec.from_dict(json.load(handle))
    return resolve_workload(value)


def _workload_from_flags(args: argparse.Namespace):
    """The simulate command's workload spec, or None for the default."""
    from dataclasses import replace

    from .errors import ConfigurationError
    from .workload import AccessDistribution, WorkloadSpec
    spec = (_spec_from_file_or_name(args.workload) if args.workload
            else None)
    zipf = args.zipf_theta is not None
    hotspot = (args.hot_fraction is not None
               or args.hot_probability is not None)
    if zipf and hotspot:
        raise ConfigurationError(
            "--zipf-theta conflicts with --hot-fraction/--hot-probability: "
            "a spec has one record-selection distribution")
    overrides: Dict[str, Any] = {}
    if zipf:
        overrides["distribution"] = AccessDistribution.ZIPF
        overrides["zipf_theta"] = args.zipf_theta
    if hotspot:
        overrides["distribution"] = AccessDistribution.HOTSPOT
        if args.hot_fraction is not None:
            overrides["hot_fraction"] = args.hot_fraction
        if args.hot_probability is not None:
            overrides["hot_probability"] = args.hot_probability
    if args.uniform_arrivals:
        overrides["poisson_arrivals"] = False
    if spec is None and not overrides:
        return None
    return replace(spec if spec is not None else WorkloadSpec(), **overrides)


def _render_outcome(header: str, outcome: SimulationOutcome,
                    load_lines: List[str]) -> str:
    """The run report ``simulate`` and ``workload run`` both print."""
    config, metrics = outcome.config, outcome.metrics
    lines = [header]
    if config.partitions > 1:
        lines.append(
            f"  partitions           {config.partitions} "
            f"({config.partition_policy} checkpoints)")
    lines += load_lines
    lines += [
        f"  committed            {metrics.transactions_committed}",
        f"  checkpoints          {metrics.checkpoints_completed}",
        f"  overhead/txn         {metrics.overhead_per_transaction:.0f} "
        f"instructions",
        f"  aborts               {metrics.aborts or 0}",
        f"  lock waits           {metrics.lock_waits}",
        f"  mean response        {metrics.mean_response_time * 1e3:.2f} ms",
        f"  disk utilisation     {metrics.disk_utilisation:.0%}",
    ]
    result = outcome.recovery
    if result is not None:
        if config.partitions > 1:
            lines.append(
                f"  crash+recover        {result.partitions} partitions on "
                f"{result.workers} workers, "
                f"{result.transactions_replayed} txns replayed, "
                f"{result.total_time:.2f}s makespan "
                f"({result.speedup:.2f}x vs sequential)")
        else:
            lines.append(
                f"  crash+recover        checkpoint "
                f"{result.used_checkpoint_id}, "
                f"{result.transactions_replayed} txns replayed, "
                f"{result.total_time:.2f}s modelled")
        lines.append(
            "  oracle               "
            + ("PASS" if outcome.clean else f"FAIL {outcome.mismatches}"))
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> str:
    workload = _workload_from_flags(args)
    outcome = simulate(
        args.algorithm, scale=args.scale, lam=args.lam, seed=args.seed,
        duration=args.duration, interval=args.interval, crash=args.crash,
        stable_tail=args.stable_tail, workload=workload,
        storage_backend=args.storage_backend, storage_dir=args.storage_dir,
        partitions=args.partitions, partition_policy=args.partition_policy,
        recovery_workers=args.recovery_workers)
    metrics = outcome.metrics
    load_lines = [] if workload is None else [
        f"  workload             {workload.describe()}",
        f"  offered/served       {metrics.offered_rate:.1f} / "
        f"{metrics.served_rate:.1f} txns/s",
    ]
    return _render_outcome(
        f"{args.algorithm} on a {outcome.config.params.n_segments}-segment "
        f"database ({args.duration:.1f}s simulated, seed {args.seed})",
        outcome, load_lines)


def _cmd_validate(args: argparse.Namespace) -> str:
    from .experiments import validation
    rows = validation.run_validation_suite(
        duration=args.duration, seed=args.seed,
        replicates=args.replicates, runner=_sweep_runner(args))
    return validation.render(rows)


def _cmd_ablations(_args: argparse.Namespace) -> str:
    from .experiments import ablations
    return ablations.render()


def _cmd_extensions(args: argparse.Namespace) -> str:
    from .experiments import extensions
    return extensions.render(replicates=args.replicates,
                             runner=_sweep_runner(args))


def _cmd_capacity(args: argparse.Namespace) -> str:
    from .experiments import capacity
    return capacity.render(mips=args.mips)


def _cmd_report(args: argparse.Namespace) -> str:
    from .experiments.report import generate_report
    path = generate_report(args.out, include_simulations=not args.fast,
                           replicates=args.replicates,
                           runner=_sweep_runner(args))
    return f"report written to {path}"


def _run_document(args: argparse.Namespace, *,
                  spans: bool) -> Dict[str, Any]:
    """The run document ``metrics`` / ``trace`` render: reloaded from
    ``--load``, else one telemetry-instrumented run of a preset or of
    the run flags."""
    from .obs.export import load_run, run_document
    if args.load:
        return load_run(args.load)
    observe = {"telemetry": True, "spans": spans}
    if args.preset:
        preset = get_preset(args.preset)
        system = preset.build_system(**observe)
        duration = (args.duration if args.duration is not None
                    else preset.duration)
        meta = preset.meta()
        meta["duration"] = duration
    else:
        system = build_system(
            args.algorithm, scale=args.scale, lam=args.lam, seed=args.seed,
            interval=args.interval, stable_tail=args.stable_tail, **observe)
        duration = args.duration if args.duration is not None else 6.0
        meta = {"algorithm": args.algorithm, "scale": args.scale,
                "lam": args.lam, "duration": duration, "seed": args.seed}
    system.run(duration)
    return run_document(system, meta)


def _cmd_metrics(args: argparse.Namespace) -> str:
    from .obs.export import METRICS_KEYS
    from .obs.report import render_metrics_report
    document = _run_document(args, spans=False)
    # A document saved by ``trace --out`` also carries spans; this
    # command renders what a direct run of it would.
    payload = {key: document[key] for key in METRICS_KEYS}
    if args.json:
        return json.dumps(payload, sort_keys=True, indent=2)
    return render_metrics_report(**payload)


def _cmd_trace(args: argparse.Namespace) -> str:
    from .errors import ConfigurationError
    from .obs.spans import DEFAULT_SPAN_CAPACITY, chrome_trace
    document = _run_document(args, spans=True)
    if "spans" not in document:
        raise ConfigurationError(
            f"{args.load} carries no span trace; re-export the run "
            "with 'repro trace --out PATH'")
    spans, meta = document["spans"], document["meta"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(document, fp, sort_keys=True, indent=2)
        print(f"run document written to {args.out}", file=sys.stderr)
    if args.chrome_out:
        with open(args.chrome_out, "w", encoding="utf-8") as fp:
            json.dump(chrome_trace(spans), fp)
        print(f"chrome trace written to {args.chrome_out} "
              "(open in Perfetto or chrome://tracing)", file=sys.stderr)
    out = [f"{meta['algorithm']} seed={meta['seed']}: "
           f"{len(spans)} spans recorded, {document['spans_dropped']} "
           f"dropped (cap {DEFAULT_SPAN_CAPACITY})",
           "", "spans by name:"]
    counts = Counter(span["name"] for span in spans)
    for name in sorted(counts):
        out.append(f"  {name:24s} {counts[name]}")
    tail = spans[-args.tail:] if args.tail > 0 else []
    if tail:
        out.append("")
        out.append(f"last {len(tail)} spans (start, duration, name, fields):")
        for span in tail:
            fields = " ".join(f"{name}={value}" for name, value
                              in sorted(span["fields"].items()))
            out.append(f"  {span['start']:10.6f}  "
                       f"{span['end'] - span['start']:10.6f}  "
                       f"{span['name']:20s} {fields}"
                       + (" (open)" if span.get("open") else ""))
    if args.attribution:
        from .obs.attribution import render_attribution
        out.append("")
        out.append(render_attribution(spans))
    return "\n".join(out)


def _faults_plan(args: argparse.Namespace) -> "FaultPlan":
    """Build the fault plan from --plan JSON or the individual flags."""
    from .faults.plan import CrashSpec, FaultPlan, IOFaultSpec
    if args.plan == "-":
        return FaultPlan.from_dict(json.loads(sys.stdin.read()))
    if args.plan:
        with open(args.plan, encoding="utf-8") as handle:
            return FaultPlan.from_dict(json.load(handle))
    crash = CrashSpec(
        at_time=args.crash_at,
        after_writes=args.crash_after_writes,
        at_phase=args.crash_phase,
        checkpoint_ordinal=args.crash_checkpoint,
        after_flushes=args.crash_after_flushes,
        at_log_flush=args.crash_at_log_flush)
    return FaultPlan(
        seed=args.fault_seed,
        crash=None if crash.empty else crash,
        torn_writes=args.torn_writes,
        io=IOFaultSpec(
            error_rate=args.io_error_rate,
            max_retries=args.io_retries,
            backoff_base=args.io_backoff,
            latency_spike_rate=args.latency_spike_rate,
            latency_spike=args.latency_spike))


def _cmd_faults(args: argparse.Namespace) -> str:
    from .faults.checker import CrashConsistencyChecker, FaultRunReport
    from .faults.matrix import (crash_matrix_points, random_plans,
                                run_fault_cell)
    if args.matrix is not None:
        algorithms = (args.algorithms.split(",") if args.algorithms
                      else list(ALGORITHM_NAMES))
        plans = random_plans(args.matrix, seed=args.fault_seed,
                             duration=args.duration,
                             torn_writes=args.torn_writes or None,
                             io_faults=args.io_error_rate > 0)
        result = _sweep_runner(args).map(
            run_fault_cell, crash_matrix_points(algorithms, plans),
            fixed={"scale": args.scale, "duration": args.duration,
                   "checkpoint_interval": args.interval},
            base_seed=args.seed, seed_arg="seed")
        reports = [cell.value for cell in result if cell.ok]
        if args.json:
            return json.dumps(
                {"cells": reports,
                 "sweep_failures": [
                     {"kwargs": {k: v for k, v in cell.kwargs.items()
                                 if k != "plan"}, "error": cell.error}
                     for cell in result.failures()]},
                sort_keys=True, indent=2)
        lines = [f"crash matrix: {len(algorithms)} algorithms x "
                 f"{len(plans)} plans = {len(result)} cells"]
        survived = 0
        for cell in result:
            if not cell.ok:
                lines.append(f"  SWEEP ERROR {cell.kwargs['algorithm']}: "
                             f"{cell.error}")
                continue
            fields = {k: v for k, v in cell.value.items() if k != "ok"}
            rep = FaultRunReport(**fields)
            survived += rep.ok
            lines.append("  " + rep.summary())
        lines.append(f"survived: {survived}/{len(result)}")
        return "\n".join(lines)
    plan = _faults_plan(args)
    checker = CrashConsistencyChecker(
        scale=args.scale, lam=args.lam, duration=args.duration,
        checkpoint_interval=args.interval)
    report = checker.run(args.algorithm, plan, seed=args.seed)
    if args.json:
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    counters = report.counters
    lines = [
        f"fault plan [{plan.describe()}] on {report.algorithm} "
        f"(seed {args.seed}, {args.duration:g}s)",
        f"  crash                "
        + (f"injected ({report.crash_trigger}) at "
           f"t={report.crash_time:.4f}s" if report.crashed_by_fault
           else f"media failure: {report.media_error}" if report.media_error
           else f"end of run (t={report.crash_time:.4f}s)"),
        f"  recovery             checkpoint {report.used_checkpoint_id} "
        f"(image {report.used_image}), "
        f"{report.transactions_replayed} txns replayed, "
        f"{report.modelled_recovery_time:.3f}s modelled",
        f"  durable commits      {report.durable_commits}",
        f"  io faults            {counters['io_errors']} errors, "
        f"{counters['io_retries']} retries "
        f"({counters['backoff_time'] * 1e3:.1f} ms backoff), "
        f"{counters['io_exhausted']} exhausted, "
        f"{counters['latency_spikes']} spikes",
        f"  torn segments        {counters['torn_segments']}",
        "  oracle               "
        + ("PASS" if report.ok else "FAIL: " + "; ".join(
            f"record {mm['record_id']}: expected {mm['expected']}, "
            f"got {mm['actual']}" for mm in report.mismatches)),
    ]
    return "\n".join(lines)


def _cmd_workload(args: argparse.Namespace) -> str:
    from .workload import get_scenario, scenario_names
    if args.workload_command == "list":
        scenarios = [get_scenario(name) for name in scenario_names()]
        if args.json:
            return json.dumps([s.to_dict() for s in scenarios],
                              sort_keys=True, indent=2)
        lines = [f"{len(scenarios)} registered workload scenarios:"]
        for scenario in scenarios:
            lines.append(f"  {scenario.describe()}")
        return "\n".join(lines)
    if args.workload_command == "describe":
        scenario = get_scenario(args.name)
        if args.json:
            return json.dumps(scenario.to_dict(), sort_keys=True, indent=2)
        spec = scenario.spec
        lines = [
            f"{scenario.name}: {scenario.description}",
            f"  spec                 {spec.describe()}",
        ]
        if spec.schedule is not None:
            sched = spec.schedule
            lines.append(f"  schedule             {sched.describe()}")
            lines.append(f"  offered/cycle        "
                         f"{sched.offered(0.0, sched.total_duration):.0f} "
                         f"expected arrivals over "
                         f"{sched.total_duration:g}s")
        if scenario.duration is not None:
            lines.append(f"  suggested duration   {scenario.duration:g}s")
        return "\n".join(lines)
    if args.workload_command == "run":
        return _workload_run(args)
    return _workload_sweep(args)


def _workload_run(args: argparse.Namespace) -> str:
    from .errors import ConfigurationError
    from .workload import get_scenario
    if bool(args.scenario) == bool(args.spec):
        raise ConfigurationError(
            "pass exactly one of --scenario or --spec")
    duration = args.duration
    if args.scenario:
        scenario = get_scenario(args.scenario)
        spec = scenario.spec
        if duration is None:
            duration = scenario.duration
    else:
        spec = _spec_from_file_or_name(args.spec)
    if duration is None:
        duration = 10.0
    outcome = simulate(
        args.algorithm, scale=args.scale, duration=duration,
        seed=args.seed, interval=args.interval, crash=args.crash,
        workload=spec, telemetry=True)
    metrics = outcome.metrics
    telemetry = outcome.telemetry or {}
    arrivals = telemetry.get("counters", {}).get("workload.arrivals", 0)
    offered = metrics.offered_rate * metrics.elapsed
    if args.json:
        payload: Dict[str, Any] = {
            "workload": spec.to_dict(),
            "algorithm": args.algorithm,
            "duration": duration,
            "seed": args.seed,
            "offered": offered,
            "arrivals": arrivals,
            "summary": asdict(metrics),
            "clean": outcome.clean,
        }
        if outcome.recovery is not None:
            payload["recovery"] = {
                "used_checkpoint": outcome.recovery.used_checkpoint_id,
                "replayed": outcome.recovery.transactions_replayed,
            }
        return json.dumps(payload, sort_keys=True, indent=2)
    return _render_outcome(
        f"{spec.name or 'workload'} under {args.algorithm} "
        f"({duration:g}s simulated, seed {args.seed})",
        outcome,
        [f"  spec                 {spec.describe()}",
         f"  offered              {offered:.0f} expected arrivals "
         f"({metrics.offered_rate:.1f}/s)",
         f"  submitted            {metrics.transactions_submitted} arrivals "
         f"(telemetry: {arrivals})",
         f"  served               {metrics.served_rate:.1f} commits/s"])


def _workload_sweep(args: argparse.Namespace) -> str:
    from .workload import scenario_names
    from .workload.cells import run_scenario_cell, scenario_points
    scenarios = (args.scenarios.split(",") if args.scenarios
                 else list(scenario_names()))
    algorithms = args.algorithms.split(",")
    fixed: Dict[str, Any] = {"scale": args.scale, "seed": args.seed,
                             "interval": args.interval}
    if args.duration is not None:
        fixed["duration"] = args.duration
    result = _sweep_runner(args).map(run_scenario_cell,
                                     scenario_points(scenarios, algorithms),
                                     fixed=fixed)
    if args.json:
        return json.dumps(
            {"cells": [cell.value for cell in result if cell.ok],
             "sweep_failures": [{"kwargs": cell.kwargs, "error": cell.error}
                                for cell in result.failures()]},
            sort_keys=True, indent=2)
    lines = [f"workload sweep: {len(scenarios)} scenarios x "
             f"{len(algorithms)} algorithms = {len(result)} cells",
             f"  {'scenario':<12} {'algorithm':<10} {'offered/s':>10} "
             f"{'served/s':>10} {'committed':>10}"]
    for cell in result:
        if not cell.ok:
            lines.append(f"  SWEEP ERROR {cell.kwargs.get('scenario')}/"
                         f"{cell.kwargs.get('algorithm')}: {cell.error}")
            continue
        value = cell.value
        lines.append(f"  {value['scenario']:<12} {value['algorithm']:<10} "
                     f"{value['offered_rate']:>10.1f} "
                     f"{value['served_rate']:>10.1f} "
                     f"{value['served']:>10}")
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> str:
    from .live.server import check, serve
    if args.check:
        report = check(args.data_dir, scale=args.scale)
        if not report["consistent"]:
            print(json.dumps(report, sort_keys=True, indent=2))
            raise SystemExit(1)
        return json.dumps(report, sort_keys=True, indent=2)
    interval = None if args.no_checkpoints else args.checkpoint_interval
    serve(args.data_dir, args.port, scale=args.scale,
          checkpoint_interval=interval,
          flush_interval=args.flush_interval,
          fsync=not args.no_fsync)
    return "server stopped"


_COMMANDS = {
    "tables": _cmd_tables,
    "figures": _cmd_figures,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "ablations": _cmd_ablations,
    "extensions": _cmd_extensions,
    "capacity": _cmd_capacity,
    "report": _cmd_report,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "faults": _cmd_faults,
    "workload": _cmd_workload,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        print(_COMMANDS[args.command](args))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    return 0
