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
  seeded crash matrix over every algorithm (``--matrix N``).

Commands that run simulations through the sweep runner (``validate``,
``extensions``, ``report``, ``faults --matrix``) also accept
``--workers`` (default: every CPU; the output is identical for any
count), and all but ``faults`` take ``--replicates``.  Every sweep runs
its points afresh: nothing is cached between invocations.

Each command is one row of ``_COMMANDS``: its help line, the function
that adds its arguments, and the one that runs it.  ``main`` builds the
arguments of the invoked command only, and every command imports what
it runs inside its own functions, so ``repro serve`` starts without the
simulator, the model or the sweep runner.

The exit status is 0 unless the command reports a failed check:
``simulate --crash`` whose oracle finds lost updates, ``faults`` with a
plan that is not survived (or a ``--matrix`` cell that is not, or that
fails to run), and ``serve --check`` on an inconsistent restart exit 1,
after printing their report as usual.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple, Union)

if TYPE_CHECKING:
    from .faults.plan import FaultPlan


class _Failed(str):
    """The report of a command whose check failed: ``main`` prints it
    like any other and returns exit status 1."""


def _positive_int(text: str) -> int:
    """The argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for parameter sweeps "
                             "(default: all CPUs; results are identical "
                             "for any worker count)")


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every command that sweeps a simulation grid."""
    _add_workers_flag(parser)
    parser.add_argument("--replicates", type=_positive_int, default=1,
                        metavar="R",
                        help="seeded replicates per simulation point")


def _workers(args: argparse.Namespace) -> int:
    """The sweep process count: ``--workers``, else every CPU."""
    return args.workers or os.cpu_count() or 1


def build_parser(commands: Optional[Iterable[str]] = None
                 ) -> argparse.ArgumentParser:
    """The ``repro`` parser: every command with its help line, and the
    arguments of ``commands`` only (default: of every command).

    A command's arguments are what import the package -- algorithm and
    preset names for ``choices`` -- so ``main`` builds just the invoked
    one, and ``repro serve`` loads nothing the server does not.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of Salem & Garcia-Molina, 'Checkpointing "
                     "Memory-Resident Databases' (ICDE 1989)"))
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = set(_COMMANDS if commands is None else commands)
    for name, (help_line, add_arguments, _run) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        if name in chosen:
            add_arguments(command)
    return parser


def _no_arguments(_parser: argparse.ArgumentParser) -> None:
    """``tables`` and ``ablations`` take none."""


def _figures_arguments(figures: argparse.ArgumentParser) -> None:
    figures.add_argument("which", nargs="?", default="all",
                         choices=["4a", "4b", "4c", "4d", "4e", "all"])
    figures.add_argument("--plot", action="store_true",
                         help="render ASCII plots where the figure is a "
                              "curve family")


def _evaluate_arguments(ev: argparse.ArgumentParser) -> None:
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


def _simulate_arguments(sim: argparse.ArgumentParser) -> None:
    _add_system_flags(sim, algorithm="COUCOPY", scale=256, duration=10.0,
                      lam=True, stable_tail=True)
    sim.add_argument("--crash", action="store_true",
                     help="inject a crash at the end and verify recovery")
    _add_workload_flags(sim)


def _validate_arguments(val: argparse.ArgumentParser) -> None:
    val.add_argument("--duration", type=float, default=10.0)
    val.add_argument("--seed", type=int, default=42)
    _add_sweep_flags(val)


def _capacity_arguments(cap: argparse.ArgumentParser) -> None:
    cap.add_argument("--mips", type=float, default=50.0,
                     help="processor budget in MIPS")


def _report_arguments(rep: argparse.ArgumentParser) -> None:
    rep.add_argument("--out", default="reports",
                     help="output directory (default: ./reports)")
    rep.add_argument("--fast", action="store_true",
                     help="model-only report (skip simulation sections)")
    _add_sweep_flags(rep)


def _metrics_arguments(met: argparse.ArgumentParser) -> None:
    _add_run_flags(met)
    met.add_argument("--json", action="store_true",
                     help="machine-readable output: the run document "
                          "(meta + summary + telemetry snapshot + "
                          "checkpoint history)")
    met.add_argument("--load", default=None, metavar="PATH",
                     help="render a saved run document ('metrics --json' "
                          "or 'trace --out' output) instead of simulating")


def _trace_arguments(trc: argparse.ArgumentParser) -> None:
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


def _serve_arguments(srv: argparse.ArgumentParser) -> None:
    srv.add_argument("--data-dir", required=True, metavar="DIR",
                     help="directory for wal.log (the framed WAL) and checkpoint.npz")
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
                     help="no server: recover from --data-dir, check it "
                          "against the image and WAL files, print the "
                          "JSON verdict, exit (nonzero on mismatches)")


def _faults_arguments(flt: argparse.ArgumentParser) -> None:
    from .faults.plan import CRASH_PHASES
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
    _add_workers_flag(flt)


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """Workload knobs for ``simulate`` (spec source + skew shorthands)."""
    parser.add_argument("--workload", default=None, metavar="FILE",
                        help="JSON workload spec file (WorkloadSpec.to_dict "
                             "format; '-' reads stdin)")
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
                      algorithm: str, scale: int,
                      duration: Union[float, str], seed: int = 0,
                      interval: Optional[float] = None, lam: bool = False,
                      stable_tail: bool = False) -> None:
    """The testbed flags every run command shares; defaults per command.

    ``duration`` given as text leaves the flag unset by default and
    names, in the help line, what the command falls back to.
    """
    from .checkpoint.registry import ALL_ALGORITHM_NAMES
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
    from .obs.presets import PRESET_NAMES
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
    from .experiments import fig4a, fig4b, fig4c, fig4d, fig4e
    chosen = (["4a", "4b", "4c", "4d", "4e"] if args.which == "all"
              else [args.which])
    renderers = {
        "4a": fig4a.render, "4b": fig4b.render, "4c": fig4c.render,
        "4d": fig4d.render, "4e": fig4e.render,
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
    from .model.evaluate import evaluate
    from .params import SystemParameters
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


def _workload_from_flags(args: argparse.Namespace):
    """The simulate command's workload spec, or None for the default."""
    from dataclasses import replace

    from .errors import ConfigurationError
    from .workload import AccessDistribution, WorkloadSpec
    spec = None
    if args.workload == "-":
        spec = WorkloadSpec.from_dict(json.loads(sys.stdin.read()))
    elif args.workload:
        with open(args.workload, encoding="utf-8") as handle:
            spec = WorkloadSpec.from_dict(json.load(handle))
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


def _cmd_simulate(args: argparse.Namespace) -> str:
    from .api import simulate
    workload = _workload_from_flags(args)
    outcome = simulate(
        args.algorithm, scale=args.scale, lam=args.lam, seed=args.seed,
        duration=args.duration, interval=args.interval, crash=args.crash,
        stable_tail=args.stable_tail, workload=workload)
    metrics = outcome.metrics
    lines = [f"{args.algorithm} on a {outcome.config.params.n_segments}-"
             f"segment database ({args.duration:.1f}s simulated, "
             f"seed {args.seed})"]
    if workload is not None:
        lines += [
            f"  workload             {workload.describe()}",
            f"  offered/served       {metrics.offered_rate:.1f} / "
            f"{metrics.served_rate:.1f} txns/s",
        ]
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
    if result is None:
        return "\n".join(lines)
    lines += [
        f"  crash+recover        checkpoint {result.used_checkpoint_id}, "
        f"{result.transactions_replayed} txns replayed, "
        f"{result.total_time:.2f}s modelled",
        "  oracle               "
        + ("PASS" if outcome.clean else f"FAIL {outcome.mismatches}"),
    ]
    text = "\n".join(lines)
    return text if outcome.clean else _Failed(text)


def _cmd_validate(args: argparse.Namespace) -> str:
    from .experiments import validation
    rows = validation.run_validation_suite(
        duration=args.duration, seed=args.seed,
        replicates=args.replicates, workers=_workers(args))
    return validation.render(rows)


def _cmd_ablations(_args: argparse.Namespace) -> str:
    from .experiments import ablations
    return ablations.render()


def _cmd_extensions(args: argparse.Namespace) -> str:
    from .experiments import extensions
    return extensions.render(replicates=args.replicates,
                             workers=_workers(args))


def _cmd_capacity(args: argparse.Namespace) -> str:
    from .experiments import capacity
    return capacity.render(mips=args.mips)


def _cmd_report(args: argparse.Namespace) -> str:
    from .experiments.report import generate_report
    path = generate_report(args.out, include_simulations=not args.fast,
                           replicates=args.replicates,
                           workers=_workers(args))
    return f"report written to {path}"


def _run_document(args: argparse.Namespace, *,
                  spans: bool) -> Dict[str, Any]:
    """The run document ``metrics`` / ``trace`` render: reloaded from
    ``--load``, else one telemetry-instrumented run of a preset or of
    the run flags."""
    from .api import build_system
    from .obs.export import load_run, run_document
    from .obs.presets import get_preset
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
    from .checkpoint.registry import ALGORITHM_NAMES
    from .faults.checker import CrashConsistencyChecker, FaultRunReport
    from .faults.matrix import (crash_matrix_points, random_plans,
                                run_fault_cell)
    from .sweep import SweepRunner
    if args.matrix is not None:
        algorithms = (args.algorithms.split(",") if args.algorithms
                      else list(ALGORITHM_NAMES))
        plans = random_plans(args.matrix, seed=args.fault_seed,
                             duration=args.duration,
                             torn_writes=args.torn_writes or None,
                             io_faults=args.io_error_rate > 0)
        result = SweepRunner(_workers(args)).map(
            run_fault_cell, crash_matrix_points(algorithms, plans),
            fixed={"scale": args.scale, "duration": args.duration,
                   "checkpoint_interval": args.interval},
            base_seed=args.seed, seed_arg="seed")
        reports = [cell.value for cell in result if cell.ok]
        failed = (len(reports) < len(result)
                  or not all(report["ok"] for report in reports))
        if args.json:
            text = json.dumps(
                {"cells": reports,
                 "sweep_failures": [
                     {"kwargs": {k: v for k, v in cell.kwargs.items()
                                 if k != "plan"}, "error": cell.error}
                     for cell in result.failures()]},
                sort_keys=True, indent=2)
            return _Failed(text) if failed else text
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
        text = "\n".join(lines)
        return _Failed(text) if failed else text
    plan = _faults_plan(args)
    checker = CrashConsistencyChecker(
        scale=args.scale, lam=args.lam, duration=args.duration,
        checkpoint_interval=args.interval)
    report = checker.run(args.algorithm, plan, seed=args.seed)
    if args.json:
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        return text if report.ok else _Failed(text)
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
    text = "\n".join(lines)
    return text if report.ok else _Failed(text)


def _cmd_serve(args: argparse.Namespace) -> str:
    from .live.server import check, serve
    if args.check:
        report = check(args.data_dir, scale=args.scale)
        text = json.dumps(report, sort_keys=True, indent=2)
        return text if report["consistent"] else _Failed(text)
    interval = None if args.no_checkpoints else args.checkpoint_interval
    serve(args.data_dir, args.port, scale=args.scale,
          checkpoint_interval=interval,
          flush_interval=args.flush_interval,
          fsync=not args.no_fsync)
    return "server stopped"


#: command -> (help line, add_arguments, run), in ``repro --help`` order
_COMMANDS: Dict[str, Tuple[str, Callable[[argparse.ArgumentParser], None],
                           Callable[[argparse.Namespace], str]]] = {
    "tables": ("print Tables 2a-2d", _no_arguments, _cmd_tables),
    "figures": ("regenerate paper figures", _figures_arguments,
                _cmd_figures),
    "evaluate": ("analytic model, one configuration", _evaluate_arguments,
                 _cmd_evaluate),
    "simulate": ("run the discrete-event testbed", _simulate_arguments,
                 _cmd_simulate),
    "validate": ("model-vs-testbed comparison", _validate_arguments,
                 _cmd_validate),
    "ablations": ("modelling-choice ablations", _no_arguments,
                  _cmd_ablations),
    "extensions": ("AC/NAIVELOCK extension experiments", _add_sweep_flags,
                   _cmd_extensions),
    "capacity": ("throughput capacity per algorithm", _capacity_arguments,
                 _cmd_capacity),
    "report": ("regenerate the full report", _report_arguments, _cmd_report),
    "metrics": ("telemetry report for one instrumented testbed run",
                _metrics_arguments, _cmd_metrics),
    "trace": ("span-trace summary / run-document export for one run (txn "
              "lifecycle, checkpoint phases, WAL flushes)",
              _trace_arguments, _cmd_trace),
    "serve": ("run the live wall-clock service (get/put socket server over "
              "the durable WAL + checkpoint host)", _serve_arguments,
              _cmd_serve),
    "faults": ("fault injection with verified crash recovery",
               _faults_arguments, _cmd_faults),
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes no option values, so its first positional is
    # the command: only that command's arguments (and imports) are built.
    invoked = [arg for arg in argv if not arg.startswith("-")][:1]
    args = build_parser(invoked).parse_args(argv)
    try:
        report = _COMMANDS[args.command][2](args)
        print(report)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    return 1 if isinstance(report, _Failed) else 0
