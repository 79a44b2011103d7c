"""The ``repro-trace`` command line: simulate, evaluate, inspect traces.

Subcommands::

    repro-trace simulate appbt -o appbt.jsonl --iterations 40 --seed 1
    repro-trace simulate appbt -o appbt.jsonl --trace-events appbt_timeline.json
    repro-trace simulate appbt -o appbt.jsonl --checkpoint-dir ckpts/
    repro-trace resume ckpts/checkpoint-0020.ckpt -o appbt.jsonl
    repro-trace evaluate appbt.jsonl --depth 2 --filter 1
    repro-trace explain appbt.jsonl --block 0x12340 --last 4
    repro-trace critical-path dsmc --quick --top 3
    repro-trace info appbt.jsonl
    repro-trace dot appbt.jsonl --role cache -o appbt_cache.dot

``simulate`` writes a JSON-lines coherence-message trace; the other
subcommands consume one.  This decouples the expensive simulation from
cheap repeated analyses, exactly like the paper's trace-driven
methodology.  ``--trace-events`` additionally captures a structured
event log during simulation and exports it as Chrome trace-event /
Perfetto JSON (load it at https://ui.perfetto.dev); ``explain`` replays
a saved trace with misprediction forensics (see
``docs/observability.md``).

``critical-path`` runs a workload with causal span tracing on,
reconstructs every coherence transaction's span tree, segments its
critical path (indirection / transfer / queue / retry /
predicted-shortcut), and attributes latency to prediction outcomes --
the per-transaction view of the paper's central claim (see
``docs/observability.md``).

``--checkpoint-dir`` snapshots the whole machine at iteration
boundaries (versioned, checksummed files -- see ``docs/robustness.md``)
and ``resume`` finishes an interrupted simulation from one, producing a
byte-identical trace.  ``--watchdog`` guards a run against livelock:
instead of hanging, a stuck phase aborts with a forensic bundle.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional

from .core.config import CosmosConfig
from .core.eviction import EVICTION_POLICIES
from .errors import ReproError
from .sim.faults import PRESETS, FaultProfile
from .sim.metrics import METRICS, dump_metrics_json
from .sim.watchdog import DEFAULT_WATCHDOG, Watchdog, WatchdogConfig

# Each subcommand imports what only it uses (the simulator, the
# workloads, the analyses), so no command pays for another's imports.

#: Observability levels selectable from the command line.
OBS_LEVEL_CHOICES = ("proto", "msg", "pred", "full")


def _watchdog_from_args(args: argparse.Namespace) -> Optional[Watchdog]:
    """Build the run's watchdog (``None`` when not requested).

    ``--watchdog-bundle`` implies ``--watchdog``: asking where to write
    the forensics is asking for the forensics.
    """
    if not (args.watchdog or args.watchdog_bundle is not None):
        return None
    config = DEFAULT_WATCHDOG
    if (
        args.watchdog_seconds is not None
        or args.watchdog_events is not None
        or args.watchdog_run_seconds is not None
    ):
        config = WatchdogConfig(
            wall_clock_s=(
                args.watchdog_seconds
                if args.watchdog_seconds is not None
                else DEFAULT_WATCHDOG.wall_clock_s
            ),
            max_events=(
                args.watchdog_events
                if args.watchdog_events is not None
                else DEFAULT_WATCHDOG.max_events
            ),
            run_wall_clock_s=args.watchdog_run_seconds,
        )
    return Watchdog(config, bundle_path=args.watchdog_bundle)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .obs import OBS
    from .protocol.stache import StacheOptions
    from .sim.checkpoint import simulate_with_checkpoints
    from .sim.machine import simulate
    from .trace.io import save_trace
    from .workloads.registry import make_workload

    workload = make_workload(args.app)
    options = StacheOptions(
        half_migratory=not args.no_half_migratory,
        forwarding=args.forwarding,
    )
    faults = None
    if args.fault_profile is not None:
        profile = FaultProfile.parse(args.fault_profile)
        if profile.is_active:
            faults = profile
    watchdog = _watchdog_from_args(args)
    if args.trace_events:
        OBS.configure(args.obs_level)
    try:
        with METRICS.timer("trace.simulate"):
            if args.checkpoint_dir is not None:
                collector = simulate_with_checkpoints(
                    workload,
                    iterations=args.iterations,
                    seed=args.seed,
                    options=options,
                    faults=faults,
                    fault_seed=args.fault_seed,
                    checkpoint_dir=args.checkpoint_dir,
                    every=args.checkpoint_every,
                    watchdog=watchdog,
                )
            else:
                collector = simulate(
                    workload,
                    iterations=args.iterations,
                    seed=args.seed,
                    options=options,
                    faults=faults,
                    fault_seed=args.fault_seed,
                    watchdog=watchdog,
                )
        METRICS.inc("trace.simulated")
        count = save_trace(collector.events, args.output)
        print(f"wrote {count} events to {args.output}")
        if args.checkpoint_dir is not None:
            print(f"checkpoints written under {args.checkpoint_dir}")
        if args.trace_events:
            _export_timeline(args)
    finally:
        if args.trace_events:
            OBS.disable()
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Finish a simulation from a checkpoint file.

    The checkpoint carries its own configuration (workload, options,
    fault profile, RNG streams), so nothing needs re-specifying; the
    resulting trace is byte-identical to an uninterrupted run's.
    """
    from .sim.checkpoint import resume_simulation
    from .trace.io import save_trace

    watchdog = _watchdog_from_args(args)
    with METRICS.timer("trace.resume"):
        collector = resume_simulation(
            args.checkpoint,
            checkpoint_dir=args.checkpoint_dir,
            every=args.checkpoint_every,
            watchdog=watchdog,
        )
    count = save_trace(collector.events, args.output)
    print(f"resumed from {args.checkpoint}")
    print(f"wrote {count} events to {args.output}")
    return 0


def _export_timeline(args: argparse.Namespace) -> None:
    """Write the captured event log as trace-event JSON (simulate)."""
    from .obs import (
        OBS,
        build_manifest,
        export_trace_events,
        save_trace_events,
    )
    from .sim.params import PAPER_PARAMS

    manifest = build_manifest(
        "repro-trace simulate",
        app=args.app,
        iterations=args.iterations,
        seed=args.seed,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
        forwarding=args.forwarding,
        half_migratory=not args.no_half_migratory,
        obs_level=args.obs_level,
    )
    document = export_trace_events(
        OBS.events(),
        PAPER_PARAMS.n_nodes,
        manifest=manifest,
        dropped=OBS.dropped,
    )
    save_trace_events(document, args.trace_events)
    print(
        f"wrote {document['otherData']['events']} timeline events to "
        f"{args.trace_events} ({OBS.dropped} dropped)"
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core.corruption import CorruptionProfile
    from .core.evaluation import evaluate_trace
    from .core.memory import BLOCK_BYTES
    from .core.predictor import CosmosPredictor, armed_factory
    from .trace.events import TraceEvent
    from .trace.io import load_trace
    from .workloads.zipf import zipf_trace

    if args.trace == "zipf":
        # Streamed, never materialized: bounded predictors replaying it
        # run in bounded memory regardless of distinct-block count.
        events: Iterable[TraceEvent] = zipf_trace(
            args.zipf_events,
            args.zipf_blocks,
            alpha=args.zipf_alpha,
            tenants=args.zipf_tenants,
            seed=args.zipf_seed,
        )
    else:
        events = load_trace(args.trace)
    config = CosmosConfig(
        depth=args.depth,
        filter_max_count=args.filter,
        macroblock_bytes=args.macroblock,
        mhr_capacity=args.mhr_capacity,
        pht_capacity=args.pht_capacity,
        eviction=args.eviction,
    )
    corruption = None
    if args.corrupt is not None:
        corruption = CorruptionProfile.from_faults(
            FaultProfile.parse(args.corrupt)
        )
        if corruption is None:
            raise ReproError(
                "--corrupt needs a flip= and/or loss= rate, e.g. "
                "'flip=0.01,loss=0.002'"
            )
    armed: List[CosmosPredictor] = []
    factory = None
    if corruption is not None:
        factory, armed = armed_factory(config, corruption, args.corrupt_seed)
    result = evaluate_trace(
        events, config, predictor_factory=factory, track_arcs=False
    )
    print(f"{config.describe()} over {result.overall.refs} events:")
    print(f"  cache     {result.cache_accuracy:7.1%}")
    print(f"  directory {result.directory_accuracy:7.1%}")
    print(f"  overall   {result.overall_accuracy:7.1%}")
    if result.overhead is not None:
        print(
            f"  memory    ratio {result.overhead.ratio:.1f}, "
            f"{result.overhead.overhead_percent:.1f}% of a "
            f"{BLOCK_BYTES}-byte block"
        )
    if config.mhr_capacity or config.pht_capacity:
        print(
            f"  bounded   live {METRICS.counter('pred.mem.mhr_live')} MHR / "
            f"{METRICS.counter('pred.mem.pht_live')} PHT entries "
            f"(peak {METRICS.counter('pred.mem.peak_mhr')}/"
            f"{METRICS.counter('pred.mem.peak_pht')}), evicted "
            f"{METRICS.counter('pred.mem.evictions_mhr')} MHR / "
            f"{METRICS.counter('pred.mem.evictions_pht')} PHT, "
            f"~{METRICS.counter('pred.mem.bytes_est')} bytes est"
        )
    if armed:
        flips = sum(p.corrupt_flips for p in armed)
        losses = sum(p.corrupt_losses for p in armed)
        detected = sum(p.corrupt_detected for p in armed)
        print(
            f"  corruption: {flips} bit flips, {losses} entry losses "
            f"injected; {detected} caught by parity and relearned"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.report import render_table
    from .obs import explain_trace, format_pattern
    from .trace.io import load_trace

    events = load_trace(args.trace)
    config = CosmosConfig(
        depth=args.depth,
        filter_max_count=args.filter,
        macroblock_bytes=args.macroblock,
    )
    report = explain_trace(events, config, per_block=args.per_block)
    if args.block is not None:
        try:
            block = int(args.block, 0)
        except ValueError:
            raise ReproError(
                f"bad block address {args.block!r}; expected decimal or "
                "0x-prefixed hex"
            ) from None
        print(report.format_block(block, last=args.last))
        return 0
    # No block selected: rank what went wrong across the whole trace.
    print(
        f"{config.describe()} over {len(events)} events: "
        f"{report.total_mispredicts} mispredictions in "
        f"{report.total_refs} references"
    )
    worst_blocks = sorted(
        report.tallies.items(),
        key=lambda item: (
            -item[1].mispredictions,
            item[0][0],
            item[0][1].value,
            item[0][2],
        ),
    )[: args.top]
    rows = [
        [
            f"0x{block:x}",
            f"P{node}/{role}",
            tally.refs,
            tally.mispredictions,
            f"{tally.accuracy:.1%}",
        ]
        for (node, role, block), tally in worst_blocks
        if tally.mispredictions
    ]
    if rows:
        print()
        print(
            render_table(
                ["block", "module", "refs", "mispredicts", "accuracy"],
                rows,
                title="Worst (module, block) pairs",
            )
        )
    pattern_rows = [
        [str(role), format_pattern(pattern) or "(empty)", mispredicts, refs]
        for role, pattern, mispredicts, refs in report.top_patterns(args.top)
    ]
    if pattern_rows:
        print()
        print(
            render_table(
                ["role", "history pattern", "mispredicts", "refs"],
                pattern_rows,
                title="History patterns ranked by mispredictions",
            )
        )
    print(
        "\nrun with --block <addr> for per-block capture rings "
        "(MHR, PHT entry, noise filter)"
    )
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from .core.evaluation import evaluate_trace
    from .experiments.common import iterations_for, workload_for
    from .obs import (
        OBS,
        build_manifest,
        export_trace_events,
        save_trace_events,
    )
    from .obs.critpath import (
        attributed_paths,
        fold_critpath_metrics,
        replay_outcomes,
        summarize,
    )
    from .obs.spans import SPANS, build_transactions, format_span_tree
    from .sim.machine import simulate
    from .sim.params import PAPER_PARAMS
    from .workloads.registry import make_workload

    if args.quick:
        workload = workload_for(args.app, quick=True)
        iterations = (
            args.iterations
            if args.iterations is not None
            else iterations_for(args.app, quick=True)
        )
    else:
        workload = make_workload(args.app)
        iterations = args.iterations
    faults = None
    if args.fault_profile is not None:
        profile = FaultProfile.parse(args.fault_profile)
        if profile.is_active:
            faults = profile
    if args.trace_events:
        OBS.configure("msg")
    SPANS.enable()
    try:
        with METRICS.timer("trace.critical_path"):
            collector = simulate(
                workload,
                iterations=iterations,
                seed=args.seed,
                faults=faults,
                fault_seed=args.fault_seed,
            )
        transactions = build_transactions(SPANS.records)
    finally:
        SPANS.disable()
        if args.trace_events:
            obs_events = OBS.events()
            obs_dropped = OBS.dropped
            OBS.disable()

    latency_ns = PAPER_PARAMS.one_way_message_ns
    baseline = summarize(attributed_paths(transactions, {}, latency_ns))
    events = collector.all_events
    column = evaluate_trace(
        events,
        CosmosConfig(depth=args.depth),
        track_arcs=False,
        record_outcomes=True,
    ).outcomes
    outcomes = replay_outcomes(events, transactions, column)
    paths = attributed_paths(transactions, outcomes, latency_ns)
    fold_critpath_metrics(paths)

    if args.block is not None:
        try:
            block = int(args.block, 0)
        except ValueError:
            raise ReproError(
                f"bad block address {args.block!r}; expected decimal or "
                "0x-prefixed hex"
            ) from None
        paths = [p for p in paths if p.block == block]
        if not paths:
            raise ReproError(
                f"no transactions touched block 0x{block:x}"
            )
        print(f"{args.app} block 0x{block:x} (cosmos depth={args.depth}):")
        print(summarize(paths).format())
    else:
        print(f"{args.app}: no-predictor baseline")
        print(baseline.format())
        print()
        print(f"{args.app}: cosmos depth={args.depth}")
        print(summarize(paths).format())

    worst = sorted(paths, key=lambda p: (-p.total_ns, p.txn))[: args.top]
    for rank, path in enumerate(worst, 1):
        print()
        print(
            f"#{rank}: {path.total_ns} ns on the critical path, "
            f"outcome={path.outcome or 'none'}, "
            f"saved={path.saved_ns:.0f} ns, "
            f"penalty={path.penalty_ns:.0f} ns"
        )
        print(
            "  segments: "
            + "  ".join(
                f"{s.kind}[{s.start_ns}..{s.end_ns}]"
                for s in path.segments
            )
        )
        print(format_span_tree(transactions[path.txn]))

    if args.trace_events:
        manifest = build_manifest(
            "repro-trace critical-path",
            app=args.app,
            iterations=iterations,
            seed=args.seed,
            quick=args.quick,
            fault_profile=args.fault_profile,
            fault_seed=args.fault_seed,
            depth=args.depth,
        )
        document = export_trace_events(
            obs_events,
            PAPER_PARAMS.n_nodes,
            manifest=manifest,
            dropped=obs_dropped,
            spans=transactions.values(),
        )
        save_trace_events(document, args.trace_events)
        print(
            f"\nwrote {document['otherData']['events']} timeline events "
            f"to {args.trace_events} ({obs_dropped} dropped)"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .analysis.traffic import summarize_traffic
    from .trace.io import load_trace

    events = load_trace(args.trace)
    print(summarize_traffic(events).format())
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from .analysis.arcs import measure_arcs
    from .analysis.dot import signature_graph_dot
    from .analysis.signatures import extract_signatures
    from .ioutil import atomic_write_text
    from .protocol.messages import Role
    from .trace.io import load_trace

    events = load_trace(args.trace)
    role = Role.CACHE if args.role == "cache" else Role.DIRECTORY
    arcs = measure_arcs(events, depth=1, min_ref_percent=args.min_ref)
    signature = extract_signatures(arcs)[role]
    dot = signature_graph_dot(
        arcs, role, signature=signature, title=f"{args.trace} ({args.role})"
    )
    if args.output:
        atomic_write_text(args.output, dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "write a checksummed machine checkpoint under DIR at "
            "iteration boundaries; resume one with 'repro-trace resume'"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N iterations (default 1)",
    )


def _add_watchdog_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--watchdog",
        action="store_true",
        help=(
            "guard the run against livelock/deadlock: abort with a "
            "forensic bundle instead of hanging"
        ),
    )
    parser.add_argument(
        "--watchdog-bundle",
        metavar="PATH",
        default=None,
        help=(
            "also write the forensic bundle as JSON to PATH when the "
            "watchdog trips (implies --watchdog)"
        ),
    )
    parser.add_argument(
        "--watchdog-seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "wall-clock budget per simulation phase (default "
            f"{DEFAULT_WATCHDOG.wall_clock_s:g}s)"
        ),
    )
    parser.add_argument(
        "--watchdog-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "event budget per simulation phase (default "
            f"{DEFAULT_WATCHDOG.max_events})"
        ),
    )
    parser.add_argument(
        "--watchdog-run-seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "wall-clock budget for the whole run segment, measured from "
            "start (or from resume time for 'resume'); disabled by "
            "default"
        ),
    )


def _non_negative_int(text: str) -> int:
    """``argparse`` type for ``--top``: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # The names only: the registry imports the workload modules, not the
    # simulator.
    from .workloads.registry import BENCHMARK_NAMES, WORKLOAD_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Simulate and analyze coherence-message traces.",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="dump runtime counters/timers as JSON to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a workload, save its trace")
    sim.add_argument("app", choices=WORKLOAD_NAMES)
    sim.add_argument("-o", "--output", required=True)
    sim.add_argument("--iterations", type=int, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--forwarding",
        action="store_true",
        help="use Origin-style three-hop forwarding",
    )
    sim.add_argument(
        "--no-half-migratory",
        action="store_true",
        help="downgrade (DASH-style) instead of invalidating owners",
    )
    sim.add_argument(
        "--fault-profile",
        metavar="SPEC",
        default=None,
        help=(
            "inject interconnect faults: a preset "
            f"({', '.join(PRESETS)}) or 'drop=0.05,reorder=0.2,...'"
        ),
    )
    sim.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG (default 0)",
    )
    sim.add_argument(
        "--trace-events",
        metavar="PATH",
        default=None,
        help=(
            "also capture a structured event log and export it as "
            "Chrome trace-event / Perfetto JSON to PATH"
        ),
    )
    sim.add_argument(
        "--obs-level",
        choices=OBS_LEVEL_CHOICES,
        default="msg",
        help=(
            "capture depth for --trace-events: proto (state transitions, "
            "retries, faults), msg (+ sends/deliveries), pred/full "
            "(+ predictor events); default msg"
        ),
    )
    _add_checkpoint_options(sim)
    _add_watchdog_options(sim)
    sim.set_defaults(func=_cmd_simulate)

    res = sub.add_parser(
        "resume",
        help="finish an interrupted simulation from a checkpoint file",
    )
    res.add_argument("checkpoint", help="a checkpoint-NNNN.ckpt file")
    res.add_argument("-o", "--output", required=True)
    _add_checkpoint_options(res)
    _add_watchdog_options(res)
    res.set_defaults(func=_cmd_resume)

    ev = sub.add_parser("evaluate", help="score Cosmos on a saved trace")
    ev.add_argument(
        "trace",
        help=(
            "a saved trace file, or the literal 'zipf' to stream a "
            "synthetic Zipf pressure workload (see --zipf-*) without "
            "materializing a trace"
        ),
    )
    ev.add_argument("--depth", type=int, default=1)
    ev.add_argument("--filter", type=int, default=0,
                    help="noise-filter saturating-counter maximum")
    ev.add_argument("--macroblock", type=int, default=None,
                    help="group blocks into macroblocks of this many bytes")
    ev.add_argument(
        "--corrupt",
        metavar="SPEC",
        default=None,
        help=(
            "inject seeded predictor-SRAM soft errors during the "
            "replay: 'flip=0.01,loss=0.002' (per-observation rates); "
            "parity-protected entries are dropped and relearned"
        ),
    )
    ev.add_argument(
        "--corrupt-seed",
        type=int,
        default=0,
        help="seed for the corruption-injection RNG (default 0)",
    )
    ev.add_argument(
        "--mhr-capacity",
        type=int,
        default=0,
        help="bound MHR entries per predictor module (0 = unbounded)",
    )
    ev.add_argument(
        "--pht-capacity",
        type=int,
        default=0,
        help="bound total PHT entries per predictor module (0 = unbounded)",
    )
    ev.add_argument(
        "--eviction",
        choices=EVICTION_POLICIES,
        default="lru",
        help="replacement policy for bounded tables (default lru)",
    )
    ev.add_argument(
        "--zipf-events", type=int, default=1_000_000,
        help="events to stream when trace is 'zipf' (default 1M)",
    )
    ev.add_argument(
        "--zipf-blocks", type=int, default=1_000_000,
        help="distinct-block rank space when trace is 'zipf' (default 1M)",
    )
    ev.add_argument(
        "--zipf-alpha", type=float, default=0.99,
        help="Zipf skew in (0, 1) when trace is 'zipf' (default 0.99)",
    )
    ev.add_argument(
        "--zipf-tenants", type=int, default=4,
        help="interleaved tenants when trace is 'zipf' (default 4)",
    )
    ev.add_argument(
        "--zipf-seed", type=int, default=0,
        help="generator seed when trace is 'zipf' (default 0)",
    )
    ev.set_defaults(func=_cmd_evaluate)

    exp = sub.add_parser(
        "explain", help="misprediction forensics for a saved trace"
    )
    exp.add_argument("trace")
    exp.add_argument(
        "--block",
        default=None,
        help=(
            "block address (decimal or 0x-hex) to show capture rings "
            "for; omit for a whole-trace ranking"
        ),
    )
    exp.add_argument("--depth", type=int, default=1)
    exp.add_argument("--filter", type=int, default=0,
                     help="noise-filter saturating-counter maximum")
    exp.add_argument("--macroblock", type=int, default=None,
                     help="group blocks into macroblocks of this many bytes")
    exp.add_argument(
        "--per-block",
        type=int,
        default=8,
        help="capture-ring depth per (node, module, block); default 8",
    )
    exp.add_argument(
        "--last",
        type=int,
        default=None,
        help="with --block: show only the newest N captured records",
    )
    exp.add_argument(
        "--top",
        type=_non_negative_int,
        default=10,
        help="rows in the whole-trace rankings; default 10",
    )
    exp.set_defaults(func=_cmd_explain)

    crit = sub.add_parser(
        "critical-path",
        help=(
            "trace a workload's transactions causally and attribute "
            "critical-path latency to prediction outcomes"
        ),
    )
    crit.add_argument("app", choices=BENCHMARK_NAMES)
    crit.add_argument("--iterations", type=int, default=None)
    crit.add_argument("--seed", type=int, default=0)
    crit.add_argument(
        "--quick",
        action="store_true",
        help="use the experiments' shrunken quick-scale workload",
    )
    crit.add_argument(
        "--depth", type=int, default=2, help="Cosmos MHR depth (default 2)"
    )
    crit.add_argument(
        "--block",
        default=None,
        help=(
            "restrict the report to one block address (decimal or "
            "0x-hex)"
        ),
    )
    crit.add_argument(
        "--top",
        type=_non_negative_int,
        default=5,
        help="worst transactions to print with span trees; default 5",
    )
    crit.add_argument(
        "--fault-profile",
        metavar="SPEC",
        default=None,
        help=(
            "inject interconnect faults: a preset "
            f"({', '.join(PRESETS)}) or 'drop=0.05,reorder=0.2,...'"
        ),
    )
    crit.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG (default 0)",
    )
    crit.add_argument(
        "--trace-events",
        metavar="PATH",
        default=None,
        help=(
            "also export the run as Chrome trace-event / Perfetto JSON "
            "with per-transaction async spans and cross-lane flow "
            "arrows"
        ),
    )
    crit.set_defaults(func=_cmd_critical_path)

    info = sub.add_parser("info", help="traffic characterization of a trace")
    info.add_argument("trace")
    info.set_defaults(func=_cmd_info)

    dot = sub.add_parser("dot", help="export a signature graph as Graphviz")
    dot.add_argument("trace")
    dot.add_argument("--role", choices=("cache", "directory"),
                     default="cache")
    dot.add_argument("--min-ref", type=float, default=2.0,
                     help="drop arcs below this reference share (%%)")
    dot.add_argument("-o", "--output", default=None)
    dot.set_defaults(func=_cmd_dot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    METRICS.reset()
    try:
        with METRICS.timer("cli.command"):
            status = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.metrics_json:
        from .obs import build_manifest

        dump_metrics_json(
            METRICS.snapshot(),
            args.metrics_json,
            command=args.command,
            manifest=build_manifest(f"repro-trace {args.command}"),
        )
        print(f"metrics written to {args.metrics_json}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
