"""Command-line driver: regenerate any table or figure of the paper.

Usage::

    repro-experiments all                 # everything, paper scale
    repro-experiments table5              # one experiment
    repro-experiments table5 --quick      # shrunken workloads, fast
    repro-experiments all --jobs 4        # shard across 4 worker processes
    repro-experiments all --html out.html # self-contained HTML report
    repro-experiments table5 --metrics-json m.json   # runtime metrics dump
    repro-experiments --list

or ``python -m repro.experiments.runner ...``.

Every run goes through one shard plan (:mod:`repro.parallel`): a
trace-warming stage, then one shard per experiment.  ``--jobs 1`` runs
the shards in this process; ``--jobs N`` runs them on a ``spawn``
process pool and hands simulation traces between workers through the
on-disk trace cache (``--trace-cache DIR``, or the ``REPRO_TRACE_CACHE``
environment variable, defaulting to ``~/.cache/repro/traces`` when
parallel).  The same seeds drive the same simulations wherever they
run, and sections print in request order as they finish, so the report
text is byte-identical at any ``--jobs``; only the wall time changes.
"""

from __future__ import annotations

import argparse
import html as html_module
import os
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError, RunInterrupted, ShardError
from ..ioutil import atomic_write_text
from ..obs import (
    OBS,
    build_manifest,
    export_trace_events,
    save_trace_events,
)
from ..protocol.messages import format_table1
from ..sim.metrics import METRICS, dump_metrics_json
from ..sim.params import PAPER_PARAMS
from ..workloads.registry import BENCHMARK_NAMES, format_table4
from ..sim.faults import PRESETS, FaultProfile
from .bounds import run_bounds
from .corruption import run_corruption_study
from .critical_path import run_critical_path
from .faults import run_fault_study
from .mispredict import run_mispredict_profile
from .figure2 import run_figure2
from .figure5 import run_figure5
from .figure8 import FIGURE8_APPS, run_figure8
from .figures6_7 import run_figures6_7
from .capacity import run_capacity_study
from .hardware import HARDWARE_APP, run_hardware
from .integration import MODEL_APPS, run_integration
from .protocols import run_protocol_comparison
from .replacement import run_replacement_study
from .scaling import run_scaling, run_seed_study
from .sensitivity import run_sensitivity
from .traffic import run_traffic
from .table5 import run_table5
from .table6 import run_table6
from .table7 import run_table7
from .table8 import run_table8

#: A rendered experiment: (name, text, elapsed seconds).
Section = Tuple[str, str, float]


def _static_tables(quick: bool, seed: int) -> str:
    parts = [
        "Table 1: coherence message vocabulary",
        format_table1(),
        "",
        "Table 3: system parameters",
        PAPER_PARAMS.describe(),
        "",
        format_table4(),
    ]
    return "\n".join(parts)


#: Experiment name -> callable(quick, seed) -> printable text.
EXPERIMENTS: Dict[str, Callable[[bool, int], str]] = {
    "tables1-3-4": _static_tables,
    "figure2": lambda quick, seed: run_figure2(seed=seed).format(),
    "figure5": lambda quick, seed: run_figure5().format(),
    "table5": lambda quick, seed: run_table5(quick=quick, seed=seed).format(),
    "table6": lambda quick, seed: run_table6(quick=quick, seed=seed).format(),
    "table7": lambda quick, seed: run_table7(quick=quick, seed=seed).format(),
    "table8": lambda quick, seed: run_table8(quick=quick, seed=seed).format(),
    "figures6-7": lambda quick, seed: run_figures6_7(
        quick=quick, seed=seed
    ).format(),
    "figure8": lambda quick, seed: run_figure8(quick=quick, seed=seed).format(),
    "sensitivity": lambda quick, seed: run_sensitivity(
        quick=quick, seed=seed
    ).format(),
    "integration": lambda quick, seed: run_integration(
        quick=quick, seed=seed
    ).format(),
    "protocols": lambda quick, seed: run_protocol_comparison(
        quick=quick, seed=seed
    ).format(),
    "replacement": lambda quick, seed: run_replacement_study(
        seed=seed
    ).format(),
    "traffic": lambda quick, seed: run_traffic(
        quick=quick, seed=seed
    ).format(),
    "scaling": lambda quick, seed: run_scaling(
        quick=quick, seed=seed
    ).format(),
    "seeds": lambda quick, seed: run_seed_study(quick=quick).format(),
    "hardware": lambda quick, seed: run_hardware(
        quick=quick, seed=seed
    ).format(),
    "bounds": lambda quick, seed: run_bounds(
        quick=quick, seed=seed
    ).format(),
    "faults": lambda quick, seed: run_fault_study(
        quick=quick, seed=seed
    ).format(),
    "corruption": lambda quick, seed: run_corruption_study(
        quick=quick, seed=seed
    ).format(),
    "mispredict-profile": lambda quick, seed: run_mispredict_profile(
        quick=quick, seed=seed
    ).format(),
    "critical-path": lambda quick, seed: run_critical_path(
        quick=quick, seed=seed
    ).format(),
    "capacity": lambda quick, seed: run_capacity_study(
        quick=quick, seed=seed
    ).format(),
}

#: Workloads each experiment replays through the shared trace cache.
#: Experiments that simulate privately (non-default protocol options or
#: machine sizes: sensitivity, protocols, replacement, scaling, seeds)
#: or not at all are mapped to the empty tuple; the shard planner uses
#: this to warm exactly the traces a run will need.
EXPERIMENT_TRACES: Dict[str, Tuple[str, ...]] = {
    name: () for name in EXPERIMENTS
}
EXPERIMENT_TRACES.update(
    {
        "table5": tuple(BENCHMARK_NAMES),
        "table6": tuple(BENCHMARK_NAMES),
        "table7": tuple(BENCHMARK_NAMES),
        "table8": tuple(BENCHMARK_NAMES),
        "figures6-7": tuple(BENCHMARK_NAMES),
        "figure8": FIGURE8_APPS,
        "traffic": tuple(BENCHMARK_NAMES),
        "bounds": tuple(BENCHMARK_NAMES),
        "integration": MODEL_APPS,
        "hardware": (HARDWARE_APP,),
        "mispredict-profile": tuple(BENCHMARK_NAMES),
        "corruption": tuple(BENCHMARK_NAMES),
    }
)

#: Fallback shared cache directory for parallel runs.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro" / "traces"


def run_experiments(
    names: List[str],
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_section: Optional[Callable[[Section], None]] = None,
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    run_dir: Optional[str] = None,
    resume_dir: Optional[str] = None,
) -> Tuple[List[Section], List[dict]]:
    """Run ``names`` through the shard plan; return its sections.

    There is one path: plan the run, optionally journal it, execute it
    with :func:`~repro.parallel.pool.run_plan` -- in this process at
    ``jobs == 1``, on a ``spawn`` pool of ``jobs`` workers above that.
    ``on_section`` is called once per section, in request order, as
    soon as that section and every earlier one are done.  ``fault_spec``
    (``--fault-profile``) injects interconnect faults into every
    simulation the run performs.  Returns ``(sections, shard_stats)``
    where ``shard_stats`` holds one JSON-able accounting dict per shard
    (simulation shards included) for ``--metrics-json``.

    ``run_dir`` journals every shard completion under that directory so
    an interrupted or killed run can be resumed; ``resume_dir`` resumes
    such a run, rebuilding the journaled plan exactly and re-executing
    only the shards with no recorded success -- the merged output is
    byte-identical to an uninterrupted run.  The two are mutually
    exclusive; with ``resume_dir`` set, ``names``/``quick``/``seed``/
    fault arguments are taken from the journal, not the caller.
    """
    from ..parallel import RunJournal, plan_run, run_plan

    journal = None
    if resume_dir is not None:
        if run_dir is not None:
            raise ValueError("run_dir and resume_dir are exclusive")
        journal = RunJournal.load(resume_dir)
        plan = journal.plan()
    else:
        plan = plan_run(
            names,
            quick,
            seed,
            cache_dir,
            EXPERIMENT_TRACES,
            fault_spec=fault_spec,
            fault_seed=fault_seed,
        )
        if run_dir is not None:
            journal = RunJournal.create(
                run_dir,
                plan,
                meta={
                    "names": list(names),
                    "quick": quick,
                    "seed": seed,
                    "cache_dir": cache_dir,
                    "fault_spec": fault_spec,
                    "fault_seed": fault_seed,
                },
            )
    try:
        sections, outcomes = run_plan(
            plan, jobs, journal=journal, on_section=on_section
        )
    finally:
        if journal is not None:
            journal.close()
    shard_stats = [
        {
            "kind": outcome.kind,
            "name": outcome.name,
            "seconds": outcome.seconds,
            "events": outcome.events,
            "events_per_second": round(outcome.events_per_second, 1),
            "pid": outcome.pid,
        }
        for outcome in outcomes
    ]
    return sections, shard_stats


def report_text(sections: List[Section]) -> str:
    """The report body: every section's text, in order (no timings)."""
    return ("\n\n" + "=" * 78 + "\n\n").join(text for _, text, _ in sections)


_HTML_STYLE = """
body { font-family: Georgia, serif; max-width: 70rem; margin: 2rem auto;
       padding: 0 1rem; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { margin-top: 2.5rem; }
pre { background: #f6f6f4; border: 1px solid #ddd; border-radius: 4px;
      padding: 1rem; overflow-x: auto; font-size: 0.85rem; line-height: 1.3; }
nav ul { columns: 3; list-style: none; padding: 0; }
nav a { text-decoration: none; }
.meta { color: #666; font-size: 0.85rem; }
"""


def render_html_report(sections: List[Tuple[str, str, float]]) -> str:
    """Build a self-contained HTML report from experiment outputs."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Cosmos reproduction report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Using Prediction to Accelerate Coherence Protocols "
        "&mdash; reproduction report</h1>",
        '<p class="meta">Mukherjee &amp; Hill, ISCA 1998. Generated by '
        "<code>repro-experiments --html</code>; see EXPERIMENTS.md for the "
        "measured-vs-paper audit.</p>",
        "<nav><ul>",
    ]
    for name, _text, _elapsed in sections:
        parts.append(f'<li><a href="#{name}">{html_module.escape(name)}</a></li>')
    parts.append("</ul></nav>")
    for name, text, elapsed in sections:
        parts.append(f'<h2 id="{name}">{html_module.escape(name)}</h2>')
        parts.append(
            f'<p class="meta">regenerated in {elapsed:.1f}s</p>'
        )
        parts.append(f"<pre>{html_module.escape(text)}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts)


def _resolve_cache_dir(args: argparse.Namespace, jobs: int) -> Optional[str]:
    """Which on-disk trace cache (if any) this invocation should use.

    Precedence: ``--no-trace-cache`` wins; then an explicit
    ``--trace-cache DIR``; then ``REPRO_TRACE_CACHE``; finally parallel
    runs fall back to a per-user default (workers need *some* shared
    directory to hand traces to each other).  Sequential runs default to
    no disk cache, preserving the historical behaviour.
    """
    if args.no_trace_cache:
        return None
    if args.trace_cache is not None:
        return args.trace_cache
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env:
        return env
    if jobs > 1:
        return str(DEFAULT_CACHE_DIR)
    return None


def _positive_int(text: str) -> int:
    """``argparse`` type for ``--jobs``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Using Prediction to "
            "Accelerate Coherence Protocols' (Mukherjee & Hill, ISCA 1998)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (or 'all'); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use shrunken workloads (fast; coarser numbers)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run experiments on N worker processes (default 1: in-process)",
    )
    parser.add_argument(
        "--trace-cache",
        metavar="DIR",
        default=None,
        help=(
            "cache simulation traces on disk under DIR (default: "
            "$REPRO_TRACE_CACHE, else ~/.cache/repro/traces for parallel "
            "runs, else disabled)"
        ),
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the on-disk trace cache entirely",
    )
    parser.add_argument(
        "--fault-profile",
        metavar="SPEC",
        default=None,
        help=(
            "inject interconnect faults into every simulation: a preset "
            f"({', '.join(PRESETS)}) or 'drop=0.05,reorder=0.2,...'"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault-injection RNG (default 0)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="dump counters/timers/per-shard throughput as JSON to PATH",
    )
    parser.add_argument(
        "--trace-events",
        metavar="PATH",
        default=None,
        help=(
            "capture a structured event log during the run and export it "
            "as Chrome trace-event / Perfetto JSON to PATH (forces "
            "--jobs 1: the log is an in-process ring buffer)"
        ),
    )
    parser.add_argument(
        "--obs-level",
        choices=("proto", "msg", "pred", "full"),
        default="msg",
        help=(
            "capture depth for --trace-events: proto, msg, or pred/full "
            "(default msg)"
        ),
    )
    parser.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="also write a self-contained HTML report to PATH",
    )
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help=(
            "journal every shard completion under DIR (fsync'd, so even "
            "kill -9 loses only in-flight work) and write the final "
            "report there; an interrupted run resumes with --resume DIR"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help=(
            "resume an interrupted --run-dir run: re-executes only the "
            "shards with no journaled success and merges byte-identical "
            "output (experiment names/seeds come from DIR's plan.json)"
        ),
    )
    args = parser.parse_args(argv)

    if args.run_dir and args.resume:
        print("--run-dir and --resume are mutually exclusive", file=sys.stderr)
        return 2
    if args.resume and args.experiments:
        print(
            "--resume replays the journaled plan; do not also name "
            "experiments",
            file=sys.stderr,
        )
        return 2

    if args.list or (not args.experiments and not args.resume):
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        return 0

    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use --list to see what is available", file=sys.stderr)
        return 2

    fault_spec: Optional[str] = None
    if args.fault_profile is not None:
        try:
            profile = FaultProfile.parse(args.fault_profile)
        except Exception as exc:
            print(f"bad --fault-profile: {exc}", file=sys.stderr)
            return 2
        if profile.is_active:
            fault_spec = profile.spec()

    jobs = args.jobs
    if args.trace_events and args.resume:
        print(
            "--trace-events captures an in-process event log; it cannot "
            "combine with --resume, whose journaled shards would be "
            "missing from it",
            file=sys.stderr,
        )
        return 2
    if args.trace_events and jobs > 1:
        print(
            "note: --trace-events captures an in-process event log; "
            "forcing --jobs 1",
            file=sys.stderr,
        )
        jobs = 1
    cache_dir = _resolve_cache_dir(args, jobs)

    printed = 0

    def _print_section(section: Section) -> None:
        nonlocal printed
        name, text, elapsed = section
        if printed:
            print("\n" + "=" * 78 + "\n")
        print(text)
        print(f"\n[{name} regenerated in {elapsed:.1f}s]")
        printed += 1

    METRICS.reset()
    if args.trace_events:
        OBS.configure(args.obs_level)
    wall_start = time.perf_counter()

    def _sigterm(signum: int, frame: object) -> None:
        # A polite kill should behave like Ctrl-C: the pool cancels
        # in-flight shards, the journal keeps everything acknowledged,
        # and the exit message names the resume command.
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        try:
            sections, shard_stats = run_experiments(
                names,
                quick=args.quick,
                seed=args.seed,
                jobs=jobs,
                cache_dir=cache_dir,
                on_section=_print_section,
                fault_spec=fault_spec,
                fault_seed=args.fault_seed,
                run_dir=args.run_dir,
                resume_dir=args.resume,
            )
        except RunInterrupted as exc:
            print(f"\n{exc}", file=sys.stderr)
            print(
                f"resume with: repro-experiments --resume {exc.run_dir}",
                file=sys.stderr,
            )
            return 130
        except KeyboardInterrupt:
            print(
                "\ninterrupted (no --run-dir: no shard journal, "
                "nothing to resume)",
                file=sys.stderr,
            )
            return 130
        except ShardError as exc:
            print(f"\n{exc}", file=sys.stderr)
            return 1
        except ReproError as exc:
            # e.g. --resume on a directory with no journal, or --run-dir
            # on one that already holds a plan: usage errors, not crashes.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        wall_seconds = time.perf_counter() - wall_start

        if args.trace_events:
            manifest = build_manifest(
                "repro-experiments",
                experiments=names,
                quick=args.quick,
                seed=args.seed,
                fault_profile=fault_spec,
                fault_seed=args.fault_seed,
                obs_level=args.obs_level,
            )
            document = export_trace_events(
                OBS.events(),
                PAPER_PARAMS.n_nodes,
                manifest=manifest,
                dropped=OBS.dropped,
            )
            try:
                save_trace_events(document, args.trace_events)
            except ReproError as exc:
                print(exc, file=sys.stderr)
                return 1
            print(
                f"\nwrote {document['otherData']['events']} timeline "
                f"events to {args.trace_events} ({OBS.dropped} dropped)"
            )
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if args.trace_events:
            OBS.disable()

    report_dir = args.run_dir or args.resume
    if report_dir is not None:
        report_path = Path(report_dir) / "report.txt"
        atomic_write_text(report_path, report_text(sections) + "\n")
        print(f"\nreport written to {report_path}")
    if args.html:
        atomic_write_text(args.html, render_html_report(sections))
        print(f"\nHTML report written to {args.html}")
    if args.metrics_json:
        dump_metrics_json(
            METRICS.snapshot(),
            args.metrics_json,
            shards=shard_stats,
            wall_seconds=wall_seconds,
            jobs=jobs,
            quick=args.quick,
            seed=args.seed,
            trace_cache=cache_dir,
            experiments=names,
            fault_profile=fault_spec,
            fault_seed=args.fault_seed,
            manifest=build_manifest(
                "repro-experiments",
                experiments=names,
                quick=args.quick,
                seed=args.seed,
                jobs=jobs,
                fault_profile=fault_spec,
                fault_seed=args.fault_seed,
            ),
        )
        print(f"\nmetrics written to {args.metrics_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
