"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. per-(node, role) predictors vs one shared predictor per node;
2. the half-migratory optimization on vs off (appbt-hurts / dsmc-helps);
3. the noise filter at depth 1 vs depth 2 (Table 6's mechanism);
4. Cosmos vs the simple baselines on a real application;
5. macroblock grouping (Section 7's memory-reduction suggestion);
6. static PHT preallocation (Section 3.7's LimitLESS-style scheme).
"""

from conftest import SEED, once

from repro.analysis.overhead import (
    macroblock_sweep,
    pht_size_histogram,
    preallocation_report,
)
from repro.core.bank import PredictorBank
from repro.core.config import CosmosConfig
from repro.core.evaluation import evaluate_trace
from repro.core.predictor import CosmosPredictor
from repro.experiments.common import iterations_for, workload_for
from repro.predictors.last_message import LastMessagePredictor
from repro.predictors.most_common import MostCommonPredictor
from repro.protocol.stache import StacheOptions
from repro.sim.machine import simulate


def _bank_accuracy(events, share_roles):
    bank = PredictorBank(CosmosConfig(depth=1), share_roles=share_roles)
    hits = 0
    for event in events:
        hits += bank.observe(event).hit
    return hits / len(events)


def test_ablation_shared_role_predictor(benchmark, quick_traces):
    """Sharing one predictor per node aliases cache/directory patterns."""
    events = quick_traces["moldyn"]

    def run():
        return (
            _bank_accuracy(events, share_roles=False),
            _bank_accuracy(events, share_roles=True),
        )

    per_module, shared = once(benchmark, run)
    print(
        f"\nper-module={per_module:.1%}  shared-per-node={shared:.1%} "
        f"(delta {100 * (per_module - shared):+.1f} points)"
    )
    # Cache and directory streams never collide on the same blocks at
    # the same node in Stache (home pages vs remote pages), so sharing
    # should cost little -- but never help.
    assert shared <= per_module + 0.02
    benchmark.extra_info["per_module"] = round(per_module, 4)
    benchmark.extra_info["shared"] = round(shared, 4)


def test_ablation_half_migratory(benchmark):
    """Half-migratory helps dsmc (write-only producers), hurts appbt
    (read-modify-write producers) -- the paper's Section 6.1 discussion,
    measured as protocol messages per iteration."""

    def run():
        results = {}
        for app in ("appbt", "dsmc"):
            workload_kwargs = {}
            counts = {}
            for half in (True, False):
                collector = simulate(
                    workload_for(app, quick=True),
                    iterations=iterations_for(app, quick=True),
                    options=StacheOptions(half_migratory=half),
                    seed=SEED,
                )
                counts[half] = len(collector.events)
            results[app] = counts
        return results

    results = once(benchmark, run)
    for app, counts in results.items():
        print(
            f"\n{app}: half-migratory={counts[True]} msgs, "
            f"downgrade-mode={counts[False]} msgs"
        )
    # dsmc's producers never read before writing: invalidating their
    # copies avoids the downgrade's later upgrade handshake.
    assert results["dsmc"][True] < results["dsmc"][False]
    # appbt's producers *do* read first: invalidation costs them an
    # extra read miss each iteration.
    assert results["appbt"][True] > results["appbt"][False]


def test_ablation_filter_vs_depth(benchmark, quick_traces):
    """Filters and history are alternative noise treatments (Table 6)."""
    events = quick_traces["barnes"]

    def accuracy(depth, max_count):
        result = evaluate_trace(
            events,
            CosmosConfig(depth=depth, filter_max_count=max_count),
            track_arcs=False,
        )
        return 100.0 * result.overall_accuracy

    def run():
        return {
            "d1": accuracy(1, 0),
            "d1+filter": accuracy(1, 1),
            "d2": accuracy(2, 0),
            "d2+filter": accuracy(2, 1),
        }

    table = once(benchmark, run)
    print("\n" + "  ".join(f"{k}={v:.1f}" for k, v in table.items()))
    gain_d1 = table["d1+filter"] - table["d1"]
    gain_d2 = table["d2+filter"] - table["d2"]
    # Filters help depth-1 more than depth-2 predictors.
    assert gain_d1 >= gain_d2 - 1.5


def test_ablation_cosmos_vs_baselines(benchmark, quick_traces):
    """Cosmos must beat history-free baselines on a real application."""
    events = quick_traces["unstructured"]

    def bank_accuracy(factory):
        predictors = {}
        hits = refs = 0
        for event in events:
            key = (event.node, event.role)
            predictor = predictors.get(key)
            if predictor is None:
                predictor = factory()
                predictors[key] = predictor
            hits += predictor.observe(event.block, event.tuple).hit
            refs += 1
        return hits / refs

    def run():
        return {
            "cosmos-d2": bank_accuracy(
                lambda: CosmosPredictor(CosmosConfig(depth=2))
            ),
            "last-message": bank_accuracy(LastMessagePredictor),
            "most-common": bank_accuracy(MostCommonPredictor),
        }

    scores = once(benchmark, run)
    print("\n" + "  ".join(f"{k}={v:.1%}" for k, v in scores.items()))
    assert scores["cosmos-d2"] > scores["last-message"]
    assert scores["cosmos-d2"] > scores["most-common"]


def test_ablation_macroblocks(benchmark, quick_traces):
    """Section 7: grouping blocks into macroblocks trades accuracy for
    table size (fewer MHR/PHT entries)."""
    events = quick_traces["appbt"]

    def run():
        return macroblock_sweep(
            events, macroblock_sizes=(None, 128, 512, 4096), depth=1
        )

    points = once(benchmark, run)
    for point in points:
        label = point.macroblock_bytes or "per-block"
        print(
            f"\nmacroblock={label}: accuracy={point.overall_accuracy:.1%} "
            f"mhrs={point.mhr_entries} phts={point.pht_entries}"
        )
    baseline, *grouped = points
    # Memory shrinks monotonically with macroblock size...
    mhrs = [p.mhr_entries for p in points]
    assert mhrs == sorted(mhrs, reverse=True)
    # ...and accuracy never improves by aliasing unrelated blocks.
    for point in grouped:
        assert point.overall_accuracy <= baseline.overall_accuracy + 0.02
    benchmark.extra_info["points"] = [
        (p.macroblock_bytes, round(p.overall_accuracy, 3)) for p in points
    ]


def test_ablation_preallocation(benchmark, quick_traces):
    """Section 3.7: a static allocation of ~4 PHT entries per block plus
    a shared overflow pool covers almost all pattern histories."""
    events = quick_traces["dsmc"]

    def run():
        histogram = pht_size_histogram(events, CosmosConfig(depth=1))
        return {
            n: preallocation_report(histogram, static_entries=n)
            for n in (2, 4, 8)
        }

    reports = once(benchmark, run)
    for n, report in reports.items():
        print(
            f"\nstatic={n}: {report.overflow_block_fraction:.1%} of blocks "
            f"overflow, {report.overflow_entry_fraction:.1%} of entries in "
            "the shared pool"
        )
    # The paper's suggested 4-entry preallocation leaves only a small
    # minority of blocks spilling to the dynamic pool.
    assert reports[4].overflow_block_fraction < 0.35
    # Bigger static allocations strictly reduce overflow.
    assert (
        reports[8].overflow_block_fraction
        <= reports[4].overflow_block_fraction
        <= reports[2].overflow_block_fraction
    )
