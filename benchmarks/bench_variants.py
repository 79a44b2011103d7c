"""Benchmark: Cosmos organizational variants (paper footnotes 2-3, GAp).

Per-block history (PAp lineage) vs a global history register, and full
``<sender, type>`` tuples vs type-only tables -- the two axes along which
the paper's design could have been simplified, and what each costs.
"""

from conftest import SEED, once

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.predictors.variants import GlobalHistoryCosmos, TypeOnlyCosmos
from repro.protocol.messages import Role


def _score(events, factory):
    modules = {}
    hits = refs = 0
    for event in events:
        key = (event.node, event.role)
        predictor = modules.setdefault(key, factory())
        hits += predictor.observe(event.block, event.tuple).hit
        refs += 1
    return hits / refs, list(modules.values())


def test_variants(benchmark, quick_traces):
    events = quick_traces["moldyn"]
    config = CosmosConfig(depth=2)

    def run():
        results = {}
        for name, factory in (
            ("cosmos", lambda: CosmosPredictor(config)),
            ("type-only", lambda: TypeOnlyCosmos(config)),
            ("global-history", lambda: GlobalHistoryCosmos(config)),
        ):
            accuracy, modules = _score(events, factory)
            results[name] = accuracy
            if name == "type-only":
                type_hits = sum(m.type_hits for m in modules)
                type_preds = sum(m.type_predictions for m in modules)
                results["type-only (type accuracy)"] = (
                    type_hits / type_preds if type_preds else 0.0
                )
        return results

    results = once(benchmark, run)
    print(
        "\n"
        + "  ".join(f"{name}={value:.1%}" for name, value in results.items())
    )
    # Per-block history is the load-bearing design choice: the global
    # variant collapses on interleaved traffic.
    assert results["cosmos"] > results["global-history"] + 0.1
    # Dropping senders barely hurts *type* prediction but the full tuple
    # the actions need is harder than the type alone.
    assert (
        results["type-only (type accuracy)"] >= results["type-only"] - 0.02
    )
    benchmark.extra_info["accuracies"] = {
        name: round(value, 3) for name, value in results.items()
    }


def test_hybrid_and_set_extensions(benchmark, quick_traces):
    """Future-work extensions: tournament depth choice and footnote 3's
    set prediction."""
    from repro.predictors.hybrid import HybridCosmos
    from repro.predictors.set_predictor import SetCosmos

    events = quick_traces["unstructured"]

    def run():
        results = {}
        for name, factory in (
            ("cosmos-d1", lambda: CosmosPredictor(CosmosConfig(depth=1))),
            ("cosmos-d3", lambda: CosmosPredictor(CosmosConfig(depth=3))),
            ("hybrid-d1d3", HybridCosmos),
        ):
            accuracy, _ = _score(events, factory)
            results[name] = accuracy
        accuracy, modules = _score(
            events, lambda: SetCosmos(CosmosConfig(depth=1), set_size=2)
        )
        results["set2-d1 (point)"] = accuracy
        set_hits = sum(m.set_hits for m in modules)
        set_preds = sum(m.set_predictions for m in modules)
        results["set2-d1 (set)"] = set_hits / set_preds if set_preds else 0.0
        return results

    results = once(benchmark, run)
    print(
        "\n"
        + "  ".join(f"{name}={value:.1%}" for name, value in results.items())
    )
    # The tournament lands near the better fixed depth...
    assert results["hybrid-d1d3"] >= min(
        results["cosmos-d1"], results["cosmos-d3"]
    ) - 0.01
    # ...and set membership is easier than point prediction.
    assert results["set2-d1 (set)"] >= results["set2-d1 (point)"]
    benchmark.extra_info["accuracies"] = {
        name: round(value, 3) for name, value in results.items()
    }
