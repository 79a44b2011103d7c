"""Cosmos-family predictors pinned against a golden file.

``tests/data/variant_goldens.json`` records, for each of the five golden
traces, the bank-wide counters of Cosmos, the type-only, global-history
and set-prediction variants (at depth 1 and at depth 2 with a one-step
filter) and of the hybrid, plus the offline ``optimal_table_accuracy``
bound at depths 1-3.  It also pins ``explain_trace`` on the moldyn trace
at a filtered config, where the captured filter counters are not all
zero.  Regenerate with ``PYTHONPATH=src python tests/data/regenerate.py
variants`` only for an intentional behaviour change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.predictors import HybridCosmos
from repro.workloads.registry import BENCHMARK_NAMES

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", DATA / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA / "variant_goldens.json").read_text())


@pytest.mark.parametrize("app", BENCHMARK_NAMES)
def test_app_matches_golden(app, regenerate, golden):
    current = regenerate._plain(regenerate._variant_app(app))
    assert current == golden["apps"][app]


def test_filtered_forensics_matches_golden(regenerate, golden):
    current = regenerate._plain(regenerate._filtered_forensics("moldyn"))
    assert current == golden["forensics"]


def _accuracy(totals):
    return totals["hits"] / (totals["predictions"] + totals["no_prediction"])


def test_moldyn_variant_margins(regenerate):
    """The two simplifications of Cosmos, at depth 2 on moldyn."""
    events = regenerate._golden_events("moldyn")
    factories = regenerate._variant_factories(CosmosConfig(depth=2))
    cosmos, type_only, global_history = (
        regenerate._bank_totals(events, name, factories[name])
        for name in ("cosmos", "type-only", "global-history")
    )
    # Per-block history is the load-bearing design choice: the global
    # variant collapses on interleaved traffic.
    assert _accuracy(cosmos) > _accuracy(global_history) + 0.1
    # The full tuple the actions need is harder than the type alone.
    type_accuracy = type_only["type_hits"] / type_only["type_predictions"]
    assert type_accuracy >= _accuracy(type_only) - 0.02


def test_unstructured_hybrid_and_set(regenerate):
    """The tournament and footnote 3's set prediction on unstructured."""
    events = regenerate._golden_events("unstructured")

    def cosmos(depth):
        config = CosmosConfig(depth=depth)
        return _accuracy(regenerate._bank_totals(
            events, "cosmos", lambda: CosmosPredictor(config)
        ))

    hybrid = _accuracy(regenerate._bank_totals(events, "hybrid", HybridCosmos))
    # The tournament lands near the better fixed depth.
    assert hybrid >= min(cosmos(1), cosmos(3)) - 0.01
    # Set membership is easier than point prediction.
    set_factory = regenerate._variant_factories(CosmosConfig(depth=1))["set2"]
    set2 = regenerate._bank_totals(events, "set2", set_factory)
    assert set2["set_hits"] / set2["set_predictions"] >= _accuracy(set2)
