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
