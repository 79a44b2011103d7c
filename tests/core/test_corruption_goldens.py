"""Corruption and hardware-budget results pinned against a golden file.

``tests/data/corruption_goldens.json`` records every row of the quick
corruption study, every point of the quick hardware-budget sweep, and
each module's predictor snapshot (armed and unarmed) after a replay of
the golden moldyn trace.  Any change to how corruption is injected,
detected or relearned, or to how a bounded MHR evicts, shows up here.
Regenerate with ``PYTHONPATH=src python tests/data/regenerate.py
corruption`` only for an intentional behaviour change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
    return json.loads((DATA / "corruption_goldens.json").read_text())


@pytest.fixture(scope="module")
def current(regenerate):
    return regenerate.corruption_goldens()


@pytest.mark.parametrize(
    "section", ["corruption_study", "hardware", "snapshots"]
)
def test_matches_golden(section, golden, current):
    assert current[section] == golden[section]
