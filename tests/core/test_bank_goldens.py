"""Predictor-bank consumers pinned against a golden file.

``tests/data/bank_goldens.json`` records every row of the quick moldyn
critical-path comparison (including the ``last-message`` baseline), every
point of the quick replacement study, the forensics totals, history
pattern counts and PHT-size histogram of ``explain_trace`` on the golden
moldyn trace, every score of the quick Figure 8 comparison, and
``pht_size_histogram`` on the golden moldyn trace at depth 1.  Each of these replays a trace through one predictor per
(node, role) module, so a change to how trace events reach predictors
shows up here.  Regenerate with ``PYTHONPATH=src python
tests/data/regenerate.py bank`` only for an intentional behaviour change.
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
    return json.loads((DATA / "bank_goldens.json").read_text())


@pytest.fixture(scope="module")
def current(regenerate):
    return regenerate.bank_goldens()


@pytest.mark.parametrize(
    "section",
    ["critical_path", "replacement", "forensics", "figure8", "pht_histogram"],
)
def test_matches_golden(section, golden, current):
    assert current[section] == golden[section]
