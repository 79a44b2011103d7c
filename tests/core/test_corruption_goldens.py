"""Corruption and hardware-budget results pinned against a golden file.

``tests/data/corruption_goldens.json`` records every row of the quick
corruption study, every point of the quick hardware-budget sweep, and
each module's predictor state digest (armed and unarmed) after a replay of
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


def test_evaluate_corrupt_output(regenerate, tmp_path, capsys):
    """``repro-trace evaluate --corrupt`` on the golden moldyn trace."""
    from repro.cli import main
    from repro.trace.io import save_trace

    trace = tmp_path / "moldyn.jsonl"
    save_trace(regenerate._golden_events(regenerate.CORRUPTION_APP), trace)
    code = main([
        "evaluate", str(trace), "--depth", "2",
        "--corrupt", "flip=0.05,loss=0.01", "--corrupt-seed", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    rows = dict(
        line.split() for line in out.splitlines()
        if line.split()[:1] in (["cache"], ["directory"], ["overall"])
    )
    assert rows == {"cache": "67.6%", "directory": "64.1%", "overall": "65.9%"}
    assert (
        "504 bit flips, 104 entry losses injected; 221 caught by parity"
        in out
    )


def test_serve_fingerprint_is_stable():
    """Shard checkpoints written by earlier releases of this state
    format still restore: the fingerprint moves only with the format,
    the ring or the checkpoint cadence."""
    from repro.serve.config import ServeConfig

    assert ServeConfig().fingerprint() == (
        "18fa8cbd5c841d38e733b2891daca82b6eb838292eedc3cda250067da80c30d0"
    )
