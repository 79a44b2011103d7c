"""The ``repro-check`` command line, exercised in-process."""

from __future__ import annotations

import json

import pytest

from repro.mc.cli import EXIT_VIOLATIONS, main
from repro.mc.explorer import decode_action, replay_path
from repro.mc.model import MCConfig, Model


def test_enumerate_clean_space_exits_zero(capsys):
    assert main(["enumerate", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "13317 states" in out
    assert "fingerprint" in out


def test_enumerate_mutation_writes_counterexample(tmp_path, capsys):
    out_file = tmp_path / "ce.json"
    code = main(
        ["enumerate", "--mutation", "skip-inval", "--out", str(out_file)]
    )
    assert code == EXIT_VIOLATIONS
    assert "VIOLATION [coherence]" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["mutation"] == "skip-inval"
    assert payload["oracle"] == "coherence"
    # The saved path replays to the violating state.
    config = MCConfig(
        n_nodes=payload["config"]["n_nodes"],
        homes=tuple(payload["config"]["homes"]),
        half_migratory=payload["config"]["half_migratory"],
        forwarding=payload["config"]["forwarding"],
        faults=payload["config"]["faults"],
        dup_cap=payload["config"]["dup_cap"],
    )
    model = Model(config, payload["mutation"])
    final = replay_path(
        model, [decode_action(a) for a in payload["path"]]
    )
    assert model.check_state(final) is not None


def test_enumerate_incomplete_exits_one(capsys):
    assert main(["enumerate", "--max-states", "50"]) == 1
    assert "INCOMPLETE" in capsys.readouterr().out


def test_enumerate_rejects_forwarding_with_faults(capsys):
    assert main(["enumerate", "--forwarding", "--faults"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--forwarding"]])
def test_cross_validate_exits_zero(capsys, flags):
    code = main(
        [
            "cross-validate",
            "--episodes", "1",
            "--iterations", "2",
            "--seed", "9",
            *flags,
        ]
    )
    assert code == 0
    assert "model-reachable" in capsys.readouterr().out


def test_replay_counterexample_saves_artifact(tmp_path, capsys):
    out_file = tmp_path / "wrong-owner.repro"
    code = main(
        [
            "replay-counterexample", "wrong-owner",
            "--out", str(out_file),
            "--no-shrink",
        ]
    )
    assert code == EXIT_VIOLATIONS
    assert out_file.exists()
    assert "reproduced concretely" in capsys.readouterr().out


def test_replay_counterexample_needs_a_live_patch(capsys):
    assert main(["replay-counterexample", "skip-inval"]) == 1
    assert "no live simulator patch" in capsys.readouterr().err


def test_mutations_listing(capsys):
    assert main(["mutations", "--verbose"]) == 0
    out = capsys.readouterr().out
    for name in ("drop-ack", "skip-inval", "lost-writeback"):
        assert name in out
    assert "[live patch]" in out
