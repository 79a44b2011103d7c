"""``repro-serve`` exit codes: a replay that serves a wrong answer fails."""

from repro.serve import cli


def _bench(capsys):
    code = cli.main(["bench", "--shards", "1", "--observations", "40"])
    return code, capsys.readouterr()


def test_fault_free_bench_passes(capsys):
    code, out = _bench(capsys)
    assert code == 0, out.err
    assert '"wrong": 0' in out.out


def test_bench_fails_when_the_oracle_counts_a_wrong_answer(
    capsys, monkeypatch
):
    verify = cli.verify_predictions

    def one_wrong(results, config):
        checked, wrong = verify(results, config)
        return checked, wrong + 1

    monkeypatch.setattr(cli, "verify_predictions", one_wrong)
    code, out = _bench(capsys)
    assert code == 1
    assert '"wrong": 1' in out.out
    assert "bench run FAILED: 1 incorrect non-degraded" in out.err


def test_second_run_over_its_own_checkpoints_is_refused(capsys, tmp_path):
    """The second run's shards would warm-start from the first run's
    checkpoints and the cold-start oracle would count their learned
    answers wrong; it is refused before the service starts instead."""
    argv = [
        "bench", "--shards", "1", "--observations", "80",
        "--checkpoint-every", "16", "--checkpoint-dir", str(tmp_path),
    ]
    assert cli.main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "already holds" in out.err
    assert "shard checkpoint(s) of this service configuration" in out.err
    # Another seed is another configuration: its shards start cold.
    assert cli.main(argv + ["--seed", "1"]) == 0, capsys.readouterr().err
