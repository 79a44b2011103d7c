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
