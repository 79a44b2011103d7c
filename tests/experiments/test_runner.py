"""Tests for the repro-experiments CLI."""

import sys

import pytest

from repro.errors import ReproError
from repro.experiments import common
from repro.experiments.runner import EXPERIMENT_TRACES, EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "table5" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["tableX"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_static_tables(self, capsys):
        assert main(["tables1-3-4"]) == 0
        out = capsys.readouterr().out
        assert "get_ro_request" in out  # Table 1
        assert "MOESI" in out  # Table 3
        assert "barnes" in out  # Table 4

    def test_figure5_runs(self, capsys):
        assert main(["figure5"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_quick_experiment_runs(self, capsys):
        assert main(["--quick", "--seed", "1", "table5"]) == 0
        out = capsys.readouterr().out
        assert "Depth of MHR" in out
        assert "regenerated" in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure5", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_failing_experiment_does_not_stop_the_rest(
        self, monkeypatch, capsys
    ):
        def broken(quick, seed):
            raise ReproError("figure5 is broken")

        monkeypatch.setitem(EXPERIMENTS, "figure5", broken)
        assert main(["figure5", "tables1-3-4"]) == 1
        captured = capsys.readouterr()
        assert "get_ro_request" in captured.out  # tables1-3-4 still ran
        assert "1 of 2 shards failed" in captured.err
        assert "figure5 is broken" in captured.err

    def test_mispredict_profile_registered(self, capsys):
        assert "mispredict-profile" in EXPERIMENTS
        assert main(["--quick", "mispredict-profile"]) == 0
        out = capsys.readouterr().out
        assert "Misprediction forensics profile" in out
        assert "history pattern" in out


class TestTraceEvents:
    def test_trace_events_forces_sequential(self, tmp_path, capsys):
        import json

        timeline = tmp_path / "timeline.json"
        code = main(
            ["figure5", "--jobs", "4", "--trace-events", str(timeline)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "forcing --jobs 1" in captured.err
        assert "timeline events" in captured.out
        document = json.loads(timeline.read_text())
        manifest = document["otherData"]["manifest"]
        assert manifest["command"] == "repro-experiments"
        assert manifest["experiments"] == ["figure5"]

    def test_trace_events_with_run_dir(self, tmp_path, capsys):
        import json

        common.clear_trace_cache()  # simulate here, under capture
        timeline = tmp_path / "timeline.json"
        run_dir = tmp_path / "run"
        code = main(
            [
                "table5",
                "--quick",
                "--no-trace-cache",
                "--run-dir",
                str(run_dir),
                "--trace-events",
                str(timeline),
            ]
        )
        assert code == 0
        assert (run_dir / "report.txt").exists()
        document = json.loads(timeline.read_text())
        assert document["otherData"]["events"] > 0

    def test_obs_disabled_after_run(self, tmp_path):
        from repro.obs import OBS

        main(["figure5", "--trace-events", str(tmp_path / "tl.json")])
        assert not OBS.enabled


class TestHtmlReport:
    def test_html_written(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["figure5", "tables1-3-4", "--html", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "figure5" in text and "tables1-3-4" in text
        assert "speedup" in text
        # Table content is escaped into <pre> blocks.
        assert "<pre>" in text
        assert "HTML report written" in capsys.readouterr().out

    def test_render_helper_escapes(self):
        from repro.experiments.runner import render_html_report

        html = render_html_report([("t", "<script>alert(1)</script>", 0.1)])
        assert "<script>" not in html
        assert "&lt;script&gt;" in html


class TestExperimentTraces:
    """The planner warms exactly the traces each experiment fetches."""

    @pytest.mark.parametrize(
        "name", [name for name, apps in EXPERIMENT_TRACES.items() if apps]
    )
    def test_fetched_apps_equal_planned_apps(self, name, monkeypatch):
        fetched = set()
        real_get_trace = common.get_trace

        def spy(app, *args, **kwargs):
            fetched.add(app)
            return real_get_trace(app, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "get_trace", None) is real_get_trace:
                monkeypatch.setattr(module, "get_trace", spy)
        EXPERIMENTS[name](True, 0)
        assert fetched == set(EXPERIMENT_TRACES[name])
