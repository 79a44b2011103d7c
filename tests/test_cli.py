"""Tests for the repro-trace CLI."""

import pytest

from repro.cli import main
from repro.trace.io import load_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "moldyn.jsonl"
    code = main(
        [
            "simulate",
            "moldyn",
            "-o",
            str(path),
            "--iterations",
            "4",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_trace(self, trace_file):
        events = load_trace(trace_file)
        assert events
        assert max(e.iteration for e in events) == 4

    def test_forwarding_flag(self, tmp_path):
        path = tmp_path / "fwd.jsonl"
        code = main(
            ["simulate", "moldyn", "-o", str(path), "--iterations", "3",
             "--forwarding"]
        )
        assert code == 0
        from repro.protocol.messages import MessageType

        types = {e.mtype for e in load_trace(path)}
        assert MessageType.FWD_GET_RW_REQUEST in types or (
            MessageType.FWD_GET_RO_REQUEST in types
        )

    def test_unknown_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "quicksort", "-o", "/tmp/x.jsonl"])


class TestEvaluate:
    def test_prints_accuracies(self, trace_file, capsys):
        assert main(["evaluate", str(trace_file), "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache" in out and "directory" in out and "overall" in out
        assert "depth=2" in out

    def test_filter_and_macroblock_options(self, trace_file, capsys):
        assert (
            main(
                ["evaluate", str(trace_file), "--filter", "1",
                 "--macroblock", "256"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "macroblock=256B" in out

    def test_missing_file(self, capsys):
        assert main(["evaluate", "/nonexistent/trace.jsonl"]) == 1
        assert "error" in capsys.readouterr().err


class TestTraceEvents:
    def test_simulate_exports_valid_timeline(self, tmp_path, capsys):
        import json
        from pathlib import Path

        from repro.obs.schema import load_schema, validate

        trace = tmp_path / "t.jsonl"
        timeline = tmp_path / "timeline.json"
        code = main(
            ["simulate", "moldyn", "-o", str(trace), "--iterations", "2",
             "--trace-events", str(timeline), "--obs-level", "full"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline events" in out
        document = json.loads(timeline.read_text())
        assert document["otherData"]["events"] > 0
        manifest = document["otherData"]["manifest"]
        assert manifest["command"] == "repro-trace simulate"
        assert manifest["app"] == "moldyn"
        assert manifest["obs_level"] == "full"
        schema = load_schema(
            Path(__file__).resolve().parents[1]
            / "docs" / "trace_event.schema.json"
        )
        assert validate(document, schema) == []

    def test_obs_disabled_after_run(self, tmp_path):
        from repro.obs import OBS

        main(
            ["simulate", "moldyn", "-o", str(tmp_path / "t.jsonl"),
             "--iterations", "2", "--trace-events",
             str(tmp_path / "tl.json")]
        )
        assert not OBS.enabled
        assert len(OBS) == 0

    def test_metrics_json_has_manifest_and_histograms(
        self, tmp_path, capsys
    ):
        import json

        metrics = tmp_path / "m.json"
        code = main(
            ["--metrics-json", str(metrics), "simulate", "moldyn",
             "-o", str(tmp_path / "t.jsonl"), "--iterations", "2"]
        )
        assert code == 0
        data = json.loads(metrics.read_text())
        assert data["manifest"]["command"] == "repro-trace simulate"
        # Always-on end-of-run folds record these without any obs level.
        assert data["histograms"]["sim.access.latency_ns"]["count"] > 0


class TestExplain:
    def test_summary_ranking(self, trace_file, capsys):
        assert main(["explain", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "mispredictions in" in out
        assert "Worst (module, block) pairs" in out
        assert "History patterns ranked by mispredictions" in out
        assert "--block" in out  # the hint line

    def test_block_forensics(self, trace_file, capsys):
        assert main(["explain", str(trace_file)]) == 0
        out = capsys.readouterr().out
        # Grab a block address from the ranking table and drill into it.
        import re

        match = re.search(r"0x[0-9a-f]+", out)
        assert match
        block = match.group(0)
        assert main(["explain", str(trace_file), "--block", block]) == 0
        out = capsys.readouterr().out
        assert f"forensics for block {block}" in out

    def test_unknown_block_is_reported(self, trace_file, capsys):
        assert (
            main(["explain", str(trace_file), "--block", "0xdeadbeef"]) == 0
        )
        assert "no module ever received" in capsys.readouterr().out

    def test_bad_block_address(self, trace_file, capsys):
        assert main(["explain", str(trace_file), "--block", "zap"]) == 1
        assert "bad block address" in capsys.readouterr().err

    def test_negative_top_is_a_usage_error(self, trace_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(trace_file), "--top", "-2"])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err


class TestInfo:
    def test_traffic_summary(self, trace_file, capsys):
        assert main(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "messages" in out
        assert "fan-out" in out


class TestDot:
    def test_stdout(self, trace_file, capsys):
        assert main(["dot", str(trace_file), "--role", "cache"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_to_file(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "graph.dot"
        assert (
            main(["dot", str(trace_file), "--role", "directory", "-o",
                  str(out_path)])
            == 0
        )
        assert out_path.read_text().startswith("digraph")


class TestCriticalPath:
    BASE = ["critical-path", "moldyn", "--quick", "--seed", "1"]

    @pytest.fixture(autouse=True)
    def spans_off_after(self):
        yield
        from repro.obs.spans import SPANS

        SPANS.disable()
        SPANS.set_clock(None)

    def test_reports_segments_and_attribution(self, capsys):
        assert main(self.BASE + ["--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "no-predictor baseline" in out
        assert "cosmos depth=2" in out
        assert "indirection" in out and "predicted-shortcut" in out
        assert "saved_ns" in out and "penalty_ns" in out
        assert "txn #" in out  # worst transaction's span tree

    def test_block_filter(self, capsys):
        assert main(self.BASE + ["--top", "1"]) == 0
        out = capsys.readouterr().out
        block = next(
            line.split("block=")[1].split()[0]
            for line in out.splitlines()
            if "block=" in line
        )
        assert main(self.BASE + ["--block", block, "--top", "0"]) == 0
        filtered = capsys.readouterr().out
        assert f"block {block}" in filtered

    def test_bad_block_address(self, capsys):
        assert main(self.BASE + ["--block", "zap"]) == 1
        assert "bad block address" in capsys.readouterr().err

    def test_negative_top_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE + ["--top", "-1"])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_unknown_block_is_an_error(self, capsys):
        assert main(self.BASE + ["--block", "0xdead0000"]) == 1
        assert "no transactions" in capsys.readouterr().err

    def test_trace_events_export_is_valid(self, tmp_path, capsys):
        import json
        from pathlib import Path

        from repro.obs.log import OBS
        from repro.obs.schema import load_schema, validate

        out_path = tmp_path / "spans.json"
        assert (
            main(self.BASE + ["--top", "0", "--trace-events", str(out_path)])
            == 0
        )
        assert not OBS.enabled  # capture turned back off
        document = json.loads(out_path.read_text())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"b", "e", "s", "f"} <= phases
        schema = load_schema(
            Path(__file__).resolve().parent.parent
            / "docs"
            / "trace_event.schema.json"
        )
        assert validate(document, schema) == []
