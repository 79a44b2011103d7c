"""Crash-and-resume chaos tests for journaled experiment runs.

The acceptance bar from the robustness issue: ``kill -9`` a run
mid-sweep, then ``repro-experiments --resume`` must re-execute only the
missing shards and produce **byte-identical** report output to an
uninterrupted run.  These tests do exactly that -- a real subprocess, a
real SIGKILL/SIGTERM, and a byte comparison of ``report.txt``.

Runs share one on-disk trace cache so the resumed run and the reference
run replay the same simulations instead of each paying for them; the
cache is safe to share because trace files are content-addressed and
written atomically.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import main
from repro.parallel.journal import JOURNAL_FILE, PLAN_FILE

#: Cheap-but-real experiment mix: two instant sections plus one that
#: plans six trace shards, so there is always work in flight to kill.
NAMES = ["tables1-3-4", "figure5", "table5"]

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(run_dir, cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.runner",
            *NAMES,
            "--quick",
            "--run-dir",
            str(run_dir),
            "--trace-cache",
            str(cache_dir),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so a kill can reach the spawn pool's
        # workers and resource tracker too.
        start_new_session=True,
    )


def _wait_for_records(run_dir, minimum, process, timeout_s=120.0):
    """Block until the journal holds ``minimum`` complete records."""
    journal = Path(run_dir) / JOURNAL_FILE
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            pytest.fail(
                f"run finished (rc={process.returncode}) before reaching "
                f"{minimum} journal records -- nothing left to interrupt:\n"
                f"{process.stderr.read()}"
            )
        try:
            lines = journal.read_text().splitlines()
        except FileNotFoundError:
            lines = []
        complete = [line for line in lines if line.endswith("}")]
        if len(complete) >= minimum:
            return len(complete)
        time.sleep(0.05)
    pytest.fail(f"journal never reached {minimum} records in {timeout_s}s")


def _reference_report(tmp_path, cache_dir):
    """An uninterrupted journaled run of the same plan, for comparison."""
    ref_dir = tmp_path / "reference"
    rc = main(
        [
            *NAMES,
            "--quick",
            "--run-dir",
            str(ref_dir),
            "--trace-cache",
            str(cache_dir),
        ]
    )
    assert rc == 0
    return (ref_dir / "report.txt").read_bytes()


class TestKillMinusNine:
    def test_resume_after_sigkill_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "run"
        process = _spawn(run_dir, cache_dir)
        try:
            recorded = _wait_for_records(run_dir, 2, process)
            # SIGKILL: no handlers, no cleanup, no flush.  Killing the
            # whole group leaves no orphaned pool worker holding the
            # test's output pipe open.
            os.killpg(process.pid, signal.SIGKILL)
        finally:
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL
        assert not (run_dir / "report.txt").exists()

        # The journal survived the kill with every acknowledged shard.
        plan = json.loads((run_dir / PLAN_FILE).read_text())
        assert plan["meta"]["names"] == NAMES
        lines = (run_dir / JOURNAL_FILE).read_text().splitlines()
        assert len([line for line in lines if line.endswith("}")]) >= recorded

        rc = main(["--resume", str(run_dir)])
        assert rc == 0
        resumed = (run_dir / "report.txt").read_bytes()
        assert resumed == _reference_report(tmp_path, cache_dir)

    def test_resume_skips_journaled_shards(self, tmp_path, capsys):
        """Resuming a *completed* run re-executes nothing."""
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "run"
        rc = main(
            [
                *NAMES,
                "--quick",
                "--run-dir",
                str(run_dir),
                "--trace-cache",
                str(cache_dir),
            ]
        )
        assert rc == 0
        report = (run_dir / "report.txt").read_bytes()
        journal_before = (run_dir / JOURNAL_FILE).read_text()
        capsys.readouterr()

        start = time.perf_counter()
        rc = main(["--resume", str(run_dir)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        # Every spliced section is still printed, once, in plan order.
        printed = [
            line[1:].split(" regenerated in ")[0]
            for line in capsys.readouterr().out.splitlines()
            if " regenerated in " in line
        ]
        assert printed == NAMES
        # Nothing re-ran: no new journal records, same report bytes, and
        # the whole "run" is splicing.
        assert (run_dir / JOURNAL_FILE).read_text() == journal_before
        assert (run_dir / "report.txt").read_bytes() == report
        assert elapsed < 30


class TestSigterm:
    def test_sigterm_exits_130_with_resume_hint(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "run"
        process = _spawn(run_dir, cache_dir)
        try:
            _wait_for_records(run_dir, 1, process)
            process.send_signal(signal.SIGTERM)
            stderr = process.stderr.read()
        finally:
            process.wait(timeout=60)
        assert process.returncode == 130
        assert "resume with" in stderr
        assert str(run_dir) in stderr

        rc = main(["--resume", str(run_dir)])
        assert rc == 0
        resumed = (run_dir / "report.txt").read_bytes()
        assert resumed == _reference_report(tmp_path, cache_dir)


class TestGuards:
    def test_resume_of_nothing_fails_cleanly(self, tmp_path, capsys):
        rc = main(["--resume", str(tmp_path / "nope")])
        assert rc == 2
        assert "no run journal" in capsys.readouterr().err

    def test_run_dir_refuses_an_existing_plan(self, tmp_path, capsys):
        (tmp_path / PLAN_FILE).write_text("{}")
        rc = main(["figure5", "--quick", "--run-dir", str(tmp_path)])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_run_dir_and_resume_are_exclusive(self, tmp_path, capsys):
        rc = main(
            ["figure5", "--run-dir", str(tmp_path), "--resume", str(tmp_path)]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_resume_takes_no_experiment_names(self, tmp_path, capsys):
        rc = main(["figure5", "--resume", str(tmp_path)])
        assert rc == 2
        assert "journaled plan" in capsys.readouterr().err

    def test_trace_events_refuses_the_journaled_path(self, tmp_path, capsys):
        """A resumed run splices journaled shards that never ran here,
        so their events would be missing from the timeline."""
        rc = main(
            [
                "--resume",
                str(tmp_path / "run"),
                "--trace-events",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "--trace-events" in capsys.readouterr().err
