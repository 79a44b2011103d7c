"""Guards: on-disk trace cache speedup and the metrics-JSON shape.

Runs the experiment runner twice in fresh subprocesses against the same
cache directory: the cold run simulates every workload and populates the
cache; the warm run replays traces from disk and must acquire them at
least 3x faster (measured by the ``trace.acquire`` timer in the
``--metrics-json`` output -- simulation plus cache store on the cold
side, cache load on the warm side).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A predictor sweep in the paper's sense: signature extraction plus the
#: depth sweep, both replaying the same five traces.
SWEEP = ["figures6-7", "table5", "--quick"]


def _run_sweep(cache_dir: Path, metrics_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.runner",
            *SWEEP,
            "--trace-cache",
            str(cache_dir),
            "--metrics-json",
            str(metrics_path),
        ],
        check=True,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    with open(metrics_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_warm_cache_sweep_speedup(tmp_path):
    cache_dir = tmp_path / "trace-cache"
    cold = _run_sweep(cache_dir, tmp_path / "cold.json")
    warm = _run_sweep(cache_dir, tmp_path / "warm.json")

    assert cold["counters"]["trace.simulated"] == 5
    assert cold["counters"]["trace.cache.stored"] == 5
    assert warm["counters"]["trace.cache.hit"] == 5
    assert "trace.simulated" not in warm["counters"]  # no simulator at all

    cold_acquire = cold["timers"]["trace.acquire"]["seconds"]
    warm_acquire = warm["timers"]["trace.acquire"]["seconds"]
    ratio = cold_acquire / warm_acquire
    print(
        f"\ntrace acquisition: cold {cold_acquire:.3f}s "
        f"(simulate + store), warm {warm_acquire:.3f}s (cache load) "
        f"-> {ratio:.1f}x"
    )
    assert ratio >= 3.0, (
        f"warm-cache trace acquisition only {ratio:.2f}x faster "
        f"(cold {cold_acquire:.3f}s, warm {warm_acquire:.3f}s)"
    )


def test_metrics_json_shape(tmp_path):
    metrics = _run_sweep(tmp_path / "cache", tmp_path / "m.json")
    assert {"counters", "timers", "shards", "wall_seconds", "jobs"} <= set(
        metrics
    )
    assert metrics["jobs"] == 1
    assert all(
        {"kind", "name", "seconds", "events_per_second"} <= set(shard)
        for shard in metrics["shards"]
    )
