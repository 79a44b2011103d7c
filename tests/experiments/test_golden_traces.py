"""Golden-trace regression suite.

Two guarantees are pinned here:

1. **Simulator stability** -- each workload's quick-scale trace matches
   the checked-in golden file bit-for-bit (`tests/data/`).  The
   simulator promises `(workload, iterations, seed, params, options)`
   fully determines the trace; these tests catch any accidental change
   to the timing model, the protocol FSMs, or the workload generators.
2. **Runner equivalence** -- the parallel runner (`--jobs N`) emits
   experiment text identical to the sequential path, so sharding can
   never change a reported number.
"""

import gzip
from pathlib import Path

import pytest

from repro.experiments.common import clear_trace_cache, get_trace
from repro.experiments.runner import report_text, run_experiments
from repro.trace.io import load_trace, save_trace
from repro.workloads.registry import BENCHMARK_NAMES

DATA_DIR = Path(__file__).parent.parent / "data"


def golden_path(app: str) -> Path:
    return DATA_DIR / f"{app}_quick_seed0.jsonl.gz"


class TestGoldenTraces:
    @pytest.mark.parametrize("app", BENCHMARK_NAMES)
    def test_simulator_reproduces_golden_trace_bit_for_bit(
        self, app, tmp_path
    ):
        events = get_trace(app, quick=True, seed=0)
        fresh = tmp_path / f"{app}.jsonl"
        save_trace(events, fresh)
        golden = gzip.decompress(golden_path(app).read_bytes())
        assert fresh.read_bytes() == golden, (
            f"{app}: simulated trace diverged from tests/data/ golden file; "
            "if the simulator intentionally changed, regenerate via "
            "tests/data/regenerate.py and bump trace.cache.FORMAT_VERSION"
        )

    @pytest.mark.parametrize("app", BENCHMARK_NAMES)
    def test_golden_file_round_trips_through_io(self, app, tmp_path):
        raw = tmp_path / f"{app}.jsonl"
        raw.write_bytes(gzip.decompress(golden_path(app).read_bytes()))
        events = load_trace(raw)
        assert events == get_trace(app, quick=True, seed=0)

    def test_all_five_workloads_have_golden_files(self):
        assert sorted(p.name for p in DATA_DIR.glob("*.jsonl.gz")) == sorted(
            f"{app}_quick_seed0.jsonl.gz" for app in BENCHMARK_NAMES
        )


class TestParallelSequentialEquivalence:
    """`--jobs 4` and `--jobs 1` must emit identical experiment text."""

    NAMES = ["table5", "figures6-7"]

    @pytest.fixture(scope="class")
    def both_runs(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("trace-cache"))
        sequential, _ = run_experiments(
            self.NAMES, quick=True, seed=0, jobs=1, cache_dir=None
        )
        parallel, stats = run_experiments(
            self.NAMES, quick=True, seed=0, jobs=4, cache_dir=cache_dir
        )
        return sequential, parallel, stats

    def test_section_names_and_order_match(self, both_runs):
        sequential, parallel, _ = both_runs
        assert [s[0] for s in parallel] == [s[0] for s in sequential]

    def test_experiment_text_is_byte_identical(self, both_runs):
        sequential, parallel, _ = both_runs
        for (name, seq_text, _), (_, par_text, _) in zip(
            sequential, parallel
        ):
            assert par_text == seq_text, f"{name} text differs across runners"
        assert report_text(parallel) == report_text(sequential)

    def test_parallel_run_used_worker_shards(self, both_runs):
        _, _, stats = both_runs
        kinds = {entry["kind"] for entry in stats}
        assert kinds == {"trace", "experiment"}
        # Trace warming covered all five applications exactly once.
        traced = [e["name"] for e in stats if e["kind"] == "trace"]
        assert sorted(traced) == sorted(BENCHMARK_NAMES)


@pytest.fixture(autouse=True)
def _bound_memory():
    yield
    clear_trace_cache()
