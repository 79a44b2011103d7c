"""Tests for the package-level public API."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Every package whose ``__init__`` exports its ``__all__`` lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.accel",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.explore",
    "repro.mc",
    "repro.obs",
    "repro.parallel",
    "repro.predictors",
    "repro.protocol",
    "repro.serve",
    "repro.sim",
    "repro.trace",
    "repro.workloads",
)


def _modules_loaded_by(statement):
    """The modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys\n{statement}\nprint('\\n'.join(sys.modules))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    return set(result.stdout.split())


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        star = {}
        exec(f"from {package} import *", star)
        for name in module.__all__:
            assert hasattr(module, name), name
            assert name in listing, name
            assert star[name] is getattr(module, name), name
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            module.no_such_name

    def test_quickstart_flow(self):
        """The README's four-line quickstart works verbatim."""
        trace = repro.simulate(
            repro.make_workload("moldyn", force_blocks=8, coord_blocks=8,
                                cold_blocks=0),
            iterations=6,
            seed=1,
        )
        result = repro.evaluate_trace(
            trace.events, repro.CosmosConfig(depth=2)
        )
        assert 0.0 < result.overall_accuracy <= 1.0

    def test_errors_form_hierarchy(self):
        for exc in (
            repro.ConfigError,
            repro.ProtocolError,
            repro.SimulationError,
            repro.TraceError,
            repro.WorkloadError,
        ):
            assert issubclass(exc, repro.ReproError)
        assert issubclass(repro.ReproError, Exception)

    def test_save_load_roundtrip(self, tmp_path):
        trace = repro.simulate(
            repro.make_workload("moldyn", force_blocks=4, coord_blocks=4,
                                cold_blocks=0),
            iterations=3,
        )
        path = tmp_path / "t.jsonl"
        repro.save_trace(trace.events, path)
        assert repro.load_trace(path) == list(trace.events)


class TestImportGraph:
    """A module loads what it uses, not its packages' other modules.

    Each case runs in a fresh interpreter: this one has imported
    everything already.
    """

    def test_serve_worker_loads_no_event_loop_or_simulator(self):
        loaded = _modules_loaded_by("import repro.serve.worker")
        assert "repro.serve.worker" in loaded
        for module in (
            "asyncio",
            "repro.serve.frontend",
            "repro.sim.machine",
            "repro.protocol.cache_ctrl",
            "repro.workloads",
        ):
            assert module not in loaded, module

    def test_trace_replay_loads_no_simulator_or_cache(self):
        loaded = _modules_loaded_by(
            "import repro.core.evaluation, repro.trace.io"
        )
        assert {"repro.core.evaluation", "repro.trace.io"} <= loaded
        for module in (
            "repro.sim.machine",
            "repro.workloads",
            "repro.trace.cache",
        ):
            assert module not in loaded, module
