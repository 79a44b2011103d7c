"""Shared plumbing for the experiment drivers.

Simulating a workload is the expensive step; every experiment on the same
application replays the same trace.  :func:`get_trace` memoizes traces at
two levels:

* **in process** -- a dict keyed by (workload, iterations, seed, scale),
  so a full experiment suite simulates each application once, and
* **on disk** (opt in via :func:`configure_trace_cache`) -- a
  content-addressed :class:`~repro.trace.cache.TraceCache`, so repeated
  runs and the parallel runner's worker processes skip the simulator
  entirely and replay stored traces.

``scale`` shrinks both the data-structure sizes and the iteration count
proportionally, letting benchmarks exercise the full code path in a
fraction of the time of a paper-scale run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..protocol.stache import DEFAULT_OPTIONS
from ..sim.faults import FaultProfile
from ..sim.metrics import METRICS
from ..sim.params import PAPER_PARAMS
from ..trace.cache import TraceCache, trace_key
from ..trace.events import TraceEvent
from ..sim.machine import simulate
from ..workloads.base import Workload
from ..workloads.registry import make_workload

#: Paper-scale iteration counts per application (dsmc needs 320+ for
#: Table 8's last checkpoint).
DEFAULT_ITERATIONS: Dict[str, int] = {
    "appbt": 60,
    "barnes": 40,
    "dsmc": 400,
    "moldyn": 60,
    "unstructured": 40,
    # Synthetic pressure workload (not a Table 4 benchmark).
    "zipf": 20,
}

#: Constructor overrides that shrink each workload for quick runs.
_SCALE_KWARGS: Dict[str, Dict[str, int]] = {
    "appbt": {"face_blocks": 2, "false_share_blocks": 1},
    "barnes": {"n_objects": 48},
    "dsmc": {"buffers_per_proc": 1, "rare_blocks_per_proc": 6, "contended_buffers": 2},
    "moldyn": {"force_blocks": 16, "coord_blocks": 16},
    "unstructured": {"mesh_blocks": 24},
    "zipf": {"n_blocks": 64, "accesses_per_proc": 8},
}

_TRACE_CACHE: Dict[
    Tuple[str, int, int, bool, Optional[str], int], List[TraceEvent]
] = {}

#: The optional on-disk cache; ``None`` keeps memoization in-process only.
_DISK_CACHE: Optional[TraceCache] = None

#: Ambient fault-injection configuration (``--fault-profile``): every
#: simulation :func:`get_trace` runs uses it.  ``None`` = reliable
#: interconnect, the default and the golden-trace configuration.
_FAULTS: Optional[FaultProfile] = None
_FAULT_SEED: int = 0


def configure_trace_cache(
    cache: Optional[TraceCache],
) -> Optional[TraceCache]:
    """Install (or, with ``None``, remove) the on-disk trace cache.

    Returns the previously installed cache so callers can restore it.
    """
    global _DISK_CACHE
    previous = _DISK_CACHE
    _DISK_CACHE = cache
    return previous


def configure_faults(
    profile: Optional[object], fault_seed: int = 0
) -> Tuple[Optional[FaultProfile], int]:
    """Install the ambient fault profile for subsequent simulations.

    ``profile`` may be a :class:`~repro.sim.faults.FaultProfile`, a spec
    string (preset name or ``key=value,...``), or ``None`` to restore the
    reliable interconnect.  Returns the previous ``(profile, seed)`` pair
    so callers (tests, the runner) can restore it.
    """
    global _FAULTS, _FAULT_SEED
    previous = (_FAULTS, _FAULT_SEED)
    if isinstance(profile, str):
        profile = FaultProfile.parse(profile)
    if profile is not None and not profile.is_active:
        profile = None
    _FAULTS = profile
    _FAULT_SEED = fault_seed
    return previous


def current_faults() -> Tuple[Optional[FaultProfile], int]:
    """The ambient ``(fault profile, fault seed)`` pair."""
    return _FAULTS, _FAULT_SEED


def workload_for(name: str, quick: bool = False) -> Workload:
    """Build a paper-scale (or shrunken) workload instance."""
    kwargs = _SCALE_KWARGS[name] if quick else {}
    return make_workload(name, **kwargs)


def iterations_for(name: str, quick: bool = False) -> int:
    iterations = DEFAULT_ITERATIONS[name]
    return max(4, iterations // 4) if quick else iterations


def get_trace(
    name: str,
    iterations: Optional[int] = None,
    seed: int = 0,
    quick: bool = False,
) -> List[TraceEvent]:
    """Simulate (or fetch from cache) one application's message trace."""
    if iterations is None:
        iterations = iterations_for(name, quick)
    fault_spec = _FAULTS.spec() if _FAULTS is not None else None
    key = (name, iterations, seed, quick, fault_spec, _FAULT_SEED)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        METRICS.inc("trace.memo.hit")
        return trace
    with METRICS.timer("trace.acquire"):
        disk_key = None
        if _DISK_CACHE is not None:
            disk_key = trace_key(
                workload=name,
                iterations=iterations,
                seed=seed,
                params=PAPER_PARAMS,
                options=DEFAULT_OPTIONS,
                workload_kwargs=_SCALE_KWARGS[name] if quick else None,
                faults=fault_spec,
                fault_seed=_FAULT_SEED,
            )
            trace = _DISK_CACHE.load(disk_key)
        if trace is None:
            with METRICS.timer("trace.simulate"):
                collector = simulate(
                    workload_for(name, quick),
                    iterations=iterations,
                    seed=seed,
                    faults=_FAULTS,
                    fault_seed=_FAULT_SEED,
                )
                trace = collector.events
            METRICS.inc("trace.simulated")
            if _DISK_CACHE is not None and disk_key is not None:
                _DISK_CACHE.store(disk_key, collector.rows)
    _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests use this to bound memory)."""
    _TRACE_CACHE.clear()
