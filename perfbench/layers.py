"""Per-layer self time from a deterministic profile of a benchmark run.

A traced run records every Python call with :mod:`cProfile`.  Each
function is assigned to a layer by the module that defines it
(:data:`LAYERS`); a layer's self time is the time spent in its own
functions, excluding the layers they call.  Functions outside the
repository's layers -- builtins and the standard library, such as
``heapq.heappush`` under the engine or ``json.dumps`` under the service
client -- are charged to the layers that called them, split by the time
each caller spent in them, so work a layer delegates to the runtime
stays that layer's work.

Two standard-library pieces are layers of their own, because the
service is built on them: the asyncio event loop, and the ``epoll``
wait in which the loop thread sits while a request is with a shard
worker process (worker processes and the supervisor's pipe threads are
not profiled; their time shows up as that wait).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Tuple

#: Module prefix -> layer, most specific first.  ``None`` marks shared
#: helpers (wire codecs, tuple packing) whose time belongs to the caller.
LAYERS: Tuple[Tuple[str, "str | None"], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.faults", "sim.network"),
    ("repro.sim.metrics", "obs"),
    ("repro.sim", "sim.machine"),
    ("repro.workloads", "sim.workload"),
    ("repro.protocol.messages", "sim.messages"),
    ("repro.protocol.cache_ctrl", "proto.cache"),
    ("repro.protocol", "proto.directory"),
    ("repro.trace", "trace.collector"),
    ("repro.core.tuples", None),
    ("repro.core.evaluation", "replay.loop"),
    ("repro.core.eviction", "replay.eviction"),
    ("repro.core", "replay.kernel"),
    ("repro.serve.protocol", None),
    ("repro.serve.client", "serve.client"),
    ("repro.serve.loadgen", "serve.client"),
    ("repro.serve.supervisor", "serve.supervisor"),
    ("repro.serve", "serve.frontend"),
    ("repro.obs", "obs"),
    ("repro", "other"),
    ("asyncio", "serve.event_loop"),
    ("selectors", "serve.event_loop"),
)

#: The builtin the asyncio loop blocks in while waiting for sockets.
_WAIT = "<method 'poll' of 'select.epoll' objects>"

#: Every layer a fold reports, in a fixed order.
LAYER_NAMES = (
    "sim.engine",
    "sim.network",
    "sim.machine",
    "sim.messages",
    "sim.workload",
    "proto.cache",
    "proto.directory",
    "trace.collector",
    "replay.loop",
    "replay.kernel",
    "replay.eviction",
    "serve.client",
    "serve.frontend",
    "serve.supervisor",
    "serve.event_loop",
    "serve.wait",
    "obs",
    "other",
)

#: Layers made of repository code, whose call counts are reported.
CALL_LAYERS = tuple(
    name for name in LAYER_NAMES
    if name not in ("serve.event_loop", "serve.wait", "other")
)

_INHERIT = object()

_BENCH = os.path.dirname(os.path.abspath(__file__)) + os.sep


class LayerTrace:
    """A cProfile profile that can be switched on around each operation."""

    def __init__(self, src_root: str) -> None:
        self._src = os.path.abspath(src_root) + os.sep
        self._profile = cProfile.Profile()
        self._modules: Dict[str, object] = {}

    def __enter__(self) -> "LayerTrace":
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()

    def _module_layer(self, filename: str) -> object:
        """The layer of a source file, or ``_INHERIT``."""
        found = self._modules.get(filename)
        if found is not None:
            return found
        module = None
        if filename.startswith(self._src):
            module = filename[len(self._src):-len(".py")].replace(os.sep, ".")
        elif os.sep + "asyncio" + os.sep in filename:
            module = "asyncio"
        elif filename.endswith(os.sep + "selectors.py"):
            module = "selectors"
        # The benchmark's own loop is "other"; the rest of the standard
        # library is charged to its callers.
        found = "other" if filename.startswith(_BENCH) else _INHERIT
        if module is not None:
            for prefix, layer in LAYERS:
                if module == prefix or module.startswith(prefix + "."):
                    found = _INHERIT if layer is None else layer
                    break
        self._modules[filename] = found
        return found

    def fold(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds, calls)`` per layer over everything traced."""
        stats = pstats.Stats(self._profile).stats
        shares: Dict[tuple, Dict[str, float]] = {}

        def layer_of(func) -> object:
            filename, _line, name = func
            if filename == "~":
                return "serve.wait" if name == _WAIT else _INHERIT
            return self._module_layer(filename)

        def share(func, active) -> Dict[str, float]:
            """How ``func``'s self time splits over layers."""
            layer = layer_of(func)
            if layer is not _INHERIT:
                return {layer: 1.0}
            if func in shares:
                return shares[func]
            callers = {
                caller: edge
                for caller, edge in stats[func][4].items()
                if caller != func and caller not in active
            }
            if not callers:
                # The root of the traced region: the benchmark itself.
                return {"other": 1.0}
            # pstats edges are (calls, primitive calls, self, cumulative).
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0.0:
                weights = {caller: edge[0] for caller, edge in callers.items()}
                total = sum(weights.values())
            mixed: Dict[str, float] = {}
            active = active | {func}
            for caller, weight in weights.items():
                for layer, part in share(caller, active).items():
                    mixed[layer] = mixed.get(layer, 0.0) + part * weight / total
            shares[func] = mixed
            return mixed

        seconds = {name: 0.0 for name in LAYER_NAMES}
        calls = {name: 0 for name in CALL_LAYERS}
        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            layer = layer_of(func)
            if layer in calls:
                calls[layer] += nc
            for name, part in share(func, frozenset()).items():
                seconds[name] += tt * part
        return seconds, calls
