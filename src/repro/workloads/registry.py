"""Workload registry and the paper's benchmark table (Table 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import WorkloadError
from .appbt import AppBT
from .barnes import Barnes
from .base import Workload
from .dsmc import DSMC
from .moldyn import MolDyn
from .unstructured import Unstructured
from .zipf import Zipf

#: Factory for each benchmark; kwargs forward to the workload constructor.
_FACTORIES: Dict[str, Callable[..., Workload]] = {
    "appbt": AppBT,
    "barnes": Barnes,
    "dsmc": DSMC,
    "moldyn": MolDyn,
    "unstructured": Unstructured,
}

#: Synthetic workloads that are *not* part of the paper's Table 4 set:
#: registered for the CLIs and pressure studies, but deliberately kept
#: out of BENCHMARK_NAMES so every experiment defaulting to the paper's
#: benchmark list keeps producing byte-identical tables.
_SYNTHETIC_FACTORIES: Dict[str, Callable[..., Workload]] = {
    "zipf": Zipf,
}

#: Benchmark names in the paper's presentation order.
BENCHMARK_NAMES: List[str] = sorted(_FACTORIES)

#: Every instantiable workload: the paper's benchmarks plus synthetics.
WORKLOAD_NAMES: List[str] = sorted({**_FACTORIES, **_SYNTHETIC_FACTORIES})


@dataclass(frozen=True)
class BenchmarkInfo:
    """One row of the paper's Table 4."""

    name: str
    origin: str
    description: str


#: Provenance notes from the paper's Table 4 caption.
BENCHMARKS: Dict[str, BenchmarkInfo] = {
    "appbt": BenchmarkInfo(
        "appbt",
        "NASA Ames / University of Wisconsin",
        "parallel 3D computational fluid dynamics (NAS suite)",
    ),
    "barnes": BenchmarkInfo(
        "barnes",
        "Stanford SPLASH-2",
        "Barnes-Hut hierarchical N-body simulation",
    ),
    "dsmc": BenchmarkInfo(
        "dsmc",
        "Universities of Maryland and Wisconsin",
        "discrete-simulation Monte Carlo gas dynamics",
    ),
    "moldyn": BenchmarkInfo(
        "moldyn",
        "Universities of Maryland and Wisconsin",
        "molecular dynamics (CHARMM-style non-bonded forces)",
    ),
    "unstructured": BenchmarkInfo(
        "unstructured",
        "Universities of Maryland and Wisconsin",
        "computational fluid dynamics over a static unstructured mesh",
    ),
}


def make_workload(name: str, n_procs: int = 16, **kwargs) -> Workload:
    """Instantiate a benchmark or synthetic workload by name."""
    factory = _FACTORIES.get(name) or _SYNTHETIC_FACTORIES.get(name)
    if factory is None:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {', '.join(WORKLOAD_NAMES)}"
        )
    return factory(n_procs=n_procs, **kwargs)


def all_workloads() -> Dict[str, Workload]:
    """Instantiate every benchmark with default parameters."""
    return {name: make_workload(name) for name in BENCHMARK_NAMES}


def format_table4() -> str:
    """Render Table 4 (benchmark provenance) as text."""
    lines = ["%-13s %-42s %s" % ("Benchmark", "Origin", "Description")]
    lines.append("-" * 110)
    for name in BENCHMARK_NAMES:
        info = BENCHMARKS[name]
        lines.append(
            "%-13s %-42s %s" % (info.name, info.origin, info.description)
        )
    return "\n".join(lines)
