"""Synthetic models of the paper's five scientific applications."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".access": ("Access", "Phase", "read", "read_modify_write", "write"),
        ".appbt": ("AppBT",),
        ".barnes": ("Barnes",),
        ".base": ("Workload",),
        ".dsmc": ("DSMC",),
        ".moldyn": ("MolDyn",),
        ".registry": (
            "BENCHMARK_NAMES",
            "BENCHMARKS",
            "WORKLOAD_NAMES",
            "BenchmarkInfo",
            "all_workloads",
            "format_table4",
            "make_workload",
        ),
        ".unstructured": ("Unstructured",),
        ".zipf": ("Zipf", "ZipfSampler", "zipf_trace"),
    },
)
