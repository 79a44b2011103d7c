"""Regenerate the golden data files (see README.md).

Usage::

    PYTHONPATH=src python tests/data/regenerate.py \
        [traces] [eval] [corruption] [bank] [variants]

With no arguments every golden file is rewritten.
"""

import gzip
import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from repro.experiments.common import get_trace
from repro.trace.io import load_trace, save_trace
from repro.workloads.registry import BENCHMARK_NAMES

DATA_DIR = Path(__file__).parent

#: The armed replay pinned by ``corruption_goldens.json``.
CORRUPTION_APP = "moldyn"
CORRUPTION_RATES = {"flip": 0.05, "loss": 0.01}


def regenerate_traces() -> None:
    for app in BENCHMARK_NAMES:
        events = get_trace(app, quick=True, seed=0)
        with tempfile.NamedTemporaryFile(suffix=".jsonl") as tmp:
            count = save_trace(events, tmp.name)
            data = Path(tmp.name).read_bytes()
        out = DATA_DIR / f"{app}_quick_seed0.jsonl.gz"
        # mtime=0 keeps the gzip bytes themselves reproducible.
        with open(out, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                gz.write(data)
        print(f"{out.name}: {count} events")


def _plain(value):
    """``value`` as it reads back from JSON (tuples -> lists, str keys)."""
    return json.loads(json.dumps(value))


def _golden_events(app: str):
    """The committed golden trace of ``app``, loaded back."""
    raw = gzip.decompress(
        (DATA_DIR / f"{app}_quick_seed0.jsonl.gz").read_bytes()
    )
    with tempfile.NamedTemporaryFile(suffix=".jsonl") as tmp:
        Path(tmp.name).write_bytes(raw)
        return load_trace(tmp.name)


#: The configs ``eval_goldens.json`` pins per golden trace.
EVAL_DEPTHS = (1, 2, 3)
EVAL_FILTERS = (0, 1)
EVAL_CHECKPOINTS = (2, 4)


def _eval_entry(events, config) -> dict:
    """One trace replayed through ``CosmosPredictor.observe``.

    An explicit predictor factory sends every event through the
    predictor's own method instead of the replay loop's inlined kernel,
    so the golden stays independent of the kernel copy it checks.
    """
    from repro.core.evaluation import evaluate_trace
    from repro.core.predictor import CosmosPredictor
    from repro.protocol.messages import Role

    result = evaluate_trace(
        events,
        predictor_factory=lambda: CosmosPredictor(config),
        checkpoint_iterations=EVAL_CHECKPOINTS,
        track_arcs=True,
    )
    tallies = result.arcs.tallies.values()
    return {
        "events": len(events),
        "overall": [result.overall.hits, result.overall.refs],
        "cache": [
            result.by_role[Role.CACHE].hits,
            result.by_role[Role.CACHE].refs,
        ],
        "directory": [
            result.by_role[Role.DIRECTORY].hits,
            result.by_role[Role.DIRECTORY].refs,
        ],
        "arcs_refs": sum(tally.refs for tally in tallies),
        "arcs_hits": sum(tally.hits for tally in tallies),
        "n_arcs": len(result.arcs.tallies),
        "checkpoints": [
            [c.iteration, c.overall.hits, c.overall.refs, len(c.arcs)]
            for c in result.checkpoints
        ],
        "mhr_entries": result.overhead.mhr_entries,
        "pht_entries": result.overhead.pht_entries,
    }


def eval_goldens() -> dict:
    """Evaluation totals of every golden trace at each pinned config."""
    from repro.core.config import CosmosConfig

    goldens = {}
    for app in BENCHMARK_NAMES:
        events = _golden_events(app)
        for depth in EVAL_DEPTHS:
            for fmax in EVAL_FILTERS:
                config = CosmosConfig(depth=depth, filter_max_count=fmax)
                goldens[f"{app}/d{depth}/f{fmax}"] = _eval_entry(
                    events, config
                )
    return goldens


def regenerate_eval() -> None:
    out = DATA_DIR / "eval_goldens.json"
    out.write_text(
        json.dumps(eval_goldens(), indent=1, sort_keys=True)
    )
    print(f"{out.name}: written")


def readable_state(predictor) -> dict:
    """An unbounded predictor's state in the readable tuple form.

    Histories, patterns and predictions as ``<sender, type>`` tuples in
    table order, an armed predictor's parity bits (history bits oldest
    tuple first) and injector RNG, and the statistics counters -- the
    form the ``state_sha256`` digests of ``corruption_goldens.json``
    hash.
    """
    from repro.core.tuples import TUPLE_BITS, tuple_of_word, unpack_pattern

    parity = predictor._parity
    mht = []
    for block, word in predictor._mht.items():
        record = {"block": block, "history": unpack_pattern(word)}
        if parity is not None:
            bits = parity.mhr[block]
            slots = (word.bit_length() - 1) // TUPLE_BITS
            record["parity"] = tuple(
                (bits >> slot) & 1 for slot in reversed(range(slots))
            )
        mht.append(record)
    phts = {}
    for block, table in predictor._phts.items():
        entries = []
        for pattern, (prediction, counter) in table.items():
            item = {
                "pattern": unpack_pattern(pattern),
                "prediction": tuple_of_word(prediction),
                "counter": counter,
            }
            if parity is not None:
                item["parity"] = parity.pht[block][pattern]
            entries.append(item)
        phts[block] = entries
    state = {
        "mht": mht,
        "phts": phts,
        "stats": {
            name: getattr(predictor, name)
            for name in predictor._STAT_FIELDS
        },
    }
    injector = predictor._corruption
    if injector is not None:
        state["corruption"] = {
            "rng": injector._rng.getstate(),
            "injected_flips": injector.injected_flips,
            "injected_losses": injector.injected_losses,
        }
    return state


def _module_states(armed: bool) -> dict:
    """Each module's state after replaying the golden trace.

    A full :func:`readable_state` runs to hundreds of kilobytes, so each
    module keeps its readable statistics plus a digest of the whole
    canonical state (tables, parity bits, injector RNG).
    """
    from repro.core.config import CosmosConfig
    from repro.core.corruption import CorruptionInjector, CorruptionProfile
    from repro.core.predictor import CosmosPredictor
    from repro.protocol.messages import Role

    config = CosmosConfig(depth=2)
    profile = CorruptionProfile(**CORRUPTION_RATES)
    predictors = {}
    for event in _golden_events(CORRUPTION_APP):
        key = (event.node, event.role)
        predictor = predictors.get(key)
        if predictor is None:
            # Each module's error stream is seeded by its identity, so
            # it does not depend on which module the trace touches first.
            injector = None
            if armed:
                role_bit = 0 if event.role is Role.CACHE else 1
                injector = CorruptionInjector(
                    profile, event.node * 16 + role_bit
                )
            predictor = CosmosPredictor(config, corruption=injector)
            predictors[key] = predictor
        predictor.observe(event.block, event.tuple)
    modules = {}
    for (node, role), predictor in predictors.items():
        state = _plain(readable_state(predictor))
        canonical = json.dumps(state, sort_keys=True).encode()
        modules[f"{node}/{role.value}"] = {
            "stats": state["stats"],
            "mhr_entries": len(state["mht"]),
            "pht_entries": sum(len(t) for t in state["phts"].values()),
            "state_sha256": hashlib.sha256(canonical).hexdigest(),
        }
    return modules


def corruption_goldens() -> dict:
    """Corruption-study rows, hardware points and predictor snapshots."""
    from repro.experiments.corruption import run_corruption_study
    from repro.experiments.hardware import run_hardware

    study = run_corruption_study(quick=True, seed=0)
    hardware = run_hardware(quick=True, seed=0)
    return _plain(
        {
            "corruption_study": [asdict(row) for row in study.rows],
            "hardware": {
                "capacity_points": [
                    asdict(point) for point in hardware.capacity_points
                ],
                "confidence_points": [
                    asdict(point) for point in hardware.confidence_points
                ],
            },
            "snapshots": {
                "app": CORRUPTION_APP,
                "rates": CORRUPTION_RATES,
                "armed": _module_states(armed=True),
                "unarmed": _module_states(armed=False),
            },
        }
    )


def regenerate_corruption() -> None:
    out = DATA_DIR / "corruption_goldens.json"
    out.write_text(json.dumps(corruption_goldens(), indent=1) + "\n")
    print(f"{out.name}: written")


@contextmanager
def _isolated_metrics():
    """Run a block against empty process-wide metrics, then restore them."""
    from repro.sim.metrics import METRICS

    saved = METRICS.snapshot()
    METRICS.reset()
    try:
        yield
    finally:
        METRICS.reset()
        METRICS.merge(saved)


def _forensics(app: str) -> dict:
    """``explain_trace`` totals, pattern counts and its PHT-size fold."""
    from repro.obs.forensics import explain_trace, format_pattern
    from repro.sim.metrics import METRICS

    with _isolated_metrics():
        report = explain_trace(_golden_events(app))
        histogram = METRICS.histogram("pred.pht.block_entries").snapshot()

    def patterns(counter) -> list:
        return sorted(
            [role.value, format_pattern(pattern), count]
            for (role, pattern), count in counter.items()
        )

    return {
        "app": app,
        "total_refs": report.total_refs,
        "total_mispredicts": report.total_mispredicts,
        "pattern_mispredicts": patterns(report.pattern_mispredicts),
        "pattern_refs": patterns(report.pattern_refs),
        "pht_block_entries": histogram,
    }


#: The golden trace and depth at which the PHT-size histogram is pinned.
PHT_HISTOGRAM_APP = "moldyn"
PHT_HISTOGRAM_DEPTH = 1


def bank_goldens() -> dict:
    """Critical-path rows, replacement points, forensics totals, Figure 8
    scores and the PHT-size histogram."""
    from repro.analysis.overhead import pht_size_histogram
    from repro.core.config import CosmosConfig
    from repro.experiments.critical_path import run_critical_path
    from repro.experiments.figure8 import run_figure8
    from repro.experiments.replacement import run_replacement_study

    critical = run_critical_path(apps=["moldyn"], quick=True, seed=0)
    replacement = run_replacement_study()
    figure8 = run_figure8(quick=True, seed=0)
    histogram = pht_size_histogram(
        _golden_events(PHT_HISTOGRAM_APP),
        CosmosConfig(depth=PHT_HISTOGRAM_DEPTH),
    )
    return _plain(
        {
            "critical_path": {
                app: {
                    predictor: asdict(summary)
                    for predictor, summary in rows.items()
                }
                for app, rows in critical.summaries.items()
            },
            "replacement": [asdict(point) for point in replacement.points],
            "forensics": _forensics("moldyn"),
            "figure8": {
                trace: [asdict(score) for score in scores]
                for trace, scores in figure8.scores.items()
            },
            "pht_histogram": {
                "app": PHT_HISTOGRAM_APP,
                "depth": PHT_HISTOGRAM_DEPTH,
                "histogram": {
                    str(size): histogram[size] for size in sorted(histogram)
                },
            },
        }
    )


def regenerate_bank() -> None:
    out = DATA_DIR / "bank_goldens.json"
    out.write_text(json.dumps(bank_goldens(), indent=1) + "\n")
    print(f"{out.name}: written")


#: The two configs every Cosmos-family predictor is pinned at.
VARIANT_CONFIGS = {
    "d1": {"depth": 1},
    "d2f1": {"depth": 2, "filter_max_count": 1},
}

#: Extra counters pinned per predictor beside the common totals.
VARIANT_EXTRAS = {
    "cosmos": (),
    "type-only": ("type_hits", "type_predictions"),
    "global-history": (),
    "set2": ("set_hits", "set_predictions"),
    "hybrid": ("shallow_selected", "deep_selected"),
}


def _variant_factories(config):
    from repro.core.predictor import CosmosPredictor
    from repro.predictors import GlobalHistoryCosmos, SetCosmos, TypeOnlyCosmos

    return {
        "cosmos": lambda: CosmosPredictor(config),
        "type-only": lambda: TypeOnlyCosmos(config),
        "global-history": lambda: GlobalHistoryCosmos(config),
        "set2": lambda: SetCosmos(config, set_size=2),
    }


def _bank_totals(events, name: str, factory) -> dict:
    """Counters summed over one predictor per (node, role) module."""
    from repro.core.bank import PredictorBank

    bank = PredictorBank(factory=factory)
    for event in events:
        bank.observe(event)
    fields = ("hits", "predictions", "no_prediction", "pht_entries")
    fields += VARIANT_EXTRAS[name]
    return {
        field: sum(getattr(predictor, field) for _key, predictor in bank)
        for field in fields
    }


def _variant_app(app: str) -> dict:
    from repro.analysis.bounds import optimal_table_accuracy
    from repro.core.config import CosmosConfig
    from repro.predictors import HybridCosmos

    events = _golden_events(app)
    totals = {}
    for label, fields in VARIANT_CONFIGS.items():
        factories = _variant_factories(CosmosConfig(**fields))
        totals[label] = {
            name: _bank_totals(events, name, factory)
            for name, factory in factories.items()
        }
    return {
        "totals": totals,
        "hybrid": _bank_totals(events, "hybrid", HybridCosmos),
        "bounds": {
            str(depth): optimal_table_accuracy(events, depth)
            for depth in (1, 2, 3)
        },
    }


#: The filtered config at which the forensics counter capture is pinned.
FORENSICS_FILTERED = {"depth": 2, "filter_max_count": 2}


def _filtered_forensics(app: str) -> dict:
    """``explain_trace`` totals, captured counters and top patterns."""
    from repro.core.config import CosmosConfig
    from repro.obs.forensics import explain_trace, format_pattern

    with _isolated_metrics():
        report = explain_trace(
            _golden_events(app), CosmosConfig(**FORENSICS_FILTERED)
        )
    counters: dict = {}
    for ring in report.rings.values():
        for record in ring:
            counters[record.counter] = counters.get(record.counter, 0) + 1
    return {
        "app": app,
        "config": FORENSICS_FILTERED,
        "total_refs": report.total_refs,
        "total_mispredicts": report.total_mispredicts,
        "captured_counters": {
            str(counter): count for counter, count in sorted(counters.items())
        },
        "top_patterns": [
            [role.value, format_pattern(pattern), mispredicts, refs]
            for role, pattern, mispredicts, refs in report.top_patterns(10)
        ],
    }


def variant_goldens() -> dict:
    """Cosmos-family totals, offline bounds and filtered forensics."""
    return _plain(
        {
            "apps": {app: _variant_app(app) for app in BENCHMARK_NAMES},
            "forensics": _filtered_forensics("moldyn"),
        }
    )


def regenerate_variants() -> None:
    out = DATA_DIR / "variant_goldens.json"
    out.write_text(json.dumps(variant_goldens(), indent=1) + "\n")
    print(f"{out.name}: written")


TARGETS = {
    "traces": regenerate_traces,
    "eval": regenerate_eval,
    "corruption": regenerate_corruption,
    "bank": regenerate_bank,
    "variants": regenerate_variants,
}


def main(argv=None) -> None:
    names = list(argv if argv is not None else sys.argv[1:]) or list(TARGETS)
    for name in names:
        if name not in TARGETS:
            raise SystemExit(
                f"unknown target {name!r}; pick from {list(TARGETS)}"
            )
        TARGETS[name]()


if __name__ == "__main__":
    main()
