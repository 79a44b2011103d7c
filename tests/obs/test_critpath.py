"""Tests for critical-path segmentation, attribution, and summaries."""

from pathlib import Path

import pytest

from repro.core.config import CosmosConfig
from repro.core.evaluation import evaluate_trace
from repro.obs.critpath import (
    CriticalPath,
    Segment,
    attribute,
    attributed_paths,
    critical_path,
    fold_critpath_metrics,
    replay_outcomes,
    summarize,
    summarize_by_block,
)
from repro.obs.log import OBS
from repro.obs.spans import build_transactions
from repro.sim.machine import simulate
from repro.sim.metrics import Metrics
from repro.sim.params import PAPER_PARAMS
from repro.workloads.moldyn import MolDyn

GOLDEN = Path(__file__).resolve().parents[1] / "data"
LATENCY = PAPER_PARAMS.one_way_message_ns


def _column(events, config):
    """The per-event outcome column of one replay of ``events``."""
    return evaluate_trace(
        events, config, track_arcs=False, record_outcomes=True
    ).outcomes


@pytest.fixture(autouse=True)
def spans_off_after():
    yield
    OBS.disable()
    OBS.set_clock(None)


@pytest.fixture(scope="module")
def traced():
    OBS.set_spans(True)
    try:
        collector = simulate(
            MolDyn(force_blocks=4, coord_blocks=4, cold_blocks=0),
            iterations=3,
            seed=1,
        )
        transactions = build_transactions(OBS.records)
    finally:
        OBS.set_spans(False)
    return collector.all_events, transactions


class TestSegmentation:
    def test_segments_exactly_cover_every_transaction(self, traced):
        _, transactions = traced
        assert transactions
        for txn in transactions.values():
            path = critical_path(txn)
            assert path is not None
            assert path.total_ns == txn.duration_ns
            cursor = txn.t_open
            for segment in path.segments:
                assert segment.start_ns == cursor
                assert segment.end_ns >= segment.start_ns
                cursor = segment.end_ns
            assert cursor == txn.t_close

    def test_home_local_paths_have_no_transfer(self, traced):
        _, transactions = traced
        local = [t for t in transactions.values() if t.is_local]
        assert local
        for txn in local:
            path = critical_path(txn)
            assert path.ns("transfer") == 0
            assert set(s.kind for s in path.segments) <= {
                "queue",
                "indirection",
                "retry",
            }

    def test_remote_paths_end_in_a_transfer(self, traced):
        _, transactions = traced
        remote = [
            t
            for t in transactions.values()
            if not t.is_local and t.duration_ns > 0
        ]
        assert remote
        for txn in remote:
            path = critical_path(txn)
            assert path.segments[-1].kind == "transfer"

    def test_open_transaction_has_no_path(self):
        from repro.obs.spans import Transaction

        open_txn = Transaction(
            txn=1, requester=0, home=1, block=0x40, kind="read", t_open=5
        )
        assert critical_path(open_txn) is None


def _simple_path():
    return CriticalPath(
        txn=1,
        block=0x40,
        requester=0,
        home=1,
        kind="read",
        t_open=0,
        total_ns=480,
        segments=(
            Segment("indirection", 0, 160),
            Segment("queue", 160, 320),
            Segment("transfer", 320, 480),
        ),
    )


class TestAttribution:
    def test_hit_relabels_indirection_and_credits_saving(self):
        hit = attribute(_simple_path(), "hit", LATENCY)
        assert hit.outcome == "hit"
        assert hit.ns("indirection") == 0
        assert hit.ns("predicted-shortcut") == 160
        assert hit.saved_ns == pytest.approx(0.7 * 160)
        assert hit.penalty_ns == 0
        assert hit.total_ns == 480  # relabelling never changes coverage

    def test_miss_charges_recovery_penalty(self):
        miss = attribute(_simple_path(), "miss", LATENCY)
        assert miss.outcome == "miss"
        assert miss.ns("indirection") == 160
        assert miss.saved_ns == 0
        assert miss.penalty_ns == pytest.approx(0.5 * LATENCY)

    def test_none_outcome_attributes_nothing(self):
        path = attribute(_simple_path(), None, LATENCY)
        assert path.outcome is None
        assert path.saved_ns == 0 and path.penalty_ns == 0

    def test_share_sums_to_one_when_nonempty(self):
        path = _simple_path()
        total = sum(path.share(kind) for kind in
                    ("indirection", "transfer", "queue", "retry",
                     "predicted-shortcut"))
        assert total == pytest.approx(1.0)


class TestReplay:
    def test_cosmos_shrinks_mean_indirection_share(self, traced):
        events, transactions = traced
        baseline = summarize(attributed_paths(transactions, {}, LATENCY))
        outcomes = replay_outcomes(
            events, transactions, _column(events, CosmosConfig(depth=2))
        )
        cosmos = summarize(
            attributed_paths(transactions, outcomes, LATENCY)
        )
        assert cosmos.hits > 0
        assert cosmos.mean_share("indirection") < baseline.mean_share(
            "indirection"
        )
        assert cosmos.saved_ns > 0

    def test_replay_is_deterministic(self, traced):
        events, transactions = traced
        first = replay_outcomes(
            events, transactions, _column(events, CosmosConfig(depth=2))
        )
        second = replay_outcomes(
            events, transactions, _column(events, CosmosConfig(depth=2))
        )
        assert first == second


class TestSummaries:
    def test_summarize_by_block_partitions_transactions(self, traced):
        events, transactions = traced
        paths = attributed_paths(transactions, {}, LATENCY)
        by_block = summarize_by_block(paths)
        assert sum(s.transactions for s in by_block.values()) == len(paths)
        assert set(by_block) == {p.block for p in paths}

    def test_format_is_deterministic(self, traced):
        _, transactions = traced
        paths = attributed_paths(transactions, {}, LATENCY)
        assert summarize(paths).format() == summarize(paths).format()

    def test_fold_critpath_metrics_records_histograms(self, traced):
        _, transactions = traced
        paths = attributed_paths(transactions, {}, LATENCY)
        metrics = Metrics()
        fold_critpath_metrics(paths, metrics)
        total = metrics.histogram("txn.critpath.total_ns")
        assert total is not None and total.count == len(paths)
        assert metrics.histogram("txn.critpath.indirection_ns") is not None


class TestGolden:
    def test_cli_output_matches_checked_in_golden(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "critical-path",
                    "dsmc",
                    "--quick",
                    "--seed",
                    "0",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        golden = (GOLDEN / "critpath_dsmc_quick_seed0.txt").read_text()
        assert out == golden
