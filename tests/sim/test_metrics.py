"""Tests for the runtime metrics registry."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    METRICS,
    RESERVED_KEYS,
    Histogram,
    Metrics,
    dump_metrics_json,
    _bucket_of,
)


class TestCounters:
    def test_inc_and_read(self):
        metrics = Metrics()
        assert metrics.inc("a") == 1
        assert metrics.inc("a", 4) == 5
        assert metrics.counter("a") == 5

    def test_unknown_counter_is_zero(self):
        assert Metrics().counter("nope") == 0


class TestTimers:
    def test_timer_accumulates(self):
        metrics = Metrics()
        with metrics.timer("t"):
            pass
        with metrics.timer("t"):
            pass
        snap = metrics.snapshot()
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["seconds"] >= 0.0

    def test_timer_records_on_exception(self):
        metrics = Metrics()
        try:
            with metrics.timer("t"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert metrics.snapshot()["timers"]["t"]["count"] == 1

    def test_timer_counts_errors(self):
        """A raising body bumps ``<name>.error`` so failures are visible."""
        metrics = Metrics()
        with metrics.timer("t"):
            pass
        with pytest.raises(ValueError):
            with metrics.timer("t"):
                raise ValueError("boom")
        assert metrics.counter("t.error") == 1
        assert metrics.snapshot()["timers"]["t"]["count"] == 2

    def test_timer_error_counter_absent_on_success(self):
        metrics = Metrics()
        with metrics.timer("t"):
            pass
        assert metrics.counter("t.error") == 0
        assert "t.error" not in metrics.snapshot()["counters"]

    def test_add_time_direct(self):
        metrics = Metrics()
        metrics.add_time("t", 1.5)
        metrics.add_time("t", 0.5, count=3)
        assert metrics.seconds("t") == 2.0
        assert metrics.snapshot()["timers"]["t"]["count"] == 4


class TestSnapshotMerge:
    def test_snapshot_is_a_copy(self):
        metrics = Metrics()
        metrics.inc("a")
        snap = metrics.snapshot()
        metrics.inc("a")
        assert snap["counters"]["a"] == 1

    def test_merge_folds_counters_and_timers(self):
        parent, worker = Metrics(), Metrics()
        parent.inc("shared", 2)
        worker.inc("shared", 3)
        worker.inc("worker-only")
        worker.add_time("t", 1.0)
        parent.merge(worker.snapshot())
        assert parent.counter("shared") == 5
        assert parent.counter("worker-only") == 1
        assert parent.seconds("t") == 1.0

    def test_merge_empty_snapshot_is_noop(self):
        metrics = Metrics()
        metrics.merge({})
        assert metrics.snapshot() == {"counters": {}, "timers": {}}

    def test_merge_timer_missing_count_defaults_to_one(self):
        metrics = Metrics()
        metrics.merge({"timers": {"t": {"seconds": 2.0}}})
        snap = metrics.snapshot()["timers"]["t"]
        assert snap["seconds"] == 2.0
        assert snap["count"] == 1

    def test_merge_overlapping_timer_names(self):
        parent, worker = Metrics(), Metrics()
        parent.add_time("t", 1.0, count=2)
        worker.add_time("t", 3.0, count=4)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()["timers"]["t"]
        assert snap["seconds"] == 4.0
        assert snap["count"] == 6

    def test_merge_is_commutative_for_counters(self):
        a, b = Metrics(), Metrics()
        a.inc("x", 2)
        b.inc("x", 3)
        b.inc("y", 1)
        ab, ba = Metrics(), Metrics()
        ab.merge(a.snapshot())
        ab.merge(b.snapshot())
        ba.merge(b.snapshot())
        ba.merge(a.snapshot())
        assert ab.snapshot() == ba.snapshot()

    def test_reset(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.add_time("t", 1.0)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "timers": {}}


class TestHistograms:
    def test_bucket_edges(self):
        # Bucket k holds (2^(k-1), 2^k]; bucket 0 holds <= 1.
        assert _bucket_of(-5) == 0
        assert _bucket_of(0) == 0
        assert _bucket_of(1) == 0
        assert _bucket_of(2) == 1
        assert _bucket_of(3) == 2
        assert _bucket_of(4) == 2
        assert _bucket_of(5) == 3
        assert _bucket_of(1024) == 10
        assert _bucket_of(1025) == 11

    def test_observe_and_stats(self):
        hist = Histogram()
        for value in (1, 2, 4, 100):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 107
        assert hist.min == 1
        assert hist.max == 100
        assert hist.mean == 107 / 4

    def test_quantile_upper_edge(self):
        hist = Histogram()
        for value in (3, 3, 3, 100):
            hist.observe(value)
        # Median lands in the bucket containing 3 -> upper edge 4.
        assert hist.quantile(0.5) == 4.0
        assert hist.quantile(1.0) == 128.0

    def test_quantile_rank_rounds_half_up(self):
        # The rank is q * count rounded half up, at least 1.
        pair = Histogram()
        pair.observe(2)
        pair.observe(100)
        assert pair.quantile(0.0) == 2.0
        assert pair.quantile(0.5) == 2.0  # q * count 1.0 -> rank 1
        assert pair.quantile(0.75) == 128.0  # 1.5 -> rank 2
        tail = Histogram()
        tail.observe_many(2, 19)
        tail.observe(100)
        assert tail.quantile(0.95) == 2.0  # 19.0 -> rank 19 of 20
        assert tail.quantile(0.98) == 128.0  # 19.6 -> rank 20 of 20

    def test_quantile_of_values_at_most_one_is_one(self):
        # Bucket 0 holds zero and negatives too; its upper edge is 1.
        hist = Histogram()
        hist.observe_many(0, 3)
        hist.observe(-4)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 1.0

    @given(
        st.lists(
            st.integers(min_value=-10, max_value=10**9),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_the_edge_of_the_ranked_sample(self, values, q):
        """quantile(q) is the upper bucket edge of the sorted sample at
        rank max(1, round-half-up(q * count))."""
        hist = Histogram()
        for value in values:
            hist.observe(value)
        rank = max(1, int(q * len(values) + 0.5))
        bucket = _bucket_of(sorted(values)[rank - 1])
        assert hist.quantile(q) == (float(2**bucket) if bucket else 1.0)

    @given(
        st.lists(
            st.integers(min_value=-10, max_value=10**9),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_quantile_is_monotone_and_covers_the_max(self, values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        readings = [hist.quantile(q) for q in (0.0, 0.5, 0.9, 0.99, 1.0)]
        assert readings == sorted(readings)
        assert readings[-1] >= max(values)
        assert readings[-1] < 2 * max(max(values), 1)

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        snap = hist.snapshot()
        assert snap == {
            "count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {},
        }

    def test_snapshot_keys_are_strings(self):
        hist = Histogram()
        hist.observe(5)
        snap = hist.snapshot()
        assert list(snap["buckets"]) == ["3"]
        assert snap["buckets"]["3"] == 1

    def test_merge_folds_buckets_and_edges(self):
        left, right = Histogram(), Histogram()
        left.observe(2)
        right.observe(2)
        right.observe(1000)
        left.merge(right.snapshot())
        assert left.count == 3
        assert left.min == 2
        assert left.max == 1000
        assert left.buckets[_bucket_of(2)] == 2

    def test_merge_partial_snapshot(self):
        hist = Histogram()
        hist.observe(4)
        hist.merge({})  # absent fields contribute nothing
        assert hist.count == 1 and hist.min == 4 and hist.max == 4

    def test_metrics_observe_and_snapshot(self):
        metrics = Metrics()
        assert metrics.histogram("h") is None
        metrics.observe("h", 3)
        metrics.observe("h", 7)
        snap = metrics.snapshot()
        assert snap["histograms"]["h"]["count"] == 2
        assert metrics.histogram("h").count == 2

    def test_snapshot_omits_histograms_key_when_empty(self):
        metrics = Metrics()
        metrics.inc("a")
        assert "histograms" not in metrics.snapshot()

    def test_merge_histograms_across_registries(self):
        parent, worker = Metrics(), Metrics()
        parent.observe("h", 1)
        worker.observe("h", 100)
        worker.observe("other", 5)
        parent.merge(worker.snapshot())
        assert parent.histogram("h").count == 2
        assert parent.histogram("h").max == 100
        assert parent.histogram("other").count == 1

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=-10, max_value=10**9),
                    st.floats(
                        min_value=-10.0,
                        max_value=1e9,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
                max_size=20,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_order_independent(self, shards):
        """Folding shard snapshots in any order gives the same result."""
        snapshots = []
        for shard in shards:
            hist = Histogram()
            for value in shard:
                hist.observe(value)
            snapshots.append(hist.snapshot())

        def assert_equivalent(left: dict, right: dict) -> None:
            # Float addition is order-sensitive in the last bits, so the
            # running sum is compared with tolerance; counts, buckets,
            # and edges must match exactly.
            assert left["count"] == right["count"]
            assert left["min"] == right["min"]
            assert left["max"] == right["max"]
            assert left["buckets"] == right["buckets"]
            assert left["sum"] == pytest.approx(right["sum"])

        forward, backward = Histogram(), Histogram()
        for snap in snapshots:
            forward.merge(snap)
        for snap in reversed(snapshots):
            backward.merge(snap)
        assert_equivalent(forward.snapshot(), backward.snapshot())

        # Associativity: pre-fold a pair, then fold the rest.
        if len(snapshots) >= 2:
            paired = Histogram()
            paired.merge(snapshots[0])
            paired.merge(snapshots[1])
            grouped = Histogram()
            grouped.merge(paired.snapshot())
            for snap in snapshots[2:]:
                grouped.merge(snap)
            assert_equivalent(grouped.snapshot(), forward.snapshot())


class TestDump:
    def test_dump_metrics_json(self, tmp_path):
        metrics = Metrics()
        metrics.inc("runs")
        path = tmp_path / "m.json"
        dump_metrics_json(metrics.snapshot(), path, jobs=4, shards=[])
        data = json.loads(path.read_text())
        assert data["counters"]["runs"] == 1
        assert data["jobs"] == 4
        assert data["shards"] == []

    def test_dump_rejects_reserved_extra_keys(self, tmp_path):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="counters"):
            dump_metrics_json(Metrics().snapshot(), path, counters={})
        assert not path.exists()

    def test_dump_rejects_all_reserved_keys(self, tmp_path):
        for key in RESERVED_KEYS:
            with pytest.raises(ValueError):
                dump_metrics_json(
                    Metrics().snapshot(), tmp_path / "m.json", **{key: 1}
                )

    def test_dump_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.json"
        dump_metrics_json(Metrics().snapshot(), path)
        assert json.loads(path.read_text())["counters"] == {}

    def test_dump_includes_histograms(self, tmp_path):
        metrics = Metrics()
        metrics.observe("h", 9)
        path = tmp_path / "m.json"
        dump_metrics_json(metrics.snapshot(), path)
        data = json.loads(path.read_text())
        assert data["histograms"]["h"]["count"] == 1

    def test_global_registry_exists(self):
        assert isinstance(METRICS, Metrics)


class TestFormatMetrics:
    def test_format_metrics_renders_tables(self):
        from repro.analysis.report import format_metrics

        metrics = Metrics()
        metrics.inc("trace.cache.hit", 7)
        metrics.add_time("trace.simulate", 1.25)
        text = format_metrics(metrics.snapshot())
        assert "trace.cache.hit" in text and "7" in text
        assert "trace.simulate" in text and "1.250" in text

    def test_format_metrics_empty(self):
        from repro.analysis.report import format_metrics

        assert "no metrics" in format_metrics({})

    def test_format_metrics_renders_histograms(self):
        from repro.analysis.report import format_metrics

        metrics = Metrics()
        metrics.observe("net.msg.latency_ns", 80)
        metrics.observe("net.msg.latency_ns", 80)
        text = format_metrics(metrics.snapshot())
        assert "Histograms" in text
        assert "net.msg.latency_ns" in text
        # Two samples in the (64, 128] bucket render as "128:2".
        assert "128:2" in text


class TestObserveMany:
    def test_matches_repeated_observe(self):
        from repro.sim.metrics import Histogram

        one_by_one = Histogram()
        for _ in range(7):
            one_by_one.observe(160)
        bulk = Histogram()
        bulk.observe_many(160, 7)
        assert bulk.snapshot() == one_by_one.snapshot()

    def test_zero_and_negative_counts_are_noops(self):
        from repro.sim.metrics import Histogram

        histogram = Histogram()
        histogram.observe_many(160, 0)
        histogram.observe_many(160, -3)
        assert histogram.count == 0 and histogram.min is None

    def test_registry_observe_many(self):
        from repro.sim.metrics import Metrics

        metrics = Metrics()
        metrics.observe_many("x.latency", 32, 4)
        metrics.observe("x.latency", 100)
        histogram = metrics.histogram("x.latency")
        assert histogram.count == 5
        assert histogram.min == 32 and histogram.max == 100
