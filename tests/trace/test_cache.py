"""Property tests for the content-addressed on-disk trace cache."""

import dataclasses
import pickle
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.messages import MessageType
from repro.protocol.stache import DEFAULT_OPTIONS, StacheOptions
from repro.sim.metrics import METRICS
from repro.sim.params import PAPER_PARAMS, SystemParams
from repro.trace.cache import FORMAT_VERSION, TraceCache, trace_key
from repro.trace.collector import TraceCollector

#: ``(iteration, time, node, role bit, block, sender, type)``.
records = st.tuples(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**20).map(lambda a: a * 64),
    st.integers(min_value=0, max_value=15),
    st.sampled_from(list(MessageType)),
)


def collect(records, startup=0):
    """A collector holding ``records``, the first ``startup`` of them
    in the start-up phase."""
    collector = TraceCollector()
    for index, (iteration, *record) in enumerate(records):
        if index == startup:
            collector.mark_startup_complete()
        collector.iteration = iteration
        collector.record(*record)
    return collector


def sample_collector(n_events=20):
    return collect(
        (1, i, i % 16, 0, 64 * i, (i + 1) % 16, MessageType.GET_RO_REQUEST)
        for i in range(n_events)
    )


def _key(**overrides):
    base = dict(
        workload="appbt",
        iterations=40,
        seed=0,
        params=PAPER_PARAMS,
        options=DEFAULT_OPTIONS,
        workload_kwargs=None,
    )
    base.update(overrides)
    return trace_key(**base)


class TestKeyDerivation:
    def test_key_is_deterministic(self):
        assert _key().digest == _key().digest

    def test_key_changes_when_any_field_changes(self):
        baseline = _key().digest
        variants = [
            _key(workload="barnes"),
            _key(iterations=41),
            _key(seed=1),
            _key(params=SystemParams(network_latency_ns=41)),
            _key(options=StacheOptions(forwarding=True)),
            _key(workload_kwargs={"face_blocks": 2}),
        ]
        digests = [baseline] + [v.digest for v in variants]
        assert len(set(digests)) == len(digests)

    def test_every_params_field_participates(self):
        # Flip/bump every single SystemParams field; each must produce
        # a distinct cache key (no stale hits after a config change).
        baseline = _key().digest
        seen = {baseline}
        for field in dataclasses.fields(SystemParams):
            value = getattr(PAPER_PARAMS, field.name)
            if isinstance(value, bool):
                bumped = not value
            elif isinstance(value, int):
                bumped = value * 2
            elif isinstance(value, float):
                bumped = value * 2.0
            else:
                bumped = value + "X"
            params = dataclasses.replace(PAPER_PARAMS, **{field.name: bumped})
            digest = _key(params=params).digest
            assert digest not in seen, field.name
            seen.add(digest)

    def test_every_options_field_participates(self):
        baseline = _key().digest
        seen = {baseline}
        for field in dataclasses.fields(StacheOptions):
            value = getattr(DEFAULT_OPTIONS, field.name)
            options = dataclasses.replace(
                DEFAULT_OPTIONS, **{field.name: not value}
            )
            digest = _key(options=options).digest
            assert digest not in seen, field.name
            seen.add(digest)

    def test_descriptor_records_format_version(self):
        assert _key().descriptor["format"] == FORMAT_VERSION


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(records, max_size=50), st.integers(0, 50))
    def test_recorded_rows_load_as_the_collectors_events(
        self, tmp_path_factory, recorded, startup
    ):
        collector = collect(recorded, startup)
        cache = TraceCache(tmp_path_factory.mktemp("cache"))
        key = _key(seed=len(recorded))
        cache.store(key, collector.rows)
        assert cache.load(key) == collector.events

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.load(_key()) is None

    def test_overwrite_replaces_entry(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = _key()
        cache.store(key, sample_collector(1).rows)
        cache.store(key, array("q"))
        assert cache.load(key) == []


class TestCorruptionFallback:
    def _stored(self, tmp_path, n_events=20):
        cache = TraceCache(tmp_path)
        key = _key()
        cache.store(key, sample_collector(n_events).rows)
        return cache, key, cache.path_for(key)

    def test_truncated_file_degrades_to_miss_and_cleans_up(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.load(key) is None
        assert not path.exists()  # corrupt entry removed

    def test_every_truncation_point_is_detected(self, tmp_path):
        # Chop the file at several byte offsets; no prefix may ever load.
        cache, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        for cut in (0, 1, 10, len(data) // 4, len(data) - 1):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data[:cut])
            assert cache.load(key) is None, f"cut={cut}"

    def test_flipped_payload_byte_is_detected(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.load(key) is None

    def test_garbage_file_is_detected(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_bytes(b"not a cache entry at all")
        assert cache.load(key) is None

    def test_wrong_header_pickle_is_detected(self, tmp_path):
        cache, key, path = self._stored(tmp_path)
        path.write_bytes(pickle.dumps(["unexpected", "structure"]))
        assert cache.load(key) is None

    def test_undecodable_rows_are_a_miss(self, tmp_path):
        # Framing, hashes and length all check out, but a type value
        # names no message: the decode fails inside the load's failure
        # handling, so the entry is a miss, not a crash.
        cache = TraceCache(tmp_path)
        key = _key()
        rows = sample_collector(3).rows
        rows[6] = len(MessageType)
        cache.store(key, rows)
        corrupt = METRICS.counter("trace.cache.corrupt")
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()
        assert METRICS.counter("trace.cache.corrupt") == corrupt + 1

    def test_fallback_re_simulation_path(self, tmp_path):
        """get_trace re-simulates (and restores) a corrupted entry."""
        from repro.experiments.common import (
            clear_trace_cache,
            configure_trace_cache,
            get_trace,
        )

        cache = TraceCache(tmp_path)
        previous = configure_trace_cache(cache)
        try:
            clear_trace_cache()
            first = get_trace("barnes", seed=3, quick=True)
            stored = list(tmp_path.rglob("*.trace"))
            assert len(stored) == 1
            stored[0].write_bytes(b"\x00" * 16)  # corrupt it
            clear_trace_cache()  # force the disk path
            second = get_trace("barnes", seed=3, quick=True)
            assert second == first  # re-simulated, not crashed
            # ... and the cache was healed with a loadable entry.
            clear_trace_cache()
            third = get_trace("barnes", seed=3, quick=True)
            assert third == first
        finally:
            configure_trace_cache(previous)
            clear_trace_cache()


def test_warm_get_trace_equals_cold_for_every_quick_app(tmp_path):
    from repro.experiments.common import (
        clear_trace_cache,
        configure_trace_cache,
        get_trace,
    )

    previous = configure_trace_cache(TraceCache(tmp_path))
    try:
        for app in ("appbt", "barnes", "dsmc", "moldyn", "unstructured"):
            clear_trace_cache()
            simulated = METRICS.counter("trace.simulated")
            cold = get_trace(app, quick=True)
            assert METRICS.counter("trace.simulated") == simulated + 1
            clear_trace_cache()
            hits = METRICS.counter("trace.cache.hit")
            warm = get_trace(app, quick=True)
            assert METRICS.counter("trace.cache.hit") == hits + 1
            assert METRICS.counter("trace.simulated") == simulated + 1
            assert warm == cold, app
    finally:
        configure_trace_cache(previous)
        clear_trace_cache()
