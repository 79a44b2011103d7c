"""Microbenchmarks: predictor, evaluation, and simulator throughput.

Run under pytest-benchmark (``pytest benchmarks/bench_core.py``).  The
two overhead guards are self-relative pass/fail checks CI runs by node
id; end-to-end throughput is measured and gated by ``perfbench/`` and
``benchmarks/ab.py`` (see ``docs/performance.md``).
"""

from repro.core.config import CosmosConfig
from repro.core.evaluation import evaluate_trace
from repro.core.predictor import CosmosPredictor
from repro.protocol.messages import MessageType
from repro.sim.machine import Machine
from repro.workloads.moldyn import MolDyn

CYCLE = [
    (1, MessageType.GET_RO_REQUEST),
    (2, MessageType.INVAL_RO_RESPONSE),
    (1, MessageType.UPGRADE_REQUEST),
    (2, MessageType.GET_RO_REQUEST),
    (1, MessageType.INVAL_RW_RESPONSE),
]


def test_predictor_observe_throughput(benchmark):
    """Single-predictor observe() rate on a periodic stream."""
    predictor = CosmosPredictor(CosmosConfig(depth=2))
    stream = CYCLE * 200

    def run():
        for tup in stream:
            predictor.observe(0x40, tup)

    benchmark(run)
    assert predictor.accuracy > 0.9


def test_predictor_observe_throughput_deep(benchmark):
    """Depth-4 predictor on the same stream (hashing longer patterns)."""
    predictor = CosmosPredictor(CosmosConfig(depth=4))
    stream = CYCLE * 200

    def run():
        for tup in stream:
            predictor.observe(0x40, tup)

    benchmark(run)


def test_evaluation_throughput(benchmark, quick_traces):
    """Full-bank trace replay rate (events/second)."""
    events = quick_traces["moldyn"]
    result = benchmark(
        evaluate_trace, events, CosmosConfig(depth=1), None, (), False
    )
    assert result.overall.refs == len(events)
    benchmark.extra_info["events"] = len(events)


def test_end_to_end_events_per_sec(benchmark, quick_traces):
    """The full pipeline rate: replay a real quick-mode trace through the
    default Cosmos bank with arcs and checkpoints on (the configuration
    every experiment driver uses)."""
    events = quick_traces["moldyn"]
    result = benchmark(
        evaluate_trace, events, CosmosConfig(depth=2), None, (2, 4), True
    )
    assert result.overall.refs == len(events)
    benchmark.extra_info["events"] = len(events)


def test_observe_word_throughput(benchmark):
    """The packed-word kernel (the interned-int hot API) on a periodic
    stream: one dict lookup + counter bumps per observation."""
    from repro.core.tuples import pack

    predictor = CosmosPredictor(CosmosConfig(depth=2))
    words = [pack(tup) for tup in CYCLE] * 200

    def run():
        observe_word = predictor.observe_word
        for word in words:
            observe_word(0x40, word)

    benchmark(run)
    assert predictor.accuracy > 0.9


def test_simulator_throughput(benchmark):
    """Machine simulation rate on a small moldyn run."""

    def run():
        machine = Machine(seed=1)
        machine.run_workload(
            MolDyn(force_blocks=8, coord_blocks=8, cold_blocks=0),
            iterations=5,
        )
        return machine

    machine = benchmark.pedantic(run, rounds=3, iterations=1)
    assert machine.network.messages_sent > 0
    benchmark.extra_info["messages"] = machine.network.messages_sent


def test_obs_disabled_overhead_guard():
    """Disabled observability must cost <= 2% of per-event simulation.

    Every instrumentation site is ``if OBS.<flag>: OBS.emit(...)``, so
    with capture off the whole layer reduces to one attribute read and
    one branch per site.  This guard measures that check directly and
    compares it against the simulator's per-message cost: if someone
    adds an unguarded hook (string formatting, dict building, a call
    into the log) the ratio blows past the budget and this test fails.
    Both sides are best-of-N wall-clock measurements, so the 2% budget
    has orders-of-magnitude headroom against scheduler noise.
    """
    import time

    from repro.obs.log import OBS

    assert not OBS.enabled  # the suite never leaves capture on

    checks = 200_000

    def guard_loop() -> int:
        observed = 0
        for _ in range(checks):
            if OBS.msg:  # the exact shape of every hot-path hook
                observed += 1
        return observed

    best_check = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        assert guard_loop() == 0
        best_check = min(best_check, time.perf_counter() - start)
    per_check = best_check / checks

    def sim_run():
        machine = Machine(seed=1)
        machine.run_workload(
            MolDyn(force_blocks=8, coord_blocks=8, cold_blocks=0),
            iterations=5,
        )
        return machine

    best_seconds, messages = None, 0
    for _ in range(3):
        start = time.perf_counter()
        machine = sim_run()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            messages = machine.network.messages_sent
    per_event = best_seconds / messages

    assert per_check <= 0.02 * per_event, (
        f"disabled obs guard costs {per_check * 1e9:.1f} ns/check vs "
        f"{per_event * 1e9:.1f} ns/simulated message "
        f"({per_check / per_event:.1%} > 2% budget)"
    )


def _pressure_stream(n_events=40_000, n_blocks=64, hot_blocks=8):
    """A skewed multi-block stream: hot set inside any sane capacity,
    a cold tail that forces steady (not pathological) eviction."""
    from repro.core.tuples import pack

    words = [pack(tup) for tup in CYCLE]
    stream = []
    for i in range(n_events):
        if i % 32 < 31:  # ~97% hot
            block = 0x40 * (1 + i % hot_blocks)
        else:
            cold = (i // 32) % (n_blocks - hot_blocks)
            block = 0x40 * (1 + hot_blocks + cold)
        stream.append((block, words[(i // 7) % len(words)]))
    return stream


def _replay_stream(config, stream):
    predictor = CosmosPredictor(config)
    observe_word = predictor.observe_word
    for block, word in stream:
        observe_word(block, word)
    return predictor


def test_bounded_observe_overhead_guard():
    """A capacity-bounded bank must cost <= 10% over unbounded.

    Self-relative (both sides measured back to back in this process), so
    the gate is machine-independent.  The stream's hot set fits the
    budget while its cold tail evicts continuously -- the intended
    operating point; the LRU bookkeeping rides the table's own insertion
    order, so the touch path costs one extra dict delete and eviction
    work only runs on actual evictions.
    """
    import time

    stream = _pressure_stream()
    # MHR-capacity LRU is the recommended production bound (its recency
    # order rides the table's own insertion order, so the touch path is
    # one extra dict delete); a PHT budget adds per-hit bookkeeping
    # calls and is priced separately in the capacity experiment.
    bounded_config = CosmosConfig(depth=2, mhr_capacity=16, eviction="lru")
    base_config = CosmosConfig(depth=2)

    # Interleave the two measurements so frequency drift and cache
    # warm-up hit both sides equally; best-of-N absorbs scheduler noise.
    base_s = bounded_s = float("inf")
    predictor = None
    for _ in range(7):
        start = time.perf_counter()
        _replay_stream(base_config, stream)
        base_s = min(base_s, time.perf_counter() - start)
        start = time.perf_counter()
        predictor = _replay_stream(bounded_config, stream)
        bounded_s = min(bounded_s, time.perf_counter() - start)
    assert predictor.evictions_mhr > 0  # the budget actually bit
    assert predictor.mhr_entries <= 16
    overhead = bounded_s / base_s - 1.0
    assert overhead <= 0.10, (
        f"bounded bank costs {overhead:.1%} over unbounded "
        f"({bounded_s * 1e9 / len(stream):.0f} vs "
        f"{base_s * 1e9 / len(stream):.0f} ns/observe; budget 10%)"
    )
