"""Overhead guards: disabled observability and the bounded bank.

Two self-relative pass/fail checks, run by path in CI
(``pytest benchmarks/bench_core.py``).  End-to-end throughput is
measured and gated by ``perfbench/`` and ``benchmarks/ab.py`` (see
``docs/performance.md``).
"""

import time

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import pack
from repro.obs.log import OBS
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
