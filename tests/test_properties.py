"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import render_table
from repro.core.config import CosmosConfig
from repro.core.evaluation import Tally, evaluate_trace
from repro.core.memory import MemoryOverhead
from repro.core.predictor import CosmosPredictor, train_entry
from repro.core.tuples import (
    TUPLE_BITS,
    pack,
    pack_pattern,
    shift_history,
    unpack,
    unpack_pattern,
)
from repro.protocol.messages import MessageType, Role
from repro.sim.engine import Engine
from repro.trace.events import TraceEvent
from repro.trace.io import load_trace, save_trace
from repro.workloads.patterns import drifted, shuffled

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

message_types = st.sampled_from(list(MessageType))
senders = st.integers(min_value=0, max_value=15)
tuples_ = st.tuples(senders, message_types)
blocks = st.sampled_from([0x00, 0x40, 0x80, 0xC0])


@st.composite
def trace_events(draw, max_iteration=5):
    return TraceEvent(
        time=draw(st.integers(min_value=0, max_value=10**9)),
        iteration=draw(st.integers(min_value=0, max_value=max_iteration)),
        node=draw(st.integers(min_value=0, max_value=15)),
        role=draw(st.sampled_from([Role.CACHE, Role.DIRECTORY])),
        block=draw(st.integers(min_value=0, max_value=2**30) .map(lambda a: a * 64)),
        sender=draw(senders),
        mtype=draw(message_types),
    )


# ---------------------------------------------------------------------------
# tuple codec
# ---------------------------------------------------------------------------


@given(sender=st.integers(min_value=0, max_value=4095), mtype=message_types)
def test_pack_unpack_roundtrip(sender, mtype):
    assert unpack(pack((sender, mtype))) == (sender, mtype)


@given(sender=st.integers(min_value=0, max_value=4095), mtype=message_types)
def test_pack_is_dense_and_16bit(sender, mtype):
    word = pack((sender, mtype))
    assert 0 <= word < 1 << 16


# ---------------------------------------------------------------------------
# MHR
# ---------------------------------------------------------------------------


@given(depth=st.integers(min_value=1, max_value=6),
       stream=st.lists(tuples_, max_size=40))
def test_mhr_holds_last_depth_tuples(depth, stream):
    predictor = CosmosPredictor(CosmosConfig(depth=depth))
    history = 1
    full_at = 1 << (TUPLE_BITS * depth)
    for tup in stream:
        predictor.update(0x40, tup)
        history = shift_history(history, pack(tup), full_at)
    expected = tuple(stream[-depth:])
    assert predictor.history(0x40) == (expected if stream else None)
    assert history == pack_pattern(expected)
    assert unpack_pattern(history) == expected


@given(tuples=st.lists(st.tuples(st.integers(min_value=0, max_value=4095),
                                 message_types), max_size=6))
def test_pattern_word_roundtrip(tuples):
    assert unpack_pattern(pack_pattern(tuples)) == tuple(tuples)


# ---------------------------------------------------------------------------
# PHT filter
# ---------------------------------------------------------------------------


def _depth_one_trainings(stream):
    """``(pattern, actual)`` pairs a depth-1 PHT trains on for ``stream``."""
    return [((prev,), tup) for prev, tup in zip(stream, stream[1:])]


@given(max_count=st.integers(min_value=0, max_value=3),
       stream=st.lists(tuples_, min_size=1, max_size=60))
def test_pht_prediction_is_always_a_seen_tuple(max_count, stream):
    predictor = CosmosPredictor(
        CosmosConfig(depth=1, filter_max_count=max_count)
    )
    seen = {}
    for pattern, tup in [(None, stream[0])] + _depth_one_trainings(stream):
        predictor.update(0x40, tup)
        if pattern is not None:
            seen.setdefault(pattern, set()).add(tup)
        table = predictor.pattern_table(0x40) or {}
        for key, (prediction, _counter) in table.items():
            assert prediction in seen[key]


@given(stream=st.lists(tuples_, min_size=1, max_size=60))
def test_unfiltered_pht_predicts_last_occurrence(stream):
    predictor = CosmosPredictor(CosmosConfig(depth=1))
    for tup in stream:
        predictor.update(0x40, tup)
    table = predictor.pattern_table(0x40) or {}
    # dict() keeps each pattern's last successor.
    last = dict(_depth_one_trainings(stream))
    assert {key: entry[0] for key, entry in table.items()} == last


@given(max_count=st.integers(min_value=0, max_value=3),
       stream=st.lists(tuples_, min_size=1, max_size=60))
def test_train_entry_matches_the_kernel(max_count, stream):
    """The variants' filter rule trains entries exactly as Cosmos does."""
    predictor = CosmosPredictor(
        CosmosConfig(depth=1, filter_max_count=max_count)
    )
    entries = {}
    for tup in stream:
        predictor.update(0x40, tup)
    for pattern, tup in _depth_one_trainings(stream):
        entry = entries.get(pattern)
        if entry is None:
            entries[pattern] = [pack(tup), 0]
        else:
            train_entry(entry, pack(tup), max_count)
    assert (predictor.pattern_table(0x40) or {}) == {
        key: (unpack(word), counter)
        for key, (word, counter) in entries.items()
    }


# ---------------------------------------------------------------------------
# Cosmos predictor
# ---------------------------------------------------------------------------


@given(depth=st.integers(min_value=1, max_value=4),
       stream=st.lists(st.tuples(blocks, tuples_), max_size=80))
@settings(max_examples=50)
def test_cosmos_statistics_are_consistent(depth, stream):
    predictor = CosmosPredictor(CosmosConfig(depth=depth))
    for block, tup in stream:
        predictor.observe(block, tup)
    assert predictor.predictions + predictor.no_prediction == len(stream)
    assert 0 <= predictor.hits <= predictor.predictions
    assert 0.0 <= predictor.accuracy <= 1.0


@given(depth=st.integers(min_value=1, max_value=4),
       cycle=st.lists(tuples_, min_size=1, max_size=5, unique=True),
       repeats=st.integers(min_value=3, max_value=10))
@settings(max_examples=50)
def test_cosmos_eventually_perfect_on_unique_cycles(depth, cycle, repeats):
    """On a cycle of distinct tuples, Cosmos converges to 100%."""
    predictor = CosmosPredictor(CosmosConfig(depth=depth))
    warmup = depth + len(cycle) + 1
    step = 0
    for _ in range(repeats):
        for tup in cycle:
            observation = predictor.observe(0x40, tup)
            step += 1
            if step > warmup + len(cycle):
                assert observation.hit


@given(depth=st.integers(min_value=1, max_value=4),
       stream=st.lists(st.tuples(blocks, tuples_), max_size=60))
@settings(max_examples=40)
def test_pht_allocation_rule(depth, stream):
    """PHT entries appear only for blocks with > depth references."""
    predictor = CosmosPredictor(CosmosConfig(depth=depth))
    refs = {}
    for block, tup in stream:
        predictor.update(block, tup)
        refs[block] = refs.get(block, 0) + 1
    for block, count in refs.items():
        pht = predictor.pattern_table(block)
        if count <= depth:
            assert pht is None or len(pht) == 0
        else:
            assert pht is not None and len(pht) >= 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@given(events=st.lists(trace_events(), max_size=60))
@settings(max_examples=40)
def test_evaluation_counts_partition(events):
    events = sorted(events, key=lambda e: (e.iteration, e.time))
    result = evaluate_trace(events, CosmosConfig(depth=1))
    assert result.overall.refs == len(events)
    assert (
        result.by_role[Role.CACHE].refs
        + result.by_role[Role.DIRECTORY].refs
        == len(events)
    )
    assert result.overall.hits == (
        result.by_role[Role.CACHE].hits
        + result.by_role[Role.DIRECTORY].hits
    )


@given(events=st.lists(trace_events(), max_size=60))
@settings(max_examples=30)
def test_arc_refs_never_exceed_total(events):
    events = sorted(events, key=lambda e: (e.iteration, e.time))
    result = evaluate_trace(events, CosmosConfig(depth=1))
    arc_refs = sum(t.refs for t in result.arcs.tallies.values())
    assert arc_refs <= len(events)


# ---------------------------------------------------------------------------
# tally / memory formulas
# ---------------------------------------------------------------------------


@given(hits=st.integers(min_value=0, max_value=100),
       extra=st.integers(min_value=0, max_value=100))
def test_tally_accuracy_bounded(hits, extra):
    tally = Tally(hits=hits, refs=hits + extra)
    assert 0.0 <= tally.accuracy <= 1.0


@given(mhr=st.integers(min_value=0, max_value=10**6),
       pht=st.integers(min_value=0, max_value=10**6),
       depth=st.integers(min_value=1, max_value=8))
def test_memory_overhead_nonnegative_and_monotone_in_pht(mhr, pht, depth):
    a = MemoryOverhead(mhr, pht, depth, 2, 128)
    b = MemoryOverhead(mhr, pht + 1, depth, 2, 128)
    assert a.overhead_percent >= 0.0
    if mhr:
        assert b.overhead_percent > a.overhead_percent


# ---------------------------------------------------------------------------
# trace io
# ---------------------------------------------------------------------------


@given(events=st.lists(trace_events(), max_size=40))
@settings(max_examples=30)
def test_trace_io_roundtrip(events, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "trace.jsonl"
    save_trace(events, path)
    assert load_trace(path) == events


# ---------------------------------------------------------------------------
# engine ordering
# ---------------------------------------------------------------------------


@given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=50))
def test_engine_dispatches_in_time_order(delays):
    engine = Engine()
    log = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, lambda i=index: log.append((engine.now, i)))
    engine.run()
    times = [t for t, _ in log]
    assert times == sorted(times)
    assert len(log) == len(delays)
    # Equal times keep insertion order.
    for (t1, i1), (t2, i2) in zip(log, log[1:]):
        if t1 == t2:
            assert i1 < i2


# ---------------------------------------------------------------------------
# pattern helpers
# ---------------------------------------------------------------------------


@given(items=st.lists(st.integers(), max_size=30), seed=st.integers())
def test_order_helpers_are_permutations(items, seed):
    rng = random.Random(seed)
    assert sorted(shuffled(items, rng)) == sorted(items)
    assert sorted(drifted(items, rng, swap_prob=0.5)) == sorted(items)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


@given(rows=st.lists(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2,
             max_size=2),
    min_size=1, max_size=10))
def test_render_table_line_count(rows):
    text = render_table(["a", "b"], rows)
    assert len(text.splitlines()) == 2 + len(rows)
