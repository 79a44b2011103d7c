"""Property tests (hypothesis) for span-id propagation and merging.

The three invariants PR 8 promises:

* every delivered protocol message carries exactly one transaction id,
  and that id is live (opened, and not closed before this delivery);
* every opened span is closed by quiescence;
* the ``txn.critpath.*`` histograms merge associatively, so parallel
  shards fold to the same snapshot regardless of merge order.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.critpath import CriticalPath, Segment, fold_critpath_metrics
from repro.obs.log import OBS
from repro.obs.spans import build_transactions
from repro.sim.machine import Machine
from repro.sim.metrics import Metrics
from repro.workloads.moldyn import MolDyn


@pytest.fixture(autouse=True)
def spans_off_after():
    yield
    OBS.disable()
    OBS.set_clock(None)


def _traced_machine(seed):
    OBS.set_spans(True)
    machine = Machine(seed=seed)  # installs the engine clock into OBS
    return machine


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_every_delivered_message_carries_one_live_txn_id(seed):
    machine = _traced_machine(seed)
    cursor = [0]
    opened = set()
    close_time = {}

    def check(msg):
        # catch up on records appended since the last delivery
        records = OBS.records
        for record in records[cursor[0] :]:
            if record[0] == "open":
                opened.add(record[1])
            elif record[0] == "close":
                close_time[record[1]] = record[2]
        cursor[0] = len(records)
        assert msg.txn is not None, f"untraced delivery: {msg}"
        assert msg.txn in opened, f"delivery before open: {msg}"
        # The final response closes its transaction *during* this very
        # delivery (hooks run after the receiver handled the message),
        # so "live" means: not closed before this delivery's timestamp.
        if msg.txn in close_time:
            assert close_time[msg.txn] == machine.engine.now, (
                f"delivery after close: {msg}"
            )

    machine.deliver_hooks.append(check)
    machine.run_workload(
        MolDyn(force_blocks=4, coord_blocks=2, cold_blocks=0), iterations=2
    )
    assert opened, "run produced no transactions"


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_every_opened_span_closes_by_quiescence(seed):
    machine = _traced_machine(seed)
    machine.run_workload(
        MolDyn(force_blocks=4, coord_blocks=2, cold_blocks=0), iterations=2
    )
    transactions = build_transactions(OBS.records)
    assert transactions
    assert all(txn.closed for txn in transactions.values())
    assert all(
        txn.t_close >= txn.t_open for txn in transactions.values()
    )


# ---------------------------------------------------------------------------
# histogram associativity
# ---------------------------------------------------------------------------

_kinds = st.sampled_from(
    ["indirection", "transfer", "queue", "retry", "predicted-shortcut"]
)


@st.composite
def critical_paths(draw):
    durations = draw(
        st.lists(
            st.tuples(_kinds, st.integers(min_value=1, max_value=10**6)),
            min_size=1,
            max_size=4,
        )
    )
    t_open = draw(st.integers(min_value=0, max_value=10**6))
    segments = []
    cursor = t_open
    for kind, duration in durations:
        segments.append(Segment(kind, cursor, cursor + duration))
        cursor += duration
    return CriticalPath(
        txn=draw(st.integers(min_value=1, max_value=10**6)),
        block=draw(st.sampled_from([0x00, 0x40, 0x80])),
        requester=0,
        home=1,
        kind=draw(st.sampled_from(["read", "write"])),
        t_open=t_open,
        total_ns=cursor - t_open,
        segments=tuple(segments),
        outcome=draw(st.sampled_from([None, "hit", "miss"])),
        saved_ns=draw(st.floats(min_value=0, max_value=1e6)),
        penalty_ns=draw(st.floats(min_value=0, max_value=1e6)),
    )


shards = st.lists(
    st.lists(critical_paths(), max_size=6), min_size=3, max_size=3
)


def _fold(paths):
    metrics = Metrics()
    fold_critpath_metrics(paths, metrics)
    return metrics.snapshot()


def _merged(snapshots):
    metrics = Metrics()
    for snapshot in snapshots:
        metrics.merge(snapshot)
    return metrics.snapshot()


@settings(max_examples=50, deadline=None)
@given(shards=shards)
def test_critpath_histogram_merge_is_associative(shards):
    a, b, c = (_fold(paths) for paths in shards)
    left = _merged([_merged([a, b]), c])
    right = _merged([a, _merged([b, c])])
    sequential = _fold([p for paths in shards for p in paths])
    assert json.dumps(left, sort_keys=True) == json.dumps(
        right, sort_keys=True
    )
    assert json.dumps(left, sort_keys=True) == json.dumps(
        sequential, sort_keys=True
    )
