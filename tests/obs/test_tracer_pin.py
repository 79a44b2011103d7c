"""Pin the simulator tracer's output on a fault-injected run.

A quick moldyn run under the ``moderate`` fault profile exercises every
hook that records both a ring event and a span record: the network
send, the fault injector's drop, send and duplicate, the cache's
timeout retry and poison re-issue, and the directory's invalidation
retry.  The digests below were recorded from the simulator before its
two tracers became one; they pin the exact content *and order* of both
record streams, so a refactor of the hook sites cannot reorder or lose
a record without failing here.  The cross-checks then tie every span
record to the ring event of the same occurrence.
"""

import hashlib
from collections import Counter
from importlib import import_module

import pytest

from repro.experiments.common import workload_for
from repro.obs.log import OBS
from repro.protocol.messages import MessageType
from repro.sim.faults import FaultProfile
from repro.sim.machine import simulate

EVENTS_SHA256 = (
    "345c5a31c6d38b395852fa2eacb820c09c7286721d20930cf697ff92877b7580"
)
RECORDS_SHA256 = (
    "ecdcd4c592696b2eb539a00ace53a88aacd762aff7807502dc481c0ecb45f0cf"
)


def _span_switch():
    """``(on, off, tracer)`` for span capture, whichever object owns it."""
    separate = getattr(import_module("repro.obs.spans"), "SPANS", None)
    if separate is not None:
        return separate.enable, separate.disable, separate
    return (lambda: OBS.set_spans(True)), (lambda: OBS.set_spans(False)), OBS


@pytest.fixture(scope="module")
def captured():
    on, off, tracer = _span_switch()
    OBS.configure("full", capacity=1 << 20)
    on()
    try:
        simulate(
            workload_for("moldyn", quick=True),
            iterations=2,
            faults=FaultProfile.parse("moderate"),
            fault_seed=1,
        )
        events = OBS.events()
        records = list(tracer.records)
        dropped = OBS.dropped
    finally:
        off()
        OBS.disable()
        OBS.set_clock(None)
        tracer.set_clock(None)
    assert dropped == 0
    return events, records


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_ring_events_are_pinned(captured):
    events, _ = captured
    assert _digest(events) == EVENTS_SHA256


def test_span_records_are_pinned(captured):
    _, records = captured
    assert _digest(records) == RECORDS_SHA256


def test_run_exercises_every_paired_hook(captured):
    events, records = captured
    ring = Counter(name for _t, _cat, name, *_ in events)
    for name in ("send", "drop", "dup", "retry", "poison", "inval-retry"):
        assert ring[name] > 0, name
    spans = Counter(
        (r[0], r[4] if r[0] == "retry" else r[-1] if r[0] == "xfer" else None)
        for r in records
    )
    assert spans[("xfer", False)] and spans[("xfer", True)]
    assert spans[("drop", None)]
    for kind in ("timeout", "poison", "inval"):
        assert spans[("retry", kind)] > 0, kind


def test_every_xfer_has_its_ring_send(captured):
    events, records = captured
    sends = Counter()
    dups = Counter()
    for t, category, name, src, _block, args in events:
        if category == "net" and name == "send":
            sends[(t, src, args["dst"], args["mtype"], args["delay_ns"])] += 1
        elif category == "net" and name == "dup":
            dups[(t, src, args["dst"], args["extra_delay_ns"])] += 1
    xfers = Counter()
    dup_xfers = Counter()
    for record in records:
        if record[0] != "xfer":
            continue
        _op, _txn, t, src, dst, mtype, delay, dup = record
        if dup:
            dup_xfers[(t, src, dst, delay)] += 1
        else:
            xfers[(t, src, dst, MessageType(mtype).name, delay)] += 1
    assert not xfers - sends
    assert not dup_xfers - dups


def test_every_drop_and_retry_has_its_ring_event(captured):
    events, records = captured
    ring = Counter()
    for t, category, name, node, _block, args in events:
        if name == "drop":
            ring[("drop", t, node, args["dst"])] += 1
        elif name == "retry":
            ring[("timeout", t, node, args["attempt"])] += 1
        elif name == "poison":
            ring[("poison", t, node)] += 1
        elif name == "inval-retry":
            ring[("inval", t, node, args["attempt"])] += 1
    spans = Counter()
    for record in records:
        if record[0] == "drop":
            spans[("drop", record[2], record[3], record[4])] += 1
        elif record[0] == "retry":
            _op, _txn, t, node, kind, attempt = record
            if kind == "poison":  # the ring names the stale seq instead
                spans[(kind, t, node)] += 1
            else:
                spans[(kind, t, node, attempt)] += 1
    # An invalidation round re-sends to several nodes under one span
    # record, so compare presence, not counts, for the retries.
    assert set(spans) <= set(ring)
    drops = Counter({k: v for k, v in spans.items() if k[0] == "drop"})
    assert not drops - ring
