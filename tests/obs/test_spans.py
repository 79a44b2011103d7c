"""Tests for causal transaction spans: capture and offline rebuild."""

import dataclasses

import pytest

from repro.obs.log import OBS, ObsLog
from repro.obs.spans import build_transactions, format_span_tree
from repro.protocol.messages import MessageType
from repro.protocol.stache import DEFAULT_OPTIONS
from repro.sim.faults import PRESETS
from repro.sim.machine import simulate
from repro.workloads.moldyn import MolDyn

TINY = dict(force_blocks=4, coord_blocks=4, cold_blocks=0)


@pytest.fixture(autouse=True)
def spans_off_after():
    yield
    OBS.disable()
    OBS.set_clock(None)


def traced_run(workload, iterations, **kwargs):
    OBS.set_spans(True)
    try:
        simulate(workload, iterations=iterations, **kwargs)
        transactions = build_transactions(OBS.records)
        open_ids = {t.txn for t in transactions.values() if not t.closed}
        return transactions, open_ids
    finally:
        OBS.set_spans(False)


class TestTracer:
    def test_disabled_by_default_and_after_disable(self):
        tracer = ObsLog()
        assert not tracer.spans
        tracer.set_spans(True)
        tracer.span_open(0, 1, 0x40, "read")
        tracer.disable()
        assert not tracer.spans
        assert tracer.records == []

    def test_ids_are_fresh_per_enable(self):
        tracer = ObsLog()
        tracer.set_spans(True)
        first = tracer.span_open(0, 1, 0x40, "read")
        tracer.set_spans(True)
        again = tracer.span_open(0, 1, 0x40, "read")
        assert first == again == 1

    def test_close_record_closes_the_transaction(self):
        tracer = ObsLog()
        tracer.set_spans(True)
        txn = tracer.span_open(0, 1, 0x40, "write")
        assert not build_transactions(tracer.records)[txn].closed
        tracer.span("close", txn, 0)
        assert build_transactions(tracer.records)[txn].closed

    def test_span_switch_keeps_the_ring_level(self):
        tracer = ObsLog()
        tracer.configure("proto")
        tracer.set_spans(True)
        assert tracer.proto and not tracer.msg
        assert tracer.proto_or_spans and tracer.msg_or_spans
        tracer.set_spans(False)
        assert tracer.proto_or_spans and not tracer.msg_or_spans
        tracer.configure("off")
        assert not tracer.proto_or_spans


class TestBuildTransactions:
    def test_folds_records_into_one_transaction(self):
        records = [
            ("open", 7, 100, 2, 1, 0x80, "write"),
            ("xfer", 7, 100, 2, 1, 1, 160, False),
            ("admit", 7, 260, 1),
            ("start", 7, 260, 1),
            ("finish", 7, 300, 1),
            ("xfer", 7, 300, 1, 2, 8, 160, False),
            ("close", 7, 460, 2),
        ]
        (txn,) = build_transactions(records).values()
        assert (txn.txn, txn.requester, txn.home) == (7, 2, 1)
        assert (txn.block, txn.kind) == (0x80, "write")
        assert (txn.t_open, txn.t_close) == (100, 460)
        assert txn.duration_ns == 360
        assert txn.admits == [260] and txn.starts == [260]
        assert [x.arrive_ns for x in txn.xfers] == [260, 460]
        assert not txn.is_local and txn.closed

    def test_unopened_ids_are_ignored(self):
        records = [("close", 9, 50, 0), ("admit", 9, 40, 1)]
        assert build_transactions(records) == {}

    def test_first_close_wins(self):
        records = [
            ("open", 1, 0, 0, 1, 0x40, "read"),
            ("close", 1, 10, 0),
            ("close", 1, 99, 0),
        ]
        (txn,) = build_transactions(records).values()
        assert txn.t_close == 10


class TestTracedRun:
    def test_reliable_run_closes_every_span(self):
        transactions, open_ids = traced_run(MolDyn(**TINY), 3, seed=1)
        assert open_ids == set()
        assert transactions
        assert all(txn.closed for txn in transactions.values())

    def test_remote_transactions_have_request_and_response(self):
        transactions, _ = traced_run(MolDyn(**TINY), 3, seed=1)
        remote = [t for t in transactions.values() if not t.is_local]
        assert remote
        for txn in remote:
            sends = [x for x in txn.xfers if x.src == txn.requester]
            backs = [x for x in txn.xfers if x.dst == txn.requester]
            assert sends and backs
            assert max(x.arrive_ns for x in txn.xfers) == txn.t_close

    def test_span_tree_is_deterministic(self):
        first, _ = traced_run(MolDyn(**TINY), 3, seed=1)
        second, _ = traced_run(MolDyn(**TINY), 3, seed=1)
        assert [format_span_tree(t) for t in first.values()] == [
            format_span_tree(t) for t in second.values()
        ]

    def test_origin_forwarding_propagates_ids(self):
        options = dataclasses.replace(DEFAULT_OPTIONS, forwarding=True)
        transactions, open_ids = traced_run(
            MolDyn(**TINY), 3, seed=1, options=options
        )
        assert open_ids == set()
        forwarded = [
            t
            for t in transactions.values()
            if any(
                x.mtype
                in (
                    MessageType.FWD_GET_RO_REQUEST.value,
                    MessageType.FWD_GET_RW_REQUEST.value,
                )
                for x in t.xfers
            )
        ]
        assert forwarded, "no forwarded transaction was traced"
        assert all(t.closed for t in forwarded)


class TestFaultedRetryNesting:
    """Regression: retried sends nest under their retry span (ISSUE PR 8)."""

    def _faulted_transactions(self):
        transactions, open_ids = traced_run(
            MolDyn(**TINY),
            4,
            seed=2,
            faults=PRESETS["moderate"],
            fault_seed=3,
        )
        assert open_ids == set()
        return transactions

    def test_retried_transactions_close_and_nest(self):
        transactions = self._faulted_transactions()
        retried = [t for t in transactions.values() if t.retries]
        assert retried, "moderate faults produced no retries"
        nested_anywhere = False
        for txn in retried:
            assert txn.closed
            tree = format_span_tree(txn)
            lines = tree.splitlines()
            for t, node, kind, attempt in txn.retries:
                label = f"  [{t}] retry ({kind} #{attempt}) at P{node}"
                assert label in lines, tree
                resent = [
                    x for x in txn.xfers if x.send_ns == t and x.src == node
                ]
                if not resent:
                    continue
                nested_anywhere = True
                index = lines.index(label)
                block = []
                for line in lines[index + 1 :]:
                    if not line.startswith("    "):
                        break
                    block.append(line.strip())
                for x in resent:
                    assert any(
                        f"[{x.send_ns}..{x.arrive_ns}]" in inner
                        for inner in block
                    ), tree
        assert nested_anywhere, "no retry re-sent a traced transfer"

    def test_dup_copies_are_marked(self):
        transactions = self._faulted_transactions()
        dups = [
            t
            for t in transactions.values()
            if any(x.dup for x in t.xfers)
        ]
        assert dups, "moderate faults produced no duplicate deliveries"
        tree = format_span_tree(dups[0])
        assert "(dup copy)" in tree
