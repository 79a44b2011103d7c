"""Tests for the Chrome trace-event / Perfetto exporter."""

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs.schema import load_schema, validate
from repro.obs.timeline import (
    TID_CACHE,
    TID_DIRECTORY,
    TID_NET_FAULTS,
    TID_NET_MESSAGES,
    TID_NET_RETRIES,
    TID_PRED_CACHE,
    TID_PRED_DIRECTORY,
    export_trace_events,
    save_trace_events,
    validate_trace_events,
)

SCHEMA_PATH = (
    Path(__file__).resolve().parents[2] / "docs" / "trace_event.schema.json"
)

N_NODES = 4
NET_PID = N_NODES


def real_events(event, *, n=1):
    """Non-metadata events from an exported document."""
    return [e for e in event["traceEvents"] if e["ph"] != "M"]


class TestLaneRouting:
    def test_send_is_a_duration_slice_on_the_messages_lane(self):
        doc = export_trace_events(
            [(1000, "net", "send", 2, 0x40,
              {"dst": 3, "mtype": "GET_RO_REQUEST", "delay_ns": 80})],
            N_NODES,
        )
        (event,) = real_events(doc)
        assert event["pid"] == NET_PID
        assert event["tid"] == TID_NET_MESSAGES
        assert event["ph"] == "X"
        assert event["ts"] == 1.0  # ns -> us
        assert event["dur"] == 0.08
        assert event["name"] == "GET_RO_REQUEST 0x40"
        assert event["args"] == {"src": 2, "dst": 3, "block": "0x40"}

    def test_deliver_routes_to_receiver_role_thread(self):
        doc = export_trace_events(
            [
                (5, "net", "deliver", 1, 0x80,
                 {"src": 0, "mtype": "GET_RO_RESPONSE", "role": "cache"}),
                (6, "net", "deliver", 1, 0x80,
                 {"src": 0, "mtype": "GET_RO_REQUEST", "role": "directory"}),
            ],
            N_NODES,
        )
        cache, directory = real_events(doc)
        assert (cache["pid"], cache["tid"]) == (1, TID_CACHE)
        assert (directory["pid"], directory["tid"]) == (1, TID_DIRECTORY)
        assert cache["ph"] == "i"
        assert cache["s"] == "t"  # thread-scoped instant

    def test_faults_route_to_the_faults_lane(self):
        for name in ("drop", "dup", "reorder"):
            doc = export_trace_events(
                [(0, "net", name, 0, 0x40, {"dst": 1})], N_NODES
            )
            (event,) = real_events(doc)
            assert (event["pid"], event["tid"]) == (NET_PID, TID_NET_FAULTS)
            assert event["cat"] == "fault"

    def test_retries_route_to_the_retries_lane(self):
        for name in ("retry", "poison", "inval-retry"):
            doc = export_trace_events(
                [(0, "proto", name, 2, 0x40, {"attempt": 1})], N_NODES
            )
            (event,) = real_events(doc)
            assert (event["pid"], event["tid"]) == (NET_PID, TID_NET_RETRIES)
            assert "P2" in event["name"]

    def test_state_transitions_route_by_module(self):
        doc = export_trace_events(
            [
                (0, "proto", "cache-state", 1, 0x40,
                 {"from": "invalid", "to": "shared"}),
                (1, "proto", "dir-state", 2, 0x40,
                 {"from": "idle", "to": "shared"}),
            ],
            N_NODES,
        )
        cache, directory = real_events(doc)
        assert (cache["pid"], cache["tid"]) == (1, TID_CACHE)
        assert (directory["pid"], directory["tid"]) == (2, TID_DIRECTORY)
        assert cache["name"] == "0x40 invalid→shared"

    def test_pred_events_route_to_predictor_threads(self):
        doc = export_trace_events(
            [
                (0, "pred", "observe", 0, 0x40,
                 {"role": "cache", "hit": True}),
                (1, "pred", "observe", 0, 0x40,
                 {"role": "directory", "hit": False}),
            ],
            N_NODES,
        )
        cache, directory = real_events(doc)
        assert cache["tid"] == TID_PRED_CACHE
        assert cache["name"] == "hit 0x40"
        assert directory["tid"] == TID_PRED_DIRECTORY
        assert directory["name"] == "miss 0x40"

    def test_unknown_category_still_lands_somewhere(self):
        doc = export_trace_events(
            [(0, "custom", "thing", 99, 0x40, None)], N_NODES
        )
        (event,) = real_events(doc)
        # Node 99 is out of range, so the event lands on the net lane.
        assert event["pid"] == NET_PID
        assert event["name"] == "custom.thing"


class TestMetadata:
    def test_thread_names_only_for_used_lanes(self):
        doc = export_trace_events(
            [(0, "net", "deliver", 1, 0x40,
              {"src": 0, "mtype": "M", "role": "cache"})],
            N_NODES,
        )
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
        assert named_pids == {1}  # only node 1 saw an event
        thread_names = [
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        ]
        assert thread_names == ["cache"]

    def test_other_data_counts_and_manifest(self):
        manifest = {"schema_version": 1, "command": "test"}
        doc = export_trace_events(
            [(0, "net", "drop", 0, 0x40, {"dst": 1})],
            N_NODES,
            manifest=manifest,
            dropped=17,
        )
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"]["events"] == 1
        assert doc["otherData"]["dropped_events"] == 17
        assert doc["otherData"]["manifest"] == manifest

    def test_empty_log_exports_cleanly(self):
        doc = export_trace_events([], N_NODES)
        assert doc["traceEvents"] == []
        assert doc["otherData"]["events"] == 0
        assert validate_trace_events(doc) == []


class TestSchemaConformance:
    def test_export_validates_against_checked_in_schema(self):
        from repro.obs.manifest import build_manifest

        events = [
            (0, "net", "send", 0, 0x40,
             {"dst": 1, "mtype": "GET_RO_REQUEST", "delay_ns": 80}),
            (80, "net", "deliver", 1, 0x40,
             {"src": 0, "mtype": "GET_RO_REQUEST", "role": "directory"}),
            (90, "proto", "dir-state", 1, 0x40,
             {"from": "idle", "to": "shared"}),
            (100, "proto", "retry", 0, 0x40, {"attempt": 1}),
            (110, "net", "drop", 0, 0x40, {"dst": 1}),
            (120, "pred", "observe", 1, 0x40,
             {"role": "directory", "hit": False}),
        ]
        doc = export_trace_events(
            events,
            N_NODES,
            manifest=build_manifest("unit-test", seed=3),
            dropped=0,
        )
        schema = load_schema(SCHEMA_PATH)
        assert validate(doc, schema) == []
        assert validate_trace_events(doc) == []

    def test_schema_rejects_malformed_event(self):
        schema = load_schema(SCHEMA_PATH)
        doc = export_trace_events([], N_NODES)
        doc["traceEvents"].append({"ph": "i", "pid": 0})  # no tid/name
        assert validate(doc, schema)


class TestValidate:
    def test_top_level_must_be_object(self):
        assert validate_trace_events([]) == [
            "top level must be an object, got list"
        ]

    def test_missing_sections(self):
        errors = validate_trace_events({})
        assert "traceEvents must be a list" in errors
        assert "displayTimeUnit must be a string" in errors

    def test_bad_phase_and_fields(self):
        errors = validate_trace_events(
            {
                "traceEvents": [
                    {"ph": "Q", "pid": "x", "tid": 0, "name": 3, "ts": -1}
                ],
                "displayTimeUnit": "ns",
                "otherData": {},
            }
        )
        joined = "\n".join(errors)
        assert "bad phase 'Q'" in joined
        assert "pid must be an integer" in joined
        assert "name must be a string" in joined
        assert "ts must be a non-negative number" in joined

    def test_duration_slices_need_dur(self):
        errors = validate_trace_events(
            {
                "traceEvents": [
                    {"ph": "X", "pid": 0, "tid": 0, "name": "s", "ts": 1}
                ],
                "displayTimeUnit": "ns",
                "otherData": {},
            }
        )
        assert any("dur" in error for error in errors)

    def test_error_flood_is_capped(self):
        errors = validate_trace_events(
            {
                "traceEvents": [{}] * 100,
                "displayTimeUnit": "ns",
                "otherData": {},
            }
        )
        assert errors[-1] == "... (more errors suppressed)"
        assert len(errors) <= 22


class TestSave:
    def test_save_creates_parent_dirs_and_roundtrips(self, tmp_path):
        doc = export_trace_events(
            [(0, "net", "drop", 0, 0x40, {"dst": 1})], N_NODES
        )
        path = tmp_path / "deep" / "nested" / "timeline.json"
        written = save_trace_events(doc, path)
        assert written == path
        assert json.loads(path.read_text()) == doc

    def test_invalid_document_writes_nothing(self, tmp_path):
        path = tmp_path / "timeline.json"
        with pytest.raises(ReproError, match="failed validation") as info:
            save_trace_events({"traceEvents": [{"ph": "?"}] * 10}, path)
        # Only the first five problems are named.
        assert str(info.value).count("traceEvents[") <= 5
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestSpanExport:
    def _closed_txn(self):
        from repro.obs.spans import build_transactions

        records = [
            ("open", 3, 100, 2, 1, 0x80, "write"),
            ("xfer", 3, 100, 2, 1, 1, 160, False),
            ("xfer", 3, 300, 1, 2, 8, 160, False),
            ("close", 3, 460, 2),
        ]
        return build_transactions(records).values()

    def test_closed_transaction_emits_async_and_flow_pairs(self):
        doc = export_trace_events([], N_NODES, spans=self._closed_txn())
        events = real_events(doc)
        by_phase = {}
        for event in events:
            by_phase.setdefault(event["ph"], []).append(event)
        (begin,) = by_phase["b"]
        (end,) = by_phase["e"]
        assert begin["id"] == end["id"] == "txn-3"
        assert begin["pid"] == end["pid"] == 2  # requester's lane
        assert (begin["ts"], end["ts"]) == (0.1, 0.46)  # ns -> us
        assert len(by_phase["s"]) == len(by_phase["f"]) == 2
        starts = {e["id"]: e for e in by_phase["s"]}
        finishes = {e["id"]: e for e in by_phase["f"]}
        assert set(starts) == set(finishes) == {"txn-3-x0", "txn-3-x1"}
        assert starts["txn-3-x0"]["pid"] == 2  # flows hop src -> dst
        assert finishes["txn-3-x0"]["pid"] == 1

    def test_open_transactions_are_skipped(self):
        from repro.obs.spans import build_transactions

        records = [
            ("open", 1, 0, 0, 1, 0x40, "read"),
            ("xfer", 1, 0, 0, 1, 0, 160, False),
        ]
        spans = build_transactions(records).values()
        doc = export_trace_events([], N_NODES, spans=spans)
        assert real_events(doc) == []

    def test_span_export_passes_validator_and_schema(self):
        doc = export_trace_events([], N_NODES, spans=self._closed_txn())
        assert validate_trace_events(doc) == []
        errors = validate(doc, load_schema(SCHEMA_PATH))
        assert errors == []

    def test_flow_events_without_id_fail_validation(self):
        errors = validate_trace_events(
            {
                "traceEvents": [
                    {"ph": "s", "pid": 0, "tid": 0, "name": "hop", "ts": 1}
                ],
                "displayTimeUnit": "ns",
                "otherData": {},
            }
        )
        assert any("string id" in error for error in errors)
