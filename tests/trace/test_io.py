"""Tests for trace persistence."""

import gzip
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.protocol.messages import MessageType, Role
from repro.trace.events import TraceEvent
from repro.trace.io import iter_trace, load_trace, save_trace


def sample_events():
    return [
        TraceEvent(10, 1, 2, Role.CACHE, 0x40, 0, MessageType.GET_RO_RESPONSE),
        TraceEvent(
            25, 1, 0, Role.DIRECTORY, 0x40, 2, MessageType.UPGRADE_REQUEST
        ),
        TraceEvent(
            99, 3, 5, Role.CACHE, 0x1000, 1, MessageType.INVAL_RW_REQUEST
        ),
    ]


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = sample_events()
        count = save_trace(events, path)
        assert count == 3
        assert load_trace(path) == events

    def test_iter_is_lazy_equal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(sample_events(), path)
        assert list(iter_trace(path)) == sample_events()

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_trace([], path) == 0
        assert load_trace(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(sample_events(), path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_trace(path)) == 3

    def test_simulated_trace_roundtrip(self, tmp_path, producer_consumer_trace):
        path = tmp_path / "sim.jsonl"
        save_trace(producer_consumer_trace, path)
        assert load_trace(path) == list(producer_consumer_trace)


class TestMalformed:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError) as exc:
            load_trace(path)
        assert ":1:" in str(exc.value)

    def test_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_unknown_role_code(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1,1,1,"x",0,0,0]\n')
        with pytest.raises(TraceError):
            load_trace(path)

    def test_unknown_message_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1,1,1,"c",0,0,99]\n')
        with pytest.raises(TraceError):
            load_trace(path)

    def test_truncated_last_line_names_path_and_lineno(self, tmp_path):
        """A half-written final record (killed writer) is pinpointed."""
        path = tmp_path / "trunc.jsonl"
        save_trace(sample_events(), path)
        with open(path, "a") as handle:
            handle.write("[99,3,5,")  # no newline: interrupted mid-record
        with pytest.raises(TraceError) as exc:
            load_trace(path)
        message = str(exc.value)
        assert str(path) in message
        assert ":4:" in message
        assert "truncated or invalid JSON" in message

    def test_wrong_arity_reports_field_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(TraceError, match="expected 7 fields.*got 3 fields"):
            load_trace(path)

    def test_non_list_record_reports_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1}\n')
        with pytest.raises(TraceError, match="got dict"):
            load_trace(path)

    def test_error_lineno_is_one_based_past_blanks(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_trace(sample_events()[:1], path)
        with open(path, "a") as handle:
            handle.write("\n\nnot json\n")
        with pytest.raises(TraceError) as exc:
            load_trace(path)
        assert ":4:" in str(exc.value)

    def test_trailing_blank_lines_tolerated_before_eof(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(sample_events(), path)
        with open(path, "a") as handle:
            handle.write("\n   \n\t\n")
        assert load_trace(path) == sample_events()


GOLDEN_TRACES = sorted(
    (Path(__file__).parent.parent / "data").glob("*_quick_seed0.jsonl.gz")
)


class TestBulkLoad:
    """``load_trace`` equals ``list(iter_trace(...))`` on every file."""

    def test_five_golden_traces(self, tmp_path):
        assert len(GOLDEN_TRACES) == 5
        for golden in GOLDEN_TRACES:
            path = tmp_path / golden.stem
            path.write_bytes(gzip.decompress(golden.read_bytes()))
            events = load_trace(path)
            assert events, golden.name
            assert events == list(iter_trace(path)), golden.name

    def _expect_iter_trace_error(self, path, lineno):
        with pytest.raises(TraceError) as streamed:
            list(iter_trace(path))
        with pytest.raises(TraceError) as loaded:
            load_trace(path)
        assert str(loaded.value) == str(streamed.value)
        assert f"{path}:{lineno}:" in str(loaded.value)

    def test_record_split_over_two_lines_is_refused(self, tmp_path):
        # Joined, the two lines parse as two good records.
        path = tmp_path / "split.jsonl"
        path.write_text(
            '[10,1,2,"c",64,0,6],[25,1,0,"d",64,2\n'
            "2]\n"
        )
        self._expect_iter_trace_error(path, 1)

    def test_two_records_on_one_line_are_refused(self, tmp_path):
        path = tmp_path / "double.jsonl"
        save_trace(sample_events()[:1], path)
        with open(path, "a") as handle:
            handle.write('[25,1,0,"d",64,2,2],[99,3,5,"c",4096,1,9]\n')
        self._expect_iter_trace_error(path, 2)

    def test_non_canonical_layout_loads_like_iter_trace(self, tmp_path):
        path = tmp_path / "loose.jsonl"
        path.write_bytes(
            b"\r\n"
            b'[10, 1, 2, "c", 64, 0, 6]\r\n'
            b"\r\n"
            b'  [25,1,0,"d",64,2,2]\r\n'
            b"\n"
            b'[99, 3,5,"c",4096,1,9]  \r\n'
            b"\t\n"
        )
        assert load_trace(path) == list(iter_trace(path))
        assert len(load_trace(path)) == 3

    @pytest.mark.parametrize(
        "line",
        [
            '[1,1,1,"x",0,0,0]',  # unknown role
            '[1,1,1,"c",0,0,99]',  # unknown message type
            '[1,1,1,"c",0,0,-1]',  # negative message type
            '[1,1,1,"c",0,0,1.0]',  # float message type
            '[1,1,1,"c",0,0,true]',  # boolean message type
            '[1,1,1,"c",0,0]',  # six fields
            '[1,1,1,"c",0,0,0,0]',  # eight fields
            '[1,1,1,{"c":0},0,0,0]',  # object role
        ],
    )
    def test_non_canonical_record_behaves_as_in_iter_trace(
        self, tmp_path, line
    ):
        path = tmp_path / "odd.jsonl"
        save_trace(sample_events(), path)
        with open(path, "a") as handle:
            handle.write(line + "\n")
        try:
            streamed = list(iter_trace(path))
        except TraceError:
            self._expect_iter_trace_error(path, 4)
        else:
            assert load_trace(path) == streamed
