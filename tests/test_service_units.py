"""Unit tests for the service's pure layers (`repro.service`).

Framing (RFC 6587 reassembly is deterministic in the byte stream alone),
the bounded ingress buffer's oldest-first shed arithmetic, deterministic
restart backoff, atomic JSON files, tenant-name validation, and the
growing-file tailer's torn-write handling (`repro.stream.sources
.LogTailer` — the satellite fix this PR makes to file tailing).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.buffer import BoundedLineBuffer
from repro.service.clock import FakeClock
from repro.service.files import read_json, touch_marker, write_json_atomic
from repro.service.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    TcpFrameDecoder,
    decode_datagram,
    encode_lf_delimited,
    encode_octet_counted,
)
from repro.service.profile import validate_tenant_name
from repro.service.supervisor import restart_backoff
from repro.stream.sources import LogTailer

LINES = [
    "<189>Oct 20 00:00:01.000 lax-core-01 %LINK-3-UPDOWN: down",
    "<189>Oct 20 00:00:02.500 sfo-edge-02 %LINEPROTO-5-UPDOWN: up",
    "short",
    "<190>Oct 20 00:00:03.000 sac-core-01 body with spaces",
]


def _decode_all(decoder: TcpFrameDecoder, data: bytes, chunk: int):
    items = []
    for start in range(0, len(data), chunk):
        items.extend(decoder.feed(data[start : start + chunk]))
    items.extend(decoder.close())
    return items


class TestTcpFrameDecoder:
    @pytest.mark.parametrize("encode", [encode_octet_counted, encode_lf_delimited])
    def test_chunk_boundaries_never_matter(self, encode):
        data = b"".join(encode(line) for line in LINES)
        whole = _decode_all(TcpFrameDecoder(), data, len(data))
        for chunk in (1, 2, 3, 7, 16):
            assert _decode_all(TcpFrameDecoder(), data, chunk) == whole
        assert whole == LINES

    def test_mode_autodetect(self):
        octet = TcpFrameDecoder()
        octet.feed(encode_octet_counted("x"))
        assert octet.mode == "octet"
        lf = TcpFrameDecoder()
        lf.feed(encode_lf_delimited("<1>x"))
        assert lf.mode == "lf"

    def test_torn_final_octet_frame_attributed_on_close(self):
        decoder = TcpFrameDecoder()
        data = encode_octet_counted(LINES[0]) + b"500 only-the-start"
        items = decoder.feed(data)
        assert items == [LINES[0]]
        (torn,) = decoder.close()
        assert isinstance(torn, FrameError)
        assert torn.reason == "torn-frame"
        assert torn.discarded == len(b"500 only-the-start")

    def test_torn_final_lf_line_attributed_on_close(self):
        decoder = TcpFrameDecoder()
        decoder.feed(b"<189>complete line\n<189>torn")
        (torn,) = decoder.close()
        assert torn.reason == "torn-frame"

    def test_bad_count_prefix_resyncs_at_lf(self):
        decoder = TcpFrameDecoder()
        data = (
            encode_octet_counted(LINES[0])
            + b"99x junk with no octet count\n"
            + encode_octet_counted(LINES[1])
        )
        items = decoder.feed(data)
        errors = [i for i in items if isinstance(i, FrameError)]
        assert [i for i in items if isinstance(i, str)] == [LINES[0], LINES[1]]
        assert len(errors) == 1 and errors[0].reason == "bad-frame"
        # Accounting closes to the byte: frames + discarded = stream.
        assert errors[0].discarded == len(b"99x junk with no octet count\n")

    def test_oversize_octet_frame_shed(self):
        decoder = TcpFrameDecoder(max_frame_bytes=64)
        data = f"{100} ".encode() + b"y" * 100 + b"\n" + encode_octet_counted("ok")
        items = decoder.feed(data)
        errors = [i for i in items if isinstance(i, FrameError)]
        assert len(errors) == 1 and errors[0].reason == "oversize-frame"
        assert items[-1] == "ok"

    def test_oversize_lf_line_shed(self):
        # With a late LF the error is emitted at the resync point...
        decoder = TcpFrameDecoder(max_frame_bytes=32)
        items = decoder.feed(b"<" + b"x" * 80 + b"\n<1>ok\n")
        assert [i.reason for i in items if isinstance(i, FrameError)] == [
            "oversize-frame"
        ]
        assert items[-1] == "<1>ok"
        # ...and with no LF before FIN, at close — discarding the same
        # total bytes either way.
        torn = TcpFrameDecoder(max_frame_bytes=32)
        assert torn.feed(b"<" + b"x" * 80) == []
        (error,) = torn.close()
        assert error.reason == "oversize-frame" and error.discarded == 81

    def test_crlf_tolerated_and_blank_lines_skipped(self):
        decoder = TcpFrameDecoder()
        assert decoder.feed(b"<1>a\r\n\n\n<1>b\n") == ["<1>a", "<1>b"]

    def test_feed_after_close_rejected(self):
        decoder = TcpFrameDecoder()
        decoder.close()
        with pytest.raises(ValueError):
            decoder.feed(b"x")

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=400), chunk=st.integers(1, 64))
    def test_fuzz_deterministic_and_total(self, data, chunk):
        # Arbitrary bytes: never raises, and chunking never changes output.
        whole = _decode_all(TcpFrameDecoder(max_frame_bytes=128), data, max(1, len(data)))
        split = _decode_all(TcpFrameDecoder(max_frame_bytes=128), data, chunk)
        assert split == whole
        consumed = sum(
            i.discarded if isinstance(i, FrameError) else 0 for i in whole
        )
        assert consumed <= len(data)


class TestDatagram:
    def test_strips_trailing_newlines(self):
        assert decode_datagram(b"<1>hello\r\n") == "<1>hello"

    def test_undecodable_bytes_survive(self):
        assert "�" in decode_datagram(b"<1>\xff\xfe")


class TestBoundedLineBuffer:
    def test_oldest_first_shed(self):
        buffer = BoundedLineBuffer(2)
        assert buffer.push("a") == []
        assert buffer.push("b") == []
        assert buffer.push("c") == ["a"]
        assert buffer.drain(10) == ["b", "c"]
        assert buffer.pushed == 3 and buffer.shed == 1

    def test_drain_respects_limit_and_order(self):
        buffer = BoundedLineBuffer(10)
        for index in range(5):
            buffer.push(str(index))
        assert buffer.drain(2) == ["0", "1"]
        assert len(buffer) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BoundedLineBuffer(0)
        with pytest.raises(ValueError):
            BoundedLineBuffer(1).drain(-1)

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        pushes=st.lists(st.text(max_size=4), max_size=40),
    )
    def test_fuzz_accounting_closes(self, capacity, pushes):
        buffer = BoundedLineBuffer(capacity)
        evicted = []
        for line in pushes:
            evicted.extend(buffer.push(line))
        assert buffer.pushed == len(pushes)
        assert buffer.shed == len(evicted)
        assert buffer.shed + len(buffer) == buffer.pushed
        # FIFO: survivors are exactly the newest `len(buffer)` pushes.
        assert buffer.drain(len(buffer)) == pushes[len(evicted) :]


class TestRestartBackoff:
    def test_deterministic(self):
        assert restart_backoff(7, "acme", 2, base=0.25, cap=5.0) == restart_backoff(
            7, "acme", 2, base=0.25, cap=5.0
        )

    def test_tenant_and_attempt_decorrelate(self):
        a = restart_backoff(7, "acme", 1, base=0.25, cap=5.0)
        b = restart_backoff(7, "zeus", 1, base=0.25, cap=5.0)
        c = restart_backoff(7, "acme", 2, base=0.25, cap=5.0)
        assert a != b and a != c

    def test_doubles_then_caps_within_jitter(self):
        for attempt in range(1, 12):
            delay = restart_backoff(3, "t", attempt, base=0.25, cap=5.0)
            ideal = min(5.0, 0.25 * 2.0 ** (attempt - 1))
            assert ideal * 0.75 <= delay <= ideal * 1.25

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            restart_backoff(3, "t", 0, base=0.25, cap=5.0)


class TestFakeClock:
    def test_sleep_advances_time(self):
        clock = FakeClock()
        start = clock.now()
        clock.sleep(2.5)
        assert clock.now() == start + 2.5

    def test_advance(self):
        clock = FakeClock()
        start = clock.now()
        clock.advance(10.0)
        assert clock.now() == start + 10.0


class TestAtomicFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_atomic(path, {"a": 1})
        assert read_json(path) == {"a": 1}

    def test_missing_and_damaged_read_as_none(self, tmp_path):
        assert read_json(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{torn", encoding="utf-8")
        assert read_json(bad) is None
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42", encoding="utf-8")
        assert read_json(scalar) is None

    def test_writes_exactly_what_json_dump_would(
        self, tmp_path, small_dataset, monkeypatch
    ):
        # One C-encoder pass and one write, byte-identical to the
        # streaming encoder, on the frontier document a real
        # save_checkpoint hands the writer.
        from repro.core.links import LinkResolver
        from repro.stream import checkpoint
        from repro.stream.engine import StreamEngine
        from repro.stream.sources import dataset_event_stream

        resolver = LinkResolver(small_dataset.inventory)
        engine = StreamEngine(
            resolver,
            small_dataset.analysis_start,
            small_dataset.horizon_end,
            small_dataset.listener_outages,
            small_dataset.tickets,
        )
        for index, event in enumerate(dataset_event_stream(small_dataset, resolver)):
            engine.process(event)
            if index == 3000:
                break
        documents = []

        def capture(path, document):
            documents.append(document)
            write_json_atomic(path, document)

        monkeypatch.setattr(checkpoint, "write_json_atomic", capture)
        written = tmp_path / "engine.ckpt"
        checkpoint.save_checkpoint(str(written), engine)
        (document,) = documents
        assert document["timelines"]["syslog"] and document["segment"]["length"]
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        assert written.read_bytes() == reference.read_bytes()

    def test_no_temp_file_left_behind(self, tmp_path):
        write_json_atomic(tmp_path / "doc.json", {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_touch_marker(self, tmp_path):
        marker = tmp_path / "stop"
        touch_marker(marker)
        assert marker.exists()


class TestTenantNames:
    @pytest.mark.parametrize("name", ["acme", "net-1", "a.b_c", "X" * 64])
    def test_safe_names_pass(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "../escape", "a/b", "a b", ".hidden", "X" * 65, "naïve"]
    )
    def test_unsafe_names_rejected(self, name):
        with pytest.raises(ValueError):
            validate_tenant_name(name)


class TestLogTailer:
    """The growing-file torn-write fix: partial final lines are buffered
    until their newline arrives, never parsed as truncated lines."""

    def test_byte_at_a_time_growth(self, tmp_path):
        # The regression: append the journal one byte per poll.  A naive
        # tailer would release the partial tail at nearly every poll; the
        # fixed tailer must release each line exactly once, complete.
        path = tmp_path / "journal.log"
        payload = "".join(f"{line}\n" for line in LINES).encode("utf-8")
        tailer = LogTailer(path)
        seen = []
        with open(path, "ab") as handle:
            for index in range(len(payload)):
                handle.write(payload[index : index + 1])
                handle.flush()
                seen.extend(tailer.poll())
        assert seen == LINES
        assert tailer.offset == len(payload)
        assert tailer.close_partial() is None

    def test_partial_tail_held_back_then_completed(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_bytes(b"complete line\npartial")
        tailer = LogTailer(path)
        assert tailer.poll() == ["complete line"]
        assert tailer.pending_bytes == len(b"partial")
        assert tailer.offset == len(b"complete line\n")
        with open(path, "ab") as handle:
            handle.write(b" now done\n")
        assert tailer.poll() == ["partial now done"]
        assert tailer.pending_bytes == 0

    def test_close_partial_attributes_torn_tail(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_bytes(b"done\ntorn-by-crash")
        tailer = LogTailer(path)
        assert tailer.poll() == ["done"]
        assert tailer.close_partial() == "torn-by-crash"
        assert tailer.offset == len(b"done\ntorn-by-crash")

    def test_missing_file_yields_nothing(self, tmp_path):
        tailer = LogTailer(tmp_path / "not-yet-created.log")
        assert tailer.poll() == []

    def test_resume_from_offset(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_bytes(b"one\ntwo\nthree\n")
        first = LogTailer(path)
        assert first.poll() == ["one", "two", "three"]
        resumed = LogTailer(path, start_offset=len(b"one\n"))
        assert resumed.poll() == ["two", "three"]

    @settings(max_examples=50, deadline=None)
    @given(
        lines=st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters="\n", blacklist_categories=("Cs",)
                ),
                max_size=12,
            ),
            max_size=8,
        ),
        chunk=st.integers(1, 16),
    )
    def test_fuzz_chunked_growth_equals_whole(self, lines, chunk):
        payload = "".join(f"{line}\n" for line in lines).encode("utf-8")
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "journal.log"
            tailer = LogTailer(path)
            seen = []
            with open(path, "ab") as handle:
                for start in range(0, len(payload), chunk):
                    handle.write(payload[start : start + chunk])
                    handle.flush()
                    seen.extend(tailer.poll())
            assert seen == lines
            assert tailer.offset == len(payload)
