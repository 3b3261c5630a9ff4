"""Unit tests for the fault-injection subsystem (`repro.faults`).

Three layers are covered here, bottom-up:

* the injectors themselves — every corruptor is a deterministic function
  of (artifact bytes, seeded rng), and each produces exactly the damage
  shape it advertises;
* the drop ledger (`IngestReport`) that lenient ingestion fills;
* the hardened readers fed the injectors' output — MRT salvage at every
  possible truncation offset, strict errors that name the record index
  and byte offset (and close the stream), and checkpoint corruption
  surfacing as typed `CheckpointError`;
* the ingestion contract: every entry point that takes `report=` hands
  its ledger down to the lowest layer, and raises without one.

The end-to-end composition of all three is `repro chaos`
(tests/test_faults_chaos.py).
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct

import pytest

from repro.columnar import ingest as columnar_ingest
from repro.columnar import parse_log_columnar
from repro.core.extract_isis import extract_isis, replay_lsp_records
from repro.core.links import LinkResolver
from repro.core.pipeline import run_analysis
from repro.faults.injectors import (
    CHECKPOINT_MODES,
    INJECTOR_NAMES,
    _mrt_record_spans,
    bitflip_mrt_payloads,
    corrupt_checkpoint,
    corrupt_mrt_length,
    corrupt_segment,
    inject_garbage_lines,
    truncate_log_lines,
    truncate_mrt,
)
from repro.faults.ledger import (
    CHANNEL_ISIS,
    CHANNEL_SYSLOG,
    SAMPLE_LIMIT,
    IngestReport,
    clip_sample,
)
from repro.intervals import IntervalSet
from repro.isis.lsp import LspDecodeError
from repro.isis.mrt import (
    _MAX_RECORD,
    _RECORD_HEADER,
    MAGIC,
    MrtDumpReader,
    MrtDumpWriter,
    MrtFormatError,
)
from repro.simulation.dataset import Dataset
from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    decode_engine,
    load_checkpoint,
)
from repro.stream.engine import stream_dataset
from repro.stream.sources import dataset_event_stream, isis_events, syslog_events
from repro.syslog.collector import LENIENT_ERRORS, SyslogCollector
from repro.syslog.message import SyslogMessage, SyslogParseError
from repro.util.rand import child_rng


def sample_log() -> bytes:
    lines = [
        SyslogMessage(10.0 * i, f"rtr-{i:02d}", f"test body number {i}").render()
        for i in range(20)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


#: Payloads are constant non-zero bytes so every record passes the bitflip
#: injector's candidate filter (length > 12, lifetime bytes non-zero).
PAYLOADS = [bytes([i + 1]) * (16 + 3 * i) for i in range(6)]


def build_archive(payloads=PAYLOADS) -> bytes:
    buffer = io.BytesIO()
    writer = MrtDumpWriter(buffer)
    for i, payload in enumerate(payloads):
        writer.write(float(i), payload)
    return buffer.getvalue()


def rng(label: str = "test"):
    return child_rng(7, label)


# ---------------------------------------------------------------- injectors
class TestInjectorDeterminism:
    """Same (artifact, seed) -> same corruption, byte for byte."""

    def test_all_injectors_are_deterministic(self):
        log, archive = sample_log(), build_archive()
        checkpoint = json.dumps({"version": 1, "state": list(range(64))}).encode()
        runs = {
            "garbage": lambda r: inject_garbage_lines(log, r),
            "log-truncate": lambda r: truncate_log_lines(log, r),
            "mrt-truncate": lambda r: truncate_mrt(archive, r),
            "mrt-bitflip": lambda r: bitflip_mrt_payloads(archive, r),
            "mrt-badlength": lambda r: corrupt_mrt_length(archive, r),
            **{
                f"ckpt-{mode}": (
                    lambda r, m=mode: corrupt_checkpoint(checkpoint, r, m)
                )
                for mode in CHECKPOINT_MODES
            },
        }
        for label, corrupt in runs.items():
            first = corrupt(rng(label))
            second = corrupt(rng(label))
            assert first == second, f"{label} is not seed-deterministic"

    def test_different_labels_give_different_damage(self):
        log = sample_log()
        assert inject_garbage_lines(log, rng("a")) != inject_garbage_lines(
            log, rng("b")
        )


class TestLogInjectors:
    def test_garbage_lines_are_added_not_substituted(self):
        log = sample_log()
        damaged = inject_garbage_lines(log, rng(), count=8)
        original_lines = log.split(b"\n")
        damaged_lines = damaged.split(b"\n")
        assert len(damaged_lines) == len(original_lines) + 8
        # Every original line survives, in order.
        survivors = [line for line in damaged_lines if line in original_lines]
        assert survivors == original_lines

    def test_truncate_cuts_lines_without_adding_or_removing_any(self):
        log = sample_log()
        damaged = truncate_log_lines(log, rng(), count=5)
        original_lines = log.split(b"\n")
        damaged_lines = damaged.split(b"\n")
        assert len(damaged_lines) == len(original_lines)
        cut = [
            (before, after)
            for before, after in zip(original_lines, damaged_lines)
            if before != after
        ]
        assert len(cut) == 5
        for before, after in cut:
            assert before.startswith(after) and len(after) < len(before)


    @pytest.mark.parametrize(
        "body, garbage",
        [("test body number", 0), ("lien coupé → hors service n°", 6)],
    )
    def test_lenient_syslog_drop_offsets_are_byte_exact(self, body, garbage):
        lines = [
            SyslogMessage(10.0 * i, f"rtr-{i:02d}", f"{body} {i}").render()
            for i in range(20)
        ]
        log = ("\n".join(lines) + "\n").encode("utf-8")
        if garbage:
            log = inject_garbage_lines(log, rng(), count=garbage)
        damaged = truncate_log_lines(log, rng("cut"), count=8)
        text = damaged.decode("utf-8", errors="replace")
        assert text.isascii() == (not garbage)

        drops = []

        class RecordingReport(IngestReport):
            def record(self, *args, **kwargs):
                drops.append(super().record(*args, **kwargs))
                return drops[-1]

        SyslogCollector.parse_log(text, report=RecordingReport())
        assert drops
        starts = [0]
        for line in text.split("\n"):
            starts.append(starts[-1] + len(line) + 1)
        for drop in drops:
            start = starts[drop.index - 1]
            assert drop.offset == len(text[:start].encode("utf-8", "surrogatepass"))
        if garbage:
            # Some drop follows a multi-byte character, so a character
            # count would be wrong there.
            assert any(drop.offset != starts[drop.index - 1] for drop in drops)


class _RecordingReport(IngestReport):
    """An ingest report that also keeps every drop record it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.drops = []

    def record(self, *args, **kwargs):
        self.drops.append(super().record(*args, **kwargs))
        return self.drops[-1]


class TestLenientOffsetsOnFiles:
    """Drops found after undecodable bytes point at their line in the file."""

    @staticmethod
    def _damage(raw: bytes) -> bytes:
        damaged = inject_garbage_lines(raw, rng("file-garbage"), count=12)
        damaged = truncate_log_lines(damaged, rng("file-cut"), count=8)
        with pytest.raises(UnicodeDecodeError):
            damaged.decode("utf-8")
        return damaged

    @staticmethod
    def _assert_at_line_starts(raw: bytes, drops) -> None:
        starts = [0]
        for line in raw.split(b"\n"):
            starts.append(starts[-1] + len(line) + 1)
        assert len(drops) >= 12
        for drop in drops:
            assert drop.offset == starts[drop.index - 1], drop

    def test_read_log(self, tmp_path):
        lines = [
            SyslogMessage(10.0 * i, f"rtr-{i:02d}", f"lien coupé n°{i}").render()
            for i in range(40)
        ]
        raw = self._damage(("\n".join(lines) + "\n").encode("utf-8"))
        path = tmp_path / "syslog.log"
        path.write_bytes(raw)
        report = _RecordingReport()
        SyslogCollector.read_log(path, report=report)
        self._assert_at_line_starts(raw, report.drops)

    @pytest.mark.parametrize("ingest", ["scalar", "columnar"])
    def test_dataset_load(self, tmp_path, small_dataset, ingest):
        small_dataset.save(tmp_path)
        log = tmp_path / "syslog.log"
        raw = self._damage(log.read_bytes())
        log.write_bytes(raw)
        dataset = Dataset.load(
            tmp_path, small_dataset.network, report=IngestReport()
        )
        parse = (
            SyslogCollector.parse_log if ingest == "scalar" else parse_log_columnar
        )
        report = _RecordingReport()
        parse(dataset.syslog_text, report=report)
        self._assert_at_line_starts(raw, report.drops)

    def test_dataset_saves_the_bytes_it_loaded(self, tmp_path, small_dataset):
        small_dataset.save(tmp_path / "damaged")
        log = tmp_path / "damaged" / "syslog.log"
        raw = self._damage(log.read_bytes())
        log.write_bytes(raw)
        dataset = Dataset.load(
            tmp_path / "damaged", small_dataset.network, report=IngestReport()
        )
        dataset.save(tmp_path / "copy")
        assert (tmp_path / "copy" / "syslog.log").read_bytes() == raw


class TestMrtInjectors:
    def test_truncate_cuts_strictly_inside_a_record(self):
        archive = build_archive()
        damaged = truncate_mrt(archive, rng())
        assert damaged == archive[: len(damaged)]
        assert len(damaged) < len(archive)
        assert damaged.startswith(MAGIC)
        boundaries = {len(MAGIC)} | {
            offset + _RECORD_HEADER.size + length
            for offset, length in _mrt_record_spans(archive)
        }
        assert len(damaged) not in boundaries

    def test_bitflip_preserves_framing_and_headers(self):
        archive = build_archive()
        damaged = bitflip_mrt_payloads(archive, rng(), records=3, flips=2)
        assert len(damaged) == len(archive)
        assert damaged != archive
        spans = _mrt_record_spans(archive)
        assert _mrt_record_spans(damaged) == spans
        flipped_records = 0
        for offset, length in spans:
            header_end = offset + _RECORD_HEADER.size
            assert damaged[offset:header_end] == archive[offset:header_end]
            payload_before = archive[header_end : header_end + length]
            payload_after = damaged[header_end : header_end + length]
            if payload_after != payload_before:
                flipped_records += 1
                # Damage stays inside the checksum-covered region.
                assert payload_after[:12] == payload_before[:12]
        assert 1 <= flipped_records <= 3

    def test_badlength_writes_an_unreadable_length_field(self):
        archive = build_archive()
        damaged = corrupt_mrt_length(archive, rng())
        assert len(damaged) == len(archive)
        mangled = [
            struct.unpack_from(">I", damaged, offset + 8)[0]
            for offset, length in _mrt_record_spans(archive)
            if struct.unpack_from(">I", damaged, offset + 8)[0] != length
        ]
        assert len(mangled) == 1
        assert mangled[0] > _MAX_RECORD


class TestCheckpointInjector:
    DOC = json.dumps({"version": 1, "payload": "x" * 600}).encode("ascii")

    def test_truncate_is_a_proper_prefix(self):
        damaged = corrupt_checkpoint(self.DOC, rng(), "truncate")
        assert 1 <= len(damaged) < len(self.DOC)
        assert damaged == self.DOC[: len(damaged)]

    def test_bitflip_makes_ascii_json_undecodable(self):
        damaged = corrupt_checkpoint(self.DOC, rng(), "bitflip")
        assert len(damaged) == len(self.DOC)
        assert damaged != self.DOC
        with pytest.raises(UnicodeDecodeError):
            damaged.decode("utf-8")

    def test_garbage_replaces_the_document(self):
        damaged = corrupt_checkpoint(self.DOC, rng(), "garbage")
        assert damaged != self.DOC

    def test_unknown_mode_is_an_error(self):
        with pytest.raises(ValueError, match="unknown checkpoint corruption"):
            corrupt_checkpoint(self.DOC, rng(), "scribble")


# ------------------------------------------------------------------- ledger
class TestIngestReport:
    def test_clip_sample_bounds_and_stringifies(self):
        assert clip_sample("short") == "short"
        long = "x" * (SAMPLE_LIMIT + 50)
        clipped = clip_sample(long)
        assert len(clipped) == SAMPLE_LIMIT + 1 and clipped.endswith("…")
        assert clip_sample(b"\x00\xff") == repr(b"\x00\xff")

    def test_empty_report_is_falsy_and_renders_clean(self):
        report = IngestReport()
        assert not report
        assert report.dropped() == 0
        assert report.reasons(CHANNEL_SYSLOG) == {}
        assert "clean" in report.render()

    def test_records_aggregate_per_channel_and_reason(self):
        report = IngestReport()
        report.record(CHANNEL_SYSLOG, "malformed-line", offset=10, index=1)
        report.record(CHANNEL_SYSLOG, "malformed-line", offset=90, index=7)
        report.record(CHANNEL_SYSLOG, "bad-timestamp", offset=50, index=4)
        report.record(CHANNEL_ISIS, "lsp-decode", offset=200, index=2)
        assert report
        assert report.dropped() == 4
        assert report.dropped(CHANNEL_SYSLOG) == 3
        assert report.dropped(CHANNEL_ISIS) == 1
        assert report.dropped("checkpoint") == 0
        assert report.reasons(CHANNEL_SYSLOG) == {
            "malformed-line": 2,
            "bad-timestamp": 1,
        }

    def test_first_and_last_bracket_the_channel(self):
        report = IngestReport()
        first = report.record(CHANNEL_ISIS, "lsp-decode", offset=8, index=0)
        report.record(CHANNEL_ISIS, "lsp-decode", offset=40, index=2)
        last = report.record(CHANNEL_ISIS, "truncated-payload", offset=99, index=5)
        ledger = report.channel(CHANNEL_ISIS)
        assert ledger.first is first and ledger.last is last

    def test_to_json_and_render_round_the_same_facts(self):
        report = IngestReport()
        report.record(
            CHANNEL_SYSLOG, "malformed-line", offset=17, index=3, sample=b"\xfe junk"
        )
        document = report.to_json()
        assert set(document) == {CHANNEL_SYSLOG}
        assert document[CHANNEL_SYSLOG]["dropped"] == 1
        assert document[CHANNEL_SYSLOG]["first"]["offset"] == 17
        text = report.render()
        assert "1 record(s) dropped" in text
        assert "malformed-line" in text


# -------------------------------------------------------------- MRT salvage
class TestMrtSalvage:
    def test_lenient_salvage_at_every_truncation_offset(self):
        """Cut the archive at *every* byte: the salvage reader must yield
        exactly the complete-record prefix, and record exactly one cut
        unless the cut lands on a record boundary (a clean EOF)."""
        archive = build_archive()
        spans = _mrt_record_spans(archive)
        records = [(float(i), payload) for i, payload in enumerate(PAYLOADS)]
        boundaries = {len(MAGIC)} | {
            offset + _RECORD_HEADER.size + length for offset, length in spans
        }
        for cut in range(len(MAGIC), len(archive)):
            report = IngestReport()
            reader = MrtDumpReader(
                io.BytesIO(archive[:cut]), report=report
            )
            salvaged = list(reader)
            complete = sum(
                1
                for offset, length in spans
                if offset + _RECORD_HEADER.size + length <= cut
            )
            assert salvaged == records[:complete], f"cut at byte {cut}"
            if cut in boundaries:
                assert report.dropped() == 0, f"cut at byte {cut}"
            else:
                assert report.dropped(CHANNEL_ISIS) == 1, f"cut at byte {cut}"
                drop = report.channel(CHANNEL_ISIS).first
                assert drop.reason in {"truncated-header", "truncated-payload"}
                assert drop.index == complete
                assert drop.offset == spans[complete][0]

    def test_strict_truncation_names_record_and_offset_and_closes(self):
        archive = build_archive()
        offset, length = _mrt_record_spans(archive)[2]
        for cut, detail in (
            (offset + 5, "truncated record header"),
            (offset + _RECORD_HEADER.size + 3, "truncated record payload"),
        ):
            stream = io.BytesIO(archive[:cut])
            reader = MrtDumpReader(stream)
            with pytest.raises(
                MrtFormatError, match=f"record 2 at byte offset {offset}"
            ) as excinfo:
                list(reader)
            assert detail in str(excinfo.value)
            assert stream.closed

    def test_bad_magic_strict_raises_and_closes(self):
        stream = io.BytesIO(b"NOTADUMP" + b"\x00" * 32)
        with pytest.raises(MrtFormatError, match="not a repro LSP dump file"):
            MrtDumpReader(stream)
        assert stream.closed

    def test_bad_magic_lenient_yields_nothing_and_records_it(self):
        report = IngestReport()
        reader = MrtDumpReader(
            io.BytesIO(b"NOTADUMP" + b"\x00" * 32), report=report
        )
        assert list(reader) == []
        assert report.reasons(CHANNEL_ISIS) == {"bad-magic": 1}

    def test_oversize_record_salvages_prefix_and_stops(self):
        archive = bytearray(build_archive())
        spans = _mrt_record_spans(bytes(archive))
        offset, _ = spans[3]
        struct.pack_into(">I", archive, offset + 8, _MAX_RECORD + 1)

        stream = io.BytesIO(bytes(archive))
        with pytest.raises(
            MrtFormatError, match=f"record 3 at byte offset {offset}"
        ):
            list(MrtDumpReader(stream))
        assert stream.closed

        report = IngestReport()
        salvaged = list(
            MrtDumpReader(io.BytesIO(bytes(archive)), report=report)
        )
        assert len(salvaged) == 3
        assert report.reasons(CHANNEL_ISIS) == {"oversize-record": 1}

    def test_injected_truncation_is_always_detected(self):
        """truncate_mrt promises a mid-record cut; the reader must see it."""
        archive = build_archive()
        for label in ("a", "b", "c", "d"):
            damaged = truncate_mrt(archive, rng(label))
            report = IngestReport()
            salvaged = list(
                MrtDumpReader(io.BytesIO(damaged), report=report)
            )
            assert report.dropped(CHANNEL_ISIS) == 1
            assert len(salvaged) < len(PAYLOADS)


# ----------------------------------------------------- checkpoint hardening
class _StubResolver:
    def single_links(self):
        return []


class TestCheckpointHardening:
    def _load_error(self, tmp_path, raw: bytes) -> CheckpointError:
        path = tmp_path / "engine.ckpt"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(str(path))
        assert str(path) in str(excinfo.value)
        return excinfo.value

    def test_truncated_json_names_the_file_and_the_cause(self, tmp_path):
        error = self._load_error(tmp_path, b'{"version": 1, "opts"')
        assert "not valid JSON" in str(error)

    def test_every_injected_corruption_mode_raises_typed(self, tmp_path):
        document = json.dumps(
            {"version": 1, "payload": list(range(200))}
        ).encode("ascii")
        for mode in CHECKPOINT_MODES:
            damaged = corrupt_checkpoint(document, rng(f"ck-{mode}"), mode)
            self._load_error(tmp_path, damaged)

    def test_non_object_document_is_rejected(self, tmp_path):
        error = self._load_error(tmp_path, b"[1, 2, 3]")
        assert "not a checkpoint document" in str(error)

    def test_version_mismatch_is_explicit(self, tmp_path):
        error = self._load_error(tmp_path, b'{"version": 99}')
        assert "version 99" in str(error)

    def test_decode_engine_wraps_structural_damage(self):
        # Version-tagged but hollow: the KeyError inside the codec must
        # surface as a CheckpointError, never leak raw.
        with pytest.raises(CheckpointError, match="structure invalid"):
            decode_engine(
                {"version": CHECKPOINT_VERSION},
                _StubResolver(),
                IntervalSet([]),
                None,
            )

    def test_decode_engine_rejects_non_dict(self):
        with pytest.raises(CheckpointError, match="not an object"):
            decode_engine([1, 2], _StubResolver(), IntervalSet([]), None)

    def test_segment_damage_modes(self):
        raw = b"".join(b'{"chunk":%d}\n' % i for i in range(20))
        committed = len(raw) - 12
        tail = corrupt_segment(raw, committed, rng("seg-tail"), "tail")
        assert tail[:committed] == raw[:committed] and len(tail) > committed
        cut = corrupt_segment(raw, committed, rng("seg-cut"), "cut")
        assert len(cut) < committed and raw.startswith(cut)
        flipped = corrupt_segment(raw, committed, rng("seg-flip"), "bitflip")
        assert len(flipped) == len(raw)
        assert [i for i in range(len(raw)) if raw[i] != flipped[i]][0] < committed
        with pytest.raises(ValueError):
            corrupt_segment(raw, committed, rng(), "shred")


def test_injector_names_match_the_chaos_scenarios():
    assert INJECTOR_NAMES == (
        "syslog-garbage",
        "syslog-truncate",
        "mrt-truncate",
        "mrt-bitflip",
        "mrt-badlength",
        "checkpoint-corrupt",
        "kill-resume",
    )


# ------------------------------------------------- the ingestion contract
class _Damaged:
    """A saved campaign damaged in every channel by the injectors above,
    and the ledgers the lowest layers fill over its bytes."""

    def __init__(self, directory, dataset):
        dataset.save(directory)
        self.directory = directory
        self.network = dataset.network
        self.syslog_path = directory / "syslog.log"
        self.dump_path = directory / "isis.dump"
        raw = self.syslog_path.read_bytes()
        raw = inject_garbage_lines(raw, rng("contract-garbage"), count=12)
        raw = truncate_log_lines(raw, rng("contract-cut"), count=8)
        self.syslog_path.write_bytes(raw)
        dump = bitflip_mrt_payloads(self.dump_path.read_bytes(), rng("contract-flip"))
        dump = truncate_mrt(dump, rng("contract-truncate"))
        self.dump_path.write_bytes(dump)

        # The damaged campaign in memory, built without the loader so only
        # the Dataset.load row below depends on it.
        self.text = raw.decode("utf-8", LENIENT_ERRORS)
        self.records = MrtDumpReader(io.BytesIO(dump), report=IngestReport()).read_all()
        self.dataset = dataclasses.replace(
            dataset, syslog_text=self.text, lsp_records=self.records
        )
        self.resolver = LinkResolver(dataset.inventory)
        self.lowest = {
            "syslog": self._drops(
                lambda report: SyslogCollector.parse_log(self.text, report=report)
            ),
            "mrt": self._drops(
                lambda report: MrtDumpReader(io.BytesIO(dump), report=report).read_all()
            ),
            "replay": self._drops(
                lambda report: replay_lsp_records(self.records, report=report)
            ),
        }

    @staticmethod
    def _drops(call):
        report = _RecordingReport()
        call(report)
        return report.drops


def _read_dump(damaged, report):
    with MrtDumpReader.open(damaged.dump_path, report=report) as reader:
        return reader.read_all()


def _walk(damaged, report):
    walk = columnar_ingest._Walk(report)
    columnar_ingest._parse_mixed(damaged.text, walk)
    return walk.entries


#: entry point -> (call, the lowest layers it reads in order, the
#: exception it raises without a ledger).
INGESTION_ENTRY_POINTS = {
    "SyslogCollector.parse_log": (
        lambda d, report: SyslogCollector.parse_log(d.text, report=report),
        ("syslog",),
        SyslogParseError,
    ),
    "SyslogCollector.read_log": (
        lambda d, report: SyslogCollector.read_log(d.syslog_path, report=report),
        ("syslog",),
        UnicodeDecodeError,
    ),
    "parse_log_columnar": (
        lambda d, report: parse_log_columnar(d.text, report=report),
        ("syslog",),
        SyslogParseError,
    ),
    "columnar._Walk": (_walk, ("syslog",), SyslogParseError),
    "MrtDumpReader": (
        lambda d, report: MrtDumpReader(
            io.BytesIO(d.dump_path.read_bytes()), report=report
        ).read_all(),
        ("mrt",),
        MrtFormatError,
    ),
    "MrtDumpReader.open": (_read_dump, ("mrt",), MrtFormatError),
    "Dataset.load": (
        lambda d, report: Dataset.load(d.directory, d.network, report=report),
        ("mrt",),
        UnicodeDecodeError,
    ),
    "Dataset.iter_syslog_entries": (
        lambda d, report: list(d.dataset.iter_syslog_entries(report=report)),
        ("syslog",),
        SyslogParseError,
    ),
    "replay_lsp_records": (
        lambda d, report: replay_lsp_records(d.records, report=report),
        ("replay",),
        LspDecodeError,
    ),
    "extract_isis": (
        lambda d, report: extract_isis(
            d.records,
            d.resolver,
            d.dataset.analysis_start,
            d.dataset.horizon_end,
            report=report,
        ),
        ("replay",),
        LspDecodeError,
    ),
    "syslog_events": (
        lambda d, report: list(syslog_events(d.dataset, d.resolver, report=report)),
        ("syslog",),
        SyslogParseError,
    ),
    "isis_events": (
        lambda d, report: list(isis_events(d.dataset, d.resolver, report=report)),
        ("replay",),
        LspDecodeError,
    ),
    "dataset_event_stream": (
        lambda d, report: list(
            dataset_event_stream(d.dataset, d.resolver, report=report)
        ),
        ("syslog", "replay"),
        SyslogParseError,
    ),
    "stream_dataset": (
        lambda d, report: stream_dataset(d.dataset, report=report),
        ("syslog", "replay"),
        SyslogParseError,
    ),
    "run_analysis[scalar]": (
        lambda d, report: run_analysis(d.dataset, report=report),
        ("syslog", "replay"),
        SyslogParseError,
    ),
    "run_analysis[columnar]": (
        lambda d, report: run_analysis(d.dataset, report=report, ingest="columnar"),
        ("syslog", "replay"),
        SyslogParseError,
    ),
}


@pytest.fixture(scope="module")
def damaged_campaign(small_dataset, tmp_path_factory):
    damaged = _Damaged(tmp_path_factory.mktemp("contract"), small_dataset)
    # The damage reaches every lowest layer, so each row below is tested
    # against a non-empty ledger.
    assert all(damaged.lowest.values())
    assert {drop.reason for drop in damaged.lowest["replay"]} == {"lsp-decode"}
    return damaged


@pytest.mark.parametrize("entry", sorted(INGESTION_ENTRY_POINTS))
def test_entry_point_threads_the_ledger(entry, damaged_campaign):
    """With a ledger the call completes on input damaged in every channel
    it reads, and its ledger holds exactly the drops of the lowest layers
    over the same bytes; without one it raises."""
    call, layers, strict_error = INGESTION_ENTRY_POINTS[entry]
    report = _RecordingReport()
    call(damaged_campaign, report)
    expected = [drop for layer in layers for drop in damaged_campaign.lowest[layer]]
    assert report.drops == expected
    with pytest.raises(strict_error):
        call(damaged_campaign, None)
