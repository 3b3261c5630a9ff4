"""The one-pass RFC 3164 decode against the two-stage decoder it replaces.

``parse_syslog_line`` decodes a line with a canonical timestamp in one
regex match and resolves its year with
:func:`repro.util.timefmt.resolve_year`; every other line goes through
``_LINE_RE`` and then ``parse_timestamp``.  The oracle here is the
two-stage decoder alone, copied verbatim: ``_LINE_RE``, then the
timestamp parse, then ``Facility(...)``/``Severity(...)``.  Its
timestamp parse is ``test_util_timefmt``'s strptime reference, which
pins ``parse_timestamp``'s contract without sharing its arithmetic, so
a fault in ``resolve_year`` cannot hide on both sides.  For
every line the two must return equal messages with bit-identical
timestamps, or raise the same exception type with the same ``reason``
and message.  Whole logs are held to a verbatim copy of the per-line
``parse_log`` loop, strict and lenient, and the Cisco-body memo that
``parse_log`` and ``TenantPipeline`` keep is held to its cap.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import stream_signature
from repro.faults.ledger import CHANNEL_SYSLOG, DropRecord, IngestReport
from repro.service.profile import load_tenant_context
from repro.service.worker import TenantPipeline, replay_lines
from repro.syslog import cisco, collector
from repro.syslog.collector import CollectedEntry, SyslogCollector
from repro.syslog.message import (
    _LINE_RE,
    _RFC5424_HINT_RE,
    Facility,
    Severity,
    SyslogMessage,
    SyslogParseError,
    parse_rfc5424_line,
    parse_syslog_line,
    render_rfc5424,
    try_parse_syslog_line,
)
from repro.util.timefmt import SECONDS_PER_DAY, TimestampRangeError
from tests import test_util_timefmt as timefmt_tests


# ----------------------------------------------------------------- oracle
def oracle_parse_syslog_line(
    line: str, after: Optional[float] = None
) -> SyslogMessage:
    match = _LINE_RE.match(line)
    if not match:
        raise SyslogParseError(
            f"malformed syslog line: {line!r}", reason="malformed-line"
        )
    pri = int(match.group("pri"))
    if pri > 191:
        raise SyslogParseError(f"PRI {pri} out of range", reason="pri-out-of-range")
    facility, severity = divmod(pri, 8)
    try:
        timestamp = timefmt_tests.strptime_parse_timestamp(
            match.group("timestamp"), after=after
        )
    except TimestampRangeError as error:
        raise SyslogParseError(
            str(error), reason="timestamp-out-of-range"
        ) from error
    except ValueError as error:
        raise SyslogParseError(str(error), reason="bad-timestamp") from error
    return SyslogMessage(
        timestamp=timestamp,
        hostname=match.group("hostname"),
        body=match.group("body"),
        facility=Facility(facility),
        severity=Severity(severity),
    )


def oracle_try_parse_syslog_line(
    line: str, after: Optional[float] = None
) -> Tuple[Optional[SyslogMessage], Optional[str]]:
    try:
        return oracle_parse_syslog_line(line, after=after), None
    except SyslogParseError as error:
        if error.reason == "malformed-line" and _RFC5424_HINT_RE.match(line):
            try:
                return parse_rfc5424_line(line), None
            except SyslogParseError as fallback_error:
                return None, fallback_error.reason
        return None, error.reason


def oracle_parse_cisco_body(router: str, body: str):
    """Every mnemonic regex in turn, whatever the body's prefix."""
    for pattern, flavor in (
        (cisco._CLNS_RE, cisco.CiscoFlavor.IOS),
        (cisco._XR_RE, cisco.CiscoFlavor.IOS_XR),
    ):
        match = pattern.match(body)
        if match:
            return cisco.AdjacencyChangeMessage(
                router=router,
                interface=match.group("interface"),
                neighbor_hostname=match.group("neighbor"),
                direction=match.group("state").lower(),
                reason=match.group("reason") or "",
                flavor=flavor,
            )
    for pattern, kind in (
        (cisco._LINK_RE, cisco.LinkUpDownMessage),
        (cisco._LINEPROTO_RE, cisco.LineProtoUpDownMessage),
    ):
        match = pattern.match(body)
        if match:
            return kind(
                router=router,
                interface=match.group("interface"),
                direction=match.group("state"),
            )
    return None


def oracle_parse_log(
    text: str, *, report: Optional[IngestReport] = None
) -> List[CollectedEntry]:
    entries: List[CollectedEntry] = []
    latest = 0.0
    offset = 0
    for line_number, line in enumerate(text.split("\n"), start=1):
        line_offset = offset
        offset += len(line.encode("utf-8", errors="surrogatepass")) + 1
        if not line.strip():
            continue
        if report is None:
            message = oracle_parse_syslog_line(line, after=latest)
        else:
            message, reason = oracle_try_parse_syslog_line(line, after=latest)
            if message is None:
                report.record(
                    CHANNEL_SYSLOG,
                    reason or "malformed-line",
                    offset=line_offset,
                    index=line_number,
                    sample=line,
                )
                continue
        latest = max(latest, message.timestamp)
        entries.append(
            CollectedEntry(
                generated_time=message.timestamp,
                hostname=message.hostname,
                raw_body=message.body,
                entry=oracle_parse_cisco_body(message.hostname, message.body),
            )
        )
    return entries


# --------------------------------------------------------------- helpers
def outcome(parse, *args, **kwargs):
    """A comparable verdict: the message with its timestamp's bits, or
    the exception's type, reason and text."""
    try:
        result = parse(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - the verdict is the point
        return ("raised", type(error), getattr(error, "reason", None), str(error))
    message = result[0] if isinstance(result, tuple) else result
    if message is None:
        return ("dropped", result[1])
    return (
        "parsed",
        message,
        float.hex(message.timestamp),
        type(message.facility),
        type(message.severity),
    )


def assert_same(line: str, after: Optional[float]) -> None:
    assert outcome(parse_syslog_line, line, after=after) == outcome(
        oracle_parse_syslog_line, line, after=after
    ), (line, after)
    assert outcome(try_parse_syslog_line, line, after=after) == outcome(
        oracle_try_parse_syslog_line, line, after=after
    ), (line, after)


class RecordingReport(IngestReport):
    """An :class:`IngestReport` that keeps every record, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[DropRecord] = []

    def record(self, *args, **kwargs) -> DropRecord:
        made = super().record(*args, **kwargs)
        self.log.append(made)
        return made


def parse_outcome(parse, text: str, *, ledger: bool):
    """The verdict of one whole-log parse, with a drop ledger or without."""
    report = RecordingReport() if ledger else None
    try:
        entries = parse(text, report=report)
    except Exception as error:  # noqa: BLE001 - the verdict is the point
        return ("raised", type(error), getattr(error, "reason", None), str(error))
    times = [float.hex(entry.generated_time) for entry in entries]
    if report is None:
        return ("parsed", entries, times)
    return ("parsed", entries, times, report.log, report.to_json())


#: Seconds past the epoch of a few year boundaries (Oct 20, 2010 is day 0).
NEW_YEAR_2011 = 73 * SECONDS_PER_DAY
NEW_YEAR_2012 = 438 * SECONDS_PER_DAY
NEW_YEAR_2013 = 804 * SECONDS_PER_DAY
LEAP_DAY_2012 = 497 * SECONDS_PER_DAY
LEAP_DAY_2016 = 1958 * SECONDS_PER_DAY

#: The grid's progress points, plus both sides of year boundaries, of
#: each Feb 29 within reach and of the two-day slack around them.
AFTERS = timefmt_tests.AFTERS + [
    NEW_YEAR_2011 - 1.0,
    NEW_YEAR_2012 - 0.001,
    NEW_YEAR_2012 + 2 * SECONDS_PER_DAY,
    NEW_YEAR_2013 - 1.0,
    NEW_YEAR_2013 + 1.0,
    LEAP_DAY_2012 + 2 * SECONDS_PER_DAY + 43_200.0,
    LEAP_DAY_2012 + 2 * SECONDS_PER_DAY + 43_200.001,
    LEAP_DAY_2016 + 2 * SECONDS_PER_DAY + 43_200.0,
    LEAP_DAY_2016 + 2 * SECONDS_PER_DAY + 43_200.001,
    1500 * SECONDS_PER_DAY,
]


class TestLineDecodeGrid:
    def test_grid_date_times(self):
        grid = timefmt_tests.TestArithmeticMatchesStrptime
        for month, day, clock in itertools.product(
            grid.MONTHS, grid.DAYS, grid.CLOCKS
        ):
            line = f"<189>{month} {day} {clock}.250 lax-core-01 %LINK-3-UPDOWN: x"
            for after in timefmt_tests.AFTERS:
                assert_same(line, after)

    @pytest.mark.parametrize("pri", ["0", "7", "8", "191", "192", "999", "00", "007"])
    def test_pri_boundaries(self, pri):
        for after in (None, 0.0, NEW_YEAR_2012):
            assert_same(f"<{pri}>Nov  5 01:02:03.004 host body", after)

    @pytest.mark.parametrize(
        "line",
        [
            "<١٨٩>Nov  5 01:02:03.004 host body",
            "<189>Nov ٠٥ 01:02:03.004 host body",
            "<189>Nov ٢٠ 01:02:03.004 host body",
            "<189>Nov  5 ٠١:02:03.004 host body",
            "<189>Nov  5 01:٠٢:03.004 host body",
            "<189>Nov  5 01:02:٠٣.004 host body",
            "<189>Nov  5 01:02:03.٠٠٤ host body",
            "<189>Nov  5 01:02:03.００４ host body",
        ],
    )
    def test_unicode_digits(self, line):
        for after in (None, 0.0, NEW_YEAR_2012):
            assert_same(line, after)

    @pytest.mark.parametrize(
        "stamp",
        ["Feb 29 12:00:00.000", "Feb 29 00:00:00.001", "Feb 28 23:59:59.999",
         "Mar  1 00:00:00.000", "Dec 31 23:59:59.999", "Jan  1 00:00:00.000",
         "Oct 19 23:59:59.999", "Oct 20 00:00:00.000", "Oct 21 00:00:00.000"],
    )
    def test_leap_days_and_year_boundaries(self, stamp):
        for after in AFTERS:
            assert_same(f"<189>{stamp} host body", after)

    @pytest.mark.parametrize(
        "tail",
        ["host body\r", "host body ", "host body  \r", "host \r", "host ",
         "host", "host\r body", " host body", "host\tbody", "host body\n",
         "host body\nmore", "hé bödy", "host %CLNS-5-ADJCHANGE: x\r"],
    )
    def test_line_endings_and_spacing(self, tail):
        for after in (None, 0.0, NEW_YEAR_2012):
            assert_same(f"<189>Nov  5 01:02:03.004 {tail}", after)

    @pytest.mark.parametrize(
        "line",
        ["", "<189>", "<189>Nov  5 01:02:03 host body",
         "<189>Nov  5 01:02:03.0040 host body", "<189>Nov 5 01:02:03.004 host body",
         "<189>Nov  5 24:00:00.000 host body", "<189>Feb 31 00:00:00.000 host b",
         "<189>Foo  5 01:02:03.004 host body", "<189> Nov  5 01:02:03.004 host body",
         "<1890>Nov  5 01:02:03.004 host body",
         "<165>1 2010-10-20T00:00:12.500Z lax-core-01 app - - - hello",
         "<165>1 2010-10-20T00:00:12.500Z - app - - - hello",
         "<999>1 2010-10-20T00:00:12.500Z host app - - - hello"],
    )
    def test_malformed_and_5424_lines(self, line):
        for after in (None, 0.0):
            assert_same(line, after)


# ------------------------------------------------------------- whole logs
HOSTS = ["lax-core-01", "sac-core-02", "cust001-cpe-01"]
BODIES = [
    "%CLNS-5-ADJCHANGE: ISIS: Adjacency to lax-core-01 (Gi0/0) Down, hold time expired",
    "%ROUTING-ISIS-4-ADJCHANGE : Adjacency to sac-core-02 (Te0/1/0/0) (L2) Up, New adjacency",
    "%LINK-3-UPDOWN: Interface Gi0/0, changed state to down",
    "%LINEPROTO-5-UPDOWN: Line protocol on Interface Gi0/0, changed state to up",
    "%LINK-3-UPDOWN: Interface Gi0/0, changed state to sideways",
    "%SYS-5-CONFIG_I: Configured from console",
    "",
    "chatter\r",
]


DAMAGED = ["3164"] * 6 + ["5424", "damage", "feb29", "blank", "junk"]


@st.composite
def log_lines(draw, kinds=DAMAGED):
    """A log: rendered lines at drifting times, some of them damaged."""
    lines = []
    time = draw(st.floats(min_value=0.0, max_value=800 * SECONDS_PER_DAY))
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        time = max(0.0, time + draw(st.sampled_from([0.0, 0.5, 3600.0, -5.0, 40 * SECONDS_PER_DAY])))
        message = SyslogMessage(
            round(time, 3),
            draw(st.sampled_from(HOSTS)),
            draw(st.sampled_from(BODIES)),
            severity=Severity(draw(st.integers(0, 7))),
        )
        kind = draw(st.sampled_from(kinds))
        if kind == "3164":
            lines.append(message.render())
        elif kind == "5424":
            lines.append(render_rfc5424(message))
        elif kind == "damage":
            line = message.render()
            cut = draw(st.integers(min_value=0, max_value=len(line)))
            lines.append(line[:cut] + draw(st.sampled_from(["", "\x00", "٢", "�", " "])))
        elif kind == "feb29":
            lines.append(f"<189>Feb 29 {draw(st.sampled_from(['00', '23']))}:00:00.000 h b")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\r"])))
        else:
            lines.append(draw(st.text(max_size=30)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestWholeLogs:
    @given(st.one_of(log_lines(), log_lines(kinds=["3164"] * 20 + ["feb29"])))
    @settings(max_examples=300, deadline=None)
    def test_strict_parse_log(self, text):
        assert parse_outcome(SyslogCollector.parse_log, text, ledger=False) == (
            parse_outcome(oracle_parse_log, text, ledger=False)
        )

    @given(log_lines())
    @settings(max_examples=300, deadline=None)
    def test_lenient_parse_log_and_ledger(self, text):
        assert parse_outcome(SyslogCollector.parse_log, text, ledger=True) == (
            parse_outcome(oracle_parse_log, text, ledger=True)
        )

    @given(log_lines(), st.sampled_from([None, 0.0, NEW_YEAR_2012, 1100 * SECONDS_PER_DAY]))
    @settings(max_examples=200, deadline=None)
    def test_try_parse_with_5424_fallback(self, text, after):
        for line in text.split("\n"):
            assert outcome(try_parse_syslog_line, line, after=after) == outcome(
                oracle_try_parse_syslog_line, line, after=after
            ), (line, after)

    @given(st.sampled_from(HOSTS), st.sampled_from(BODIES + ["%CLNS-5-", "%LINEPROTO-"]), st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_cisco_prefix_dispatch(self, router, body, suffix):
        for text in (body, body + suffix, suffix):
            assert cisco.parse_cisco_body(router, text) == oracle_parse_cisco_body(router, text)


# ------------------------------------------------------------------ memo
class TestCiscoMemo:
    def test_repeated_pairs_share_one_entry(self):
        body = BODIES[0]
        lines = [
            SyslogMessage(10.0, "lax-core-01", body).render(),
            SyslogMessage(11.0, "sac-core-02", body).render(),
            SyslogMessage(12.0, "lax-core-01", body).render(),
            SyslogMessage(13.0, "lax-core-01", "chatter").render(),
            SyslogMessage(14.0, "lax-core-01", "chatter").render(),
        ]
        text = "\n".join(lines) + "\n"
        entries = SyslogCollector.parse_log(text)
        assert entries == oracle_parse_log(text)
        assert entries[0].entry is entries[2].entry
        assert entries[0].entry is not entries[1].entry
        assert entries[0].raw_body is entries[2].raw_body
        assert entries[3].entry is None and entries[4].entry is None

    def test_memo_lives_for_one_parse(self):
        text = SyslogMessage(10.0, "lax-core-01", BODIES[2]).render() + "\n"
        first = SyslogCollector.parse_log(text)[0].entry
        second = SyslogCollector.parse_log(text)[0].entry
        assert first == second and first is not second

    def test_cap_clears_the_memo(self, monkeypatch):
        monkeypatch.setattr(collector, "CISCO_MEMO_CAP", 3)
        memo: collector.CiscoMemo = {}
        for index in range(10):
            made = collector.collected_entry(memo, float(index), f"r{index}", BODIES[2])
            assert len(memo) <= 3
            assert made.entry == oracle_parse_cisco_body(f"r{index}", BODIES[2])

    def test_tenant_pipeline_memo_stays_under_cap(
        self, monkeypatch, service_profile_dir
    ):
        text = (Path(service_profile_dir) / "syslog.log").read_text("utf-8")
        lines = [line for line in text.splitlines() if line.strip()]
        context = load_tenant_context("tenant0", service_profile_dir)
        clean, clean_report = replay_lines(context, lines)

        cap = 8
        monkeypatch.setattr(collector, "CISCO_MEMO_CAP", cap)
        distinct = {
            (entry.hostname, entry.raw_body)
            for entry in SyslogCollector.parse_log(text)
        }
        assert len(distinct) > cap
        pipeline = TenantPipeline(context)
        for line in lines:
            pipeline.feed_line(line)
            assert len(pipeline._cisco_memo) <= cap
        assert stream_signature(pipeline.finish()) == stream_signature(clean)
        assert pipeline.report.to_json() == clean_report.to_json()
