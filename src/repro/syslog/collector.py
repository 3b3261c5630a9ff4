"""The central syslog collector.

Every router in the CENIC network logs to one central facility (§3.3); the
collector here accumulates delivered datagrams, renders them to a log file
in arrival order, and parses log files back into typed entries.  The
round trip through text is deliberate: the analysis pipeline consumes the
*log file*, not in-memory objects, so any information syslog's text format
cannot carry is genuinely unavailable to the analysis — as it was to the
paper's authors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.faults.ledger import CHANNEL_SYSLOG, IngestReport
from repro.syslog.cisco import CiscoLogEntry, parse_cisco_body
from repro.syslog.message import (
    SyslogMessage,
    parse_syslog_line,
    try_parse_syslog_line,
)
from repro.syslog.transport import DeliveryRecord

#: How lenient ingestion decodes log bytes: each undecodable octet becomes
#: a lone surrogate that encodes back to that same octet, so drop offsets
#: count the file's own bytes.
LENIENT_ERRORS = "surrogateescape"


def line_octets(line: str) -> int:
    """How many octets ``line`` took in the file it was decoded from."""
    try:
        return len(line.encode("utf-8", LENIENT_ERRORS))
    except UnicodeEncodeError:
        # A surrogate no decode produces: the text was built in memory.
        return len(line.encode("utf-8", "surrogatepass"))


@dataclass(frozen=True)
class CollectedEntry:
    """A typed log entry recovered from the collector's file.

    ``generated_time`` is the router's timestamp carried inside the message;
    ``entry`` is the parsed Cisco message, or ``None`` for unrelated chatter.
    """

    generated_time: float
    hostname: str
    raw_body: str
    entry: Optional[CiscoLogEntry]


#: Memoised ``parse_cisco_body`` results keyed by (hostname, body), with
#: the key strings stored alongside.  Router chatter repeats heavily
#: (1,310 distinct pairs in the 2,989 lines of a seed-7 campaign), so a
#: memo turns the per-entry regex cost into a dict hit, and reusing the
#: stored strings means a multi-million-line corpus holds one copy of
#: each distinct hostname/body instead of one per line.  Each owner keeps
#: its own: one per :meth:`SyslogCollector.parse_log` call, one per live
#: tenant pipeline, one for the columnar parser.
CiscoMemo = Dict[Tuple[str, str], Tuple[str, str, Optional[CiscoLogEntry]]]

#: Most pairs a :data:`CiscoMemo` holds.  On overflow the memo is cleared
#: rather than frozen: adversarial high-cardinality input re-fills it at
#: one regex parse per distinct pair per epoch, while memory stays
#: bounded by the cap.
CISCO_MEMO_CAP = 1 << 18


def collected_entry(
    memo: CiscoMemo, time: float, hostname: str, body: str
) -> CollectedEntry:
    """The :class:`CollectedEntry` of one parsed line, its Cisco entry
    taken from ``memo`` (and stored there on a miss).

    Lines that repeat a (hostname, body) pair share one parsed ``entry``
    object; entries are frozen, so sharing is invisible to readers.
    """
    cached = memo.get((hostname, body))
    if cached is None:
        if len(memo) >= CISCO_MEMO_CAP:
            memo.clear()
        cached = (hostname, body, parse_cisco_body(hostname, body))
        memo[hostname, body] = cached
    hostname, body, entry = cached
    # CollectedEntry is a frozen dataclass; its generated __init__ routes
    # every field through object.__setattr__, which costs ~3x this direct
    # dict fill.  Equality, hashing and pickling only see the final
    # __dict__, so the constructed instance is indistinguishable.
    made = CollectedEntry.__new__(CollectedEntry)
    fields = made.__dict__
    fields["generated_time"] = time
    fields["hostname"] = hostname
    fields["raw_body"] = body
    fields["entry"] = entry
    return made


class SyslogCollector:
    """Accumulates delivered datagrams and round-trips them through text."""

    def __init__(self) -> None:
        self._messages: List[SyslogMessage] = []

    def receive(self, record: DeliveryRecord) -> None:
        """Accept one delivered datagram."""
        if not record.delivered:
            raise ValueError("collector cannot receive a lost datagram")
        self._messages.append(record.message)

    def receive_all(self, records: Iterable[DeliveryRecord]) -> int:
        """Accept every delivered record from an iterable; returns the count."""
        count = 0
        for record in records:
            if record.delivered:
                self.receive(record)
                count += 1
        return count

    def __len__(self) -> int:
        return len(self._messages)

    def render_log(self) -> str:
        """The log file text, one RFC 3164 line per message."""
        return "".join(message.render() + "\n" for message in self._messages)

    def write_log(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.render_log(), encoding="utf-8")

    @staticmethod
    def parse_log(
        text: str,
        *,
        strict: bool = True,
        report: Optional[IngestReport] = None,
    ) -> List[CollectedEntry]:
        """Parse log text into typed entries (unparseable bodies kept raw).

        Log lines are in arrival order, which is what resolves the RFC 3164
        year ambiguity: timestamps never carry a year, and a 13-month study
        revisits the same calendar dates, so each line's year is chosen as
        the earliest candidate consistent with the log's progress so far.

        ``strict=True`` (the default) raises
        :class:`~repro.syslog.message.SyslogParseError` on the first
        malformed line, exactly as before.  ``strict=False`` is the
        hardened path for the artifacts a crashed collector leaves
        behind: malformed lines — garbage, binary junk, mid-line
        truncations — are quarantined into ``report`` (an
        :class:`~repro.faults.ledger.IngestReport`) with their reason,
        line number, and byte offset, and parsing continues.  On a clean
        log both modes return identical entries.
        """
        entries: List[CollectedEntry] = []
        memo: CiscoMemo = {}
        latest = 0.0
        # Byte offsets are reported only for quarantined lines, so only
        # lenient mode tracks them.
        offset = 0
        for line_number, line in enumerate(text.split("\n"), start=1):
            if not strict:
                line_offset = offset
                offset += line_octets(line) + 1
            if not line.strip():
                continue
            if strict:
                message = parse_syslog_line(line, after=latest)
            else:
                message, reason = try_parse_syslog_line(line, after=latest)
                if message is None:
                    if report is not None:
                        report.record(
                            CHANNEL_SYSLOG,
                            reason or "malformed-line",
                            offset=line_offset,
                            index=line_number,
                            sample=line,
                        )
                    continue
            timestamp = message.timestamp
            if timestamp > latest:
                latest = timestamp
            entries.append(
                collected_entry(memo, timestamp, message.hostname, message.body)
            )
        return entries

    @classmethod
    def read_log(
        cls,
        path: Union[str, Path],
        *,
        strict: bool = True,
        report: Optional[IngestReport] = None,
    ) -> List[CollectedEntry]:
        """Read and parse a log file; lenient mode survives broken UTF-8.

        In strict mode undecodable bytes raise ``UnicodeDecodeError`` as
        before; in lenient mode they decode as lone surrogates
        (:data:`LENIENT_ERRORS`), which makes the affected lines
        unparseable and therefore visible in the ledger rather than fatal,
        at offsets that count the file's bytes.
        """
        data = Path(path).read_bytes()
        text = data.decode("utf-8", errors="strict" if strict else LENIENT_ERRORS)
        return cls.parse_log(text, strict=strict, report=report)
