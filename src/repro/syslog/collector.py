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
from typing import Iterable, List, Optional, Union

from repro.faults.ledger import CHANNEL_SYSLOG, IngestReport
from repro.syslog.cisco import CiscoLogEntry, parse_cisco_body
from repro.syslog.message import (
    SyslogMessage,
    parse_syslog_line,
    try_parse_syslog_line,
)
from repro.syslog.transport import DeliveryRecord


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
        latest = 0.0
        offset = 0
        for line_number, line in enumerate(text.split("\n"), start=1):
            line_offset = offset
            offset += len(line.encode("utf-8", errors="surrogatepass")) + 1
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
            latest = max(latest, message.timestamp)
            entries.append(
                CollectedEntry(
                    generated_time=message.timestamp,
                    hostname=message.hostname,
                    raw_body=message.body,
                    entry=parse_cisco_body(message.hostname, message.body),
                )
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
        before; in lenient mode they decode with replacement characters,
        which makes the affected lines unparseable and therefore visible
        in the ledger rather than fatal.
        """
        data = Path(path).read_bytes()
        text = data.decode("utf-8", errors="strict" if strict else "replace")
        return cls.parse_log(text, strict=strict, report=report)
