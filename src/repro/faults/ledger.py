"""The drop ledger: typed accounting of everything lenient ingestion skips.

The paper's central finding is that measurement channels lose data —
syslog drops messages under flap bursts (§4.1), the listener itself goes
down (§4.2) — and the artifacts a crashed collector leaves behind are
garbled logs and truncated archives.  Hardened ingestion
(``strict=False`` through :mod:`repro.syslog.collector`,
:mod:`repro.isis.mrt`, :mod:`repro.stream.sources`, and
:func:`repro.core.pipeline.run_analysis`) never silently discards such a
record: every skip lands here, as a :class:`DropRecord` with a
machine-readable reason, the byte offset in the source artifact, and a
clipped sample of the offending data, aggregated per channel by an
:class:`IngestReport`.

The ledger is the quarantine's audit trail: ``repro chaos`` asserts that
under every injector the number of records the analysis lost is bounded
by (and attributed in) the ledger, and the reprolint E-rules forbid the
alternative (`except: pass`) outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Channel labels.  They intentionally match the stream engine's channel
#: vocabulary (:data:`repro.stream.sources.SYSLOG_CHANNEL` /
#: :data:`~repro.stream.sources.ISIS_CHANNEL`) so one report spans both
#: the batch and streaming paths.
CHANNEL_SYSLOG = "syslog"
CHANNEL_ISIS = "isis"
CHANNEL_CHECKPOINT = "checkpoint"
#: Transport/service-level losses (framing damage, backpressure shedding,
#: late arrivals beyond the reorder bound) recorded by :mod:`repro.service`.
CHANNEL_SERVICE = "service"

#: Longest sample text stored per drop (keeps reports small even when a
#: multi-megabyte binary blob lands in the log).
SAMPLE_LIMIT = 120


def clip_sample(data: object) -> str:
    """A printable, length-bounded sample of arbitrary bad input."""
    text = data if isinstance(data, str) else repr(data)
    if len(text) > SAMPLE_LIMIT:
        return text[:SAMPLE_LIMIT] + "…"
    return text


@dataclass(frozen=True)
class DropRecord:
    """One quarantined record.

    ``offset`` is the byte offset of the record in its source artifact
    (``None`` when the source is an in-memory sequence with no byte
    representation); ``index`` is the record/line ordinal where one is
    meaningful.
    """

    channel: str
    reason: str
    offset: Optional[int] = None
    index: Optional[int] = None
    sample: str = ""

    def to_json(self) -> Dict[str, object]:
        return {
            "channel": self.channel,
            "reason": self.reason,
            "offset": self.offset,
            "index": self.index,
            "sample": self.sample,
        }


@dataclass
class ChannelLedger:
    """Per-channel aggregation: counts by reason plus boundary samples."""

    dropped: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    first: Optional[DropRecord] = None
    last: Optional[DropRecord] = None

    def add(self, record: DropRecord) -> None:
        self.dropped += 1
        self.reasons[record.reason] = self.reasons.get(record.reason, 0) + 1
        if self.first is None:
            self.first = record
        self.last = record

    def to_json(self) -> Dict[str, object]:
        return {
            "dropped": self.dropped,
            "reasons": dict(sorted(self.reasons.items())),
            "first": None if self.first is None else self.first.to_json(),
            "last": None if self.last is None else self.last.to_json(),
        }


class IngestReport:
    """The drop ledger of one ingestion run (batch or stream).

    Create one, pass it everywhere a ``report=`` keyword is accepted, and
    inspect it afterwards; with no report passed, lenient mode still
    skips bad records but the accounting is lost, so the CLI and the
    chaos harness always provide one.
    """

    def __init__(self) -> None:
        self.channels: Dict[str, ChannelLedger] = {}

    def record(
        self,
        channel: str,
        reason: str,
        offset: Optional[int] = None,
        index: Optional[int] = None,
        sample: object = "",
    ) -> DropRecord:
        """Quarantine one record; returns the ledger entry created."""
        record = DropRecord(
            channel=channel,
            reason=reason,
            offset=offset,
            index=index,
            sample=clip_sample(sample),
        )
        self.channel(channel).add(record)
        return record

    def channel(self, name: str) -> ChannelLedger:
        ledger = self.channels.get(name)
        if ledger is None:
            ledger = self.channels[name] = ChannelLedger()
        return ledger

    def dropped(self, channel: Optional[str] = None) -> int:
        """Total drops, overall or for one channel."""
        if channel is not None:
            ledger = self.channels.get(channel)
            return ledger.dropped if ledger else 0
        return sum(ledger.dropped for ledger in self.channels.values())

    def reasons(self, channel: str) -> Dict[str, int]:
        """Reason -> count for one channel (empty if clean)."""
        ledger = self.channels.get(channel)
        return dict(ledger.reasons) if ledger else {}

    def __bool__(self) -> bool:
        return self.dropped() > 0

    def to_json(self) -> Dict[str, object]:
        return {
            name: self.channels[name].to_json()
            for name in sorted(self.channels)
        }

    def render(self) -> str:
        """Human-readable accounting, one line per (channel, reason)."""
        if not self:
            return "ingest ledger: clean (0 records dropped)"
        lines = [f"ingest ledger: {self.dropped()} record(s) dropped"]
        for name in sorted(self.channels):
            ledger = self.channels[name]
            for reason in sorted(ledger.reasons):
                lines.append(
                    f"  {name}: {ledger.reasons[reason]} × {reason}"
                )
            if ledger.first is not None:
                lines.append(
                    f"  {name}: first at offset {ledger.first.offset} "
                    f"({ledger.first.sample!r})"
                )
            if ledger.last is not None and ledger.last is not ledger.first:
                lines.append(
                    f"  {name}: last at offset {ledger.last.offset} "
                    f"({ledger.last.sample!r})"
                )
        return "\n".join(lines)
