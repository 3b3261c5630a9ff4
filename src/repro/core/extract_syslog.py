"""Failure reconstruction from the central syslog file (§3.3–§3.4).

The extractor consumes the collector's parsed entries and produces, per the
shared funnel of :mod:`repro.core.reconstruct`:

* **IS-IS messages** (``%CLNS-5-ADJCHANGE`` / ``%ROUTING-ISIS-4-ADJCHANGE``)
  resolved to canonical links via the mined inventory — these drive link
  state;
* **physical-media messages** (``%LINK-3-UPDOWN``; the echoing
  ``%LINEPROTO-5-UPDOWN`` merges into the same transition) — used by
  Table 2's comparison against IP reachability;
* link-level transitions, state timelines under a configurable ambiguity
  strategy, and failures.

A link transitions state whenever a message says so; repeated
same-direction messages create the ambiguous windows studied in §4.3, which
the timeline resolves per the chosen strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import (
    SOURCE_SYSLOG,
    FailureEvent,
    LinkMessage,
    Transition,
    message_sort_key,
)
from repro.core.links import LinkResolver
from repro.core.reconstruct import (
    merge_messages,
    reconstruct_channel,
)
from repro.intervals.timeline import AmbiguityStrategy, LinkStateTimeline, StateAnomaly
from repro.syslog.cisco import (
    AdjacencyChangeMessage,
    LineProtoUpDownMessage,
    LinkUpDownMessage,
)
from repro.syslog.collector import CollectedEntry


@dataclass(frozen=True)
class SyslogExtractionConfig:
    """Knobs of the syslog reconstruction."""

    #: Same-direction reports within this window are one transition.
    merge_window: float = 30.0
    #: How the ambiguous window between repeated same-direction transitions
    #: is treated; the paper's recommendation is PREVIOUS_STATE (§4.3).
    strategy: AmbiguityStrategy = AmbiguityStrategy.PREVIOUS_STATE


@dataclass
class SyslogExtraction:
    """Everything the syslog channel yields for one dataset."""

    isis_messages: List[LinkMessage] = field(default_factory=list)
    physical_messages: List[LinkMessage] = field(default_factory=list)
    isis_transitions: List[Transition] = field(default_factory=list)
    physical_transitions: List[Transition] = field(default_factory=list)
    timelines: Dict[str, LinkStateTimeline] = field(default_factory=dict)
    failures: List[FailureEvent] = field(default_factory=list)
    #: Messages naming a (router, port) absent from the mined inventory.
    unresolved_count: int = 0
    #: Entries that were not link-related Cisco messages at all.
    unparsed_count: int = 0

    def anomalies(self) -> Dict[str, Tuple[StateAnomaly, ...]]:
        """Per-link repeated same-direction transitions (input to §4.3)."""
        return {
            link: timeline.anomalies
            for link, timeline in self.timelines.items()
            if timeline.anomalies
        }


#: Classification labels returned by :func:`classify_entry`.
ENTRY_ISIS = "isis"
ENTRY_PHYSICAL = "physical"
ENTRY_UNPARSED = "unparsed"
ENTRY_UNRESOLVED = "unresolved"
ENTRY_OTHER = "other"


def classify_entry(
    entry: CollectedEntry, resolver: LinkResolver
) -> Tuple[str, Optional[LinkMessage]]:
    """Resolve one collected entry to a link message, or say why not.

    Returns ``(kind, message)`` where ``kind`` is one of ``ENTRY_ISIS`` /
    ``ENTRY_PHYSICAL`` (with the resolved :class:`LinkMessage`),
    ``ENTRY_UNPARSED`` (not a Cisco message), ``ENTRY_UNRESOLVED`` (names a
    port absent from the mined inventory), or ``ENTRY_OTHER`` (a Cisco
    message that is not link-related).  This is the single-entry transition
    logic shared by the batch extractor and the streaming sources.
    """
    parsed = entry.entry
    if parsed is None:
        return ENTRY_UNPARSED, None
    if isinstance(parsed, AdjacencyChangeMessage):
        record = resolver.resolve_port(parsed.router, parsed.interface)
        if record is None:
            return ENTRY_UNRESOLVED, None
        return ENTRY_ISIS, LinkMessage(
            time=entry.generated_time,
            link=record.name,
            direction=parsed.direction,
            reporter=parsed.router,
            source=SOURCE_SYSLOG,
            category="isis",
            reason=parsed.reason,
        )
    if isinstance(parsed, (LinkUpDownMessage, LineProtoUpDownMessage)):
        record = resolver.resolve_port(parsed.router, parsed.interface)
        if record is None:
            return ENTRY_UNRESOLVED, None
        return ENTRY_PHYSICAL, LinkMessage(
            time=entry.generated_time,
            link=record.name,
            direction=parsed.direction,
            reporter=parsed.router,
            source=SOURCE_SYSLOG,
            category="physical",
            reason="",
        )
    return ENTRY_OTHER, None


def classify_entries(
    entries: Sequence[CollectedEntry],
    resolver: LinkResolver,
) -> Tuple[List[LinkMessage], List[LinkMessage], int, int]:
    """The classification stage of the extraction, as a separable unit.

    Returns ``(isis_messages, physical_messages, unparsed_count,
    unresolved_count)`` in entry order.  Classification is per-entry and
    context-free: each entry is classified on its own against the
    resolver.
    """
    isis_messages: List[LinkMessage] = []
    physical_messages: List[LinkMessage] = []
    unparsed = 0
    unresolved = 0
    for entry in entries:
        kind, message = classify_entry(entry, resolver)
        if kind == ENTRY_ISIS:
            isis_messages.append(message)
        elif kind == ENTRY_PHYSICAL:
            physical_messages.append(message)
        elif kind == ENTRY_UNPARSED:
            unparsed += 1
        elif kind == ENTRY_UNRESOLVED:
            unresolved += 1
    return isis_messages, physical_messages, unparsed, unresolved


def extract_syslog(
    entries: Sequence[CollectedEntry],
    resolver: LinkResolver,
    horizon_start: float,
    horizon_end: float,
    config: Optional[SyslogExtractionConfig] = None,
) -> SyslogExtraction:
    """Run the full syslog reconstruction (see module docstring)."""
    if config is None:
        config = SyslogExtractionConfig()
    result = SyslogExtraction()

    (
        result.isis_messages,
        result.physical_messages,
        result.unparsed_count,
        result.unresolved_count,
    ) = classify_entries(entries, resolver)

    result.isis_messages.sort(key=message_sort_key)
    result.physical_messages.sort(key=message_sort_key)

    result.isis_transitions = merge_messages(
        result.isis_messages, config.merge_window, SOURCE_SYSLOG
    )
    result.physical_transitions = merge_messages(
        result.physical_messages, config.merge_window, SOURCE_SYSLOG
    )
    # State reconstruction is restricted to single-link adjacencies: the
    # paper omits multi-link device pairs from the failure analysis because
    # the IS-IS channel cannot resolve them (§3.4), and comparing channels
    # requires the same link universe on both sides.  The raw messages and
    # transitions above still cover every link (Table 2 needs them).
    single = {record.name for record in resolver.single_links()}
    timeline_transitions = [
        t for t in result.isis_transitions if t.link in single
    ]
    result.timelines, result.failures = reconstruct_channel(
        timeline_transitions,
        horizon_start,
        horizon_end,
        strategy=config.strategy,
        links=sorted(single),
        source=SOURCE_SYSLOG,
    )
    return result
