"""Failure reconstruction from the listener's LSP archive (§3.2, §3.4).

The archive is replayed byte-for-byte through the passive listener, which
diffs each origin's Extended IS Reachability and Extended IP Reachability
advertisements.  The resulting per-origin changes are resolved onto
canonical links:

* **IS reachability** changes name a ``(origin, neighbor)`` device pair.
  Pairs joined by parallel links cannot be charged to a physical link and
  are omitted, exactly as the paper omits its 26 multi-link adjacencies;
* **IP reachability** changes name a /31, which maps to exactly one link
  (non-/31 prefixes — loopbacks, statics — are not links and are skipped).

Link state and failures are derived from **IS reachability** (the paper's
§3.4 conclusion); the IP-side transitions are kept for Table 2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.ledger import CHANNEL_ISIS, IngestReport

from repro.core.events import (
    SOURCE_ISIS_IP,
    SOURCE_ISIS_IS,
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
from repro.intervals.timeline import AmbiguityStrategy, LinkStateTimeline
from repro.isis.listener import IsisListener, ReachabilityChange, ReachabilityKind


@dataclass(frozen=True)
class IsisExtractionConfig:
    """Knobs of the IS-IS reconstruction."""

    #: Withdrawals of the same adjacency by its two origins merge within
    #: this window into one link transition.
    merge_window: float = 30.0
    #: Ambiguity strategy for the (rare) inconsistent IS-IS sequences, e.g.
    #: around listener resyncs.
    strategy: AmbiguityStrategy = AmbiguityStrategy.PREVIOUS_STATE


@dataclass
class IsisExtraction:
    """Everything the IS-IS channel yields for one dataset."""

    is_messages: List[LinkMessage] = field(default_factory=list)
    ip_messages: List[LinkMessage] = field(default_factory=list)
    is_transitions: List[Transition] = field(default_factory=list)
    ip_transitions: List[Transition] = field(default_factory=list)
    timelines: Dict[str, LinkStateTimeline] = field(default_factory=dict)
    failures: List[FailureEvent] = field(default_factory=list)
    #: IS changes on multi-link device pairs (omitted, per §3.4).
    multilink_skipped: int = 0
    #: Changes that could not be resolved to any link.
    unresolved_count: int = 0
    #: LSPs the LSDB rejected as duplicates or stale floods.
    rejected_lsps: int = 0


def replay_lsp_records(
    records: Sequence[Tuple[float, bytes]],
    *,
    strict: bool = True,
    report: Optional[IngestReport] = None,
) -> Tuple[IsisListener, List[ReachabilityChange]]:
    """Feed an archive through a fresh listener; returns it and its changes.

    ``strict=True`` lets decode failures (bit-flipped payloads, checksum
    mismatches) propagate as before.  ``strict=False`` quarantines the
    undecodable record into ``report`` — reason, record index, and a
    sample of the decoder's complaint — and continues with the next one,
    the same behaviour :func:`repro.stream.sources.isis_events` applies
    so batch and stream stay equivalent on damaged archives.
    """
    listener = IsisListener()
    for index, (time, raw) in enumerate(records):
        try:
            listener.observe_bytes(time, raw)
        except (ValueError, struct.error) as error:
            if strict:
                raise
            if report is not None:
                report.record(
                    CHANNEL_ISIS,
                    "lsp-decode",
                    index=index,
                    sample=str(error),
                )
    return listener, list(listener.changes)


#: Classification labels returned by :func:`classify_change`.
CHANGE_IS = "is"
CHANGE_IP = "ip"
CHANGE_MULTILINK = "multilink"
CHANGE_UNRESOLVED = "unresolved"


def classify_change(
    change: ReachabilityChange, resolver: LinkResolver
) -> Tuple[str, Optional[LinkMessage]]:
    """Resolve one reachability change to a link message, or say why not.

    Returns ``(kind, message)`` where ``kind`` is ``CHANGE_IS`` /
    ``CHANGE_IP`` (with the resolved :class:`LinkMessage`),
    ``CHANGE_MULTILINK`` (an IS change on a parallel-link device pair,
    omitted per §3.4), or ``CHANGE_UNRESOLVED``.  This is the single-change
    resolution logic shared by the batch extractor and the streaming
    sources.
    """
    origin_host = resolver.hostname_for(change.origin_system_id)
    if origin_host is None:
        return CHANGE_UNRESOLVED, None
    if change.kind is ReachabilityKind.IS:
        record, multi = resolver.resolve_adjacency(
            change.origin_system_id, str(change.target)
        )
        if record is None:
            return (CHANGE_MULTILINK if multi else CHANGE_UNRESOLVED), None
        return CHANGE_IS, LinkMessage(
            time=change.time,
            link=record.name,
            direction=change.direction,
            reporter=origin_host,
            source=SOURCE_ISIS_IS,
            category="is-reachability",
        )
    prefix, prefix_length = change.target  # type: ignore[misc]
    record = resolver.resolve_prefix(prefix, prefix_length)
    if record is None:
        return CHANGE_UNRESOLVED, None
    return CHANGE_IP, LinkMessage(
        time=change.time,
        link=record.name,
        direction=change.direction,
        reporter=origin_host,
        source=SOURCE_ISIS_IP,
        category="ip-reachability",
    )


def classify_changes(
    changes: Sequence[ReachabilityChange],
    resolver: LinkResolver,
) -> Tuple[List[LinkMessage], List[LinkMessage], int, int]:
    """The classification stage of the extraction, as a separable unit.

    Returns ``(is_messages, ip_messages, multilink_skipped,
    unresolved_count)`` in change order.  Classification is per-change and
    context-free: each change is classified on its own against the
    resolver.
    """
    is_messages: List[LinkMessage] = []
    ip_messages: List[LinkMessage] = []
    multilink = 0
    unresolved = 0
    for change in changes:
        kind, message = classify_change(change, resolver)
        if kind == CHANGE_IS:
            is_messages.append(message)
        elif kind == CHANGE_IP:
            ip_messages.append(message)
        elif kind == CHANGE_MULTILINK:
            multilink += 1
        else:
            unresolved += 1
    return is_messages, ip_messages, multilink, unresolved


def extract_isis(
    lsp_records: Sequence[Tuple[float, bytes]],
    resolver: LinkResolver,
    horizon_start: float,
    horizon_end: float,
    config: Optional[IsisExtractionConfig] = None,
    *,
    strict: bool = True,
    report: Optional[IngestReport] = None,
) -> IsisExtraction:
    """Run the full IS-IS reconstruction (see module docstring)."""
    listener, changes = replay_lsp_records(
        lsp_records, strict=strict, report=report
    )
    if config is None:
        config = IsisExtractionConfig()
    result = IsisExtraction()
    result.rejected_lsps = listener.rejected_count

    (
        result.is_messages,
        result.ip_messages,
        result.multilink_skipped,
        result.unresolved_count,
    ) = classify_changes(changes, resolver)

    result.is_messages.sort(key=message_sort_key)
    result.ip_messages.sort(key=message_sort_key)

    result.is_transitions = merge_messages(
        result.is_messages, config.merge_window, SOURCE_ISIS_IS
    )
    result.ip_transitions = merge_messages(
        result.ip_messages, config.merge_window, SOURCE_ISIS_IP
    )
    result.timelines, result.failures = reconstruct_channel(
        result.is_transitions,
        horizon_start,
        horizon_end,
        strategy=config.strategy,
        links=[record.name for record in resolver.single_links()],
        source=SOURCE_ISIS_IS,
    )
    return result
