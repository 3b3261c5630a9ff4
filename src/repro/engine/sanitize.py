"""The canonical sanitise phase: §4.2's cleaning rules.

Before any statistics, the paper cleans both failure sets:

1. failures spanning **listener outage** windows are removed — during such
   windows the IS-IS channel is blind, so no fair comparison exists, and
   the post-restart resync fabricates transition times;
2. syslog failures longer than **24 hours** are "manually verified" against
   NOC trouble tickets; unverified ones are removed as spurious.  In the
   paper this single step removes ~6,000 hours of downtime — nearly twice
   the real total — so it is the highest-leverage filter in the pipeline.

:func:`classify_failure` is the single-failure decision every mode runs;
:class:`Sanitizer` is the per-link machine that orders those decisions
under a watermark.  The batch driver
(:func:`repro.core.sanitize.sanitize_failures`) feeds it with an
infinite watermark so every decision is immediate; the stream engine
feeds real watermarks, holding long failures open until the ticket
horizon closes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Annotated, Deque, Dict, List, Optional

from repro.core.events import FailureEvent
from repro.engine.state import PRODUCTS
from repro.intervals import IntervalSet
from repro.ticketing import TicketSystem
from repro.util.timefmt import SECONDS_PER_HOUR


@dataclass(frozen=True)
class SanitizationConfig:
    """Thresholds of the §4.2 cleaning pass."""

    #: Failures at least this long need ticket verification (24 hours).
    long_failure_threshold: float = 86400.0
    #: Slack when cross-checking tickets (NOC open/close lag tolerance).
    ticket_slack: float = 7200.0

    def __post_init__(self) -> None:
        if self.long_failure_threshold <= 0:
            raise ValueError("long-failure threshold must be positive")
        if self.ticket_slack < 0:
            raise ValueError("ticket slack must be non-negative")


@dataclass
class SanitizationReport:
    """What the cleaning pass kept and what it threw away, and why."""

    kept: List[FailureEvent] = field(default_factory=list)
    removed_listener_overlap: List[FailureEvent] = field(default_factory=list)
    removed_unverified_long: List[FailureEvent] = field(default_factory=list)
    verified_long: List[FailureEvent] = field(default_factory=list)

    @property
    def long_failures_checked(self) -> int:
        return len(self.verified_long) + len(self.removed_unverified_long)

    @property
    def spurious_downtime_hours(self) -> float:
        """Hours of downtime removed by ticket verification."""
        return (
            sum(f.duration for f in self.removed_unverified_long)
            / SECONDS_PER_HOUR
        )

    @property
    def kept_downtime_hours(self) -> float:
        return sum(f.duration for f in self.kept) / SECONDS_PER_HOUR


#: Dispositions returned by :func:`classify_failure`.
KEEP = "keep"
KEEP_VERIFIED = "keep-verified"
DROP_LISTENER = "drop-listener"
DROP_UNVERIFIED = "drop-unverified"


def classify_failure(
    failure: FailureEvent,
    listener_outages: IntervalSet,
    tickets: Optional[TicketSystem],
    config: SanitizationConfig,
) -> str:
    """Decide one failure's fate under §4.2's cleaning rules.

    Returns ``KEEP``, ``KEEP_VERIFIED`` (a long failure corroborated by a
    ticket), ``DROP_LISTENER`` (spans a listener outage), or
    ``DROP_UNVERIFIED`` (a long failure no ticket corroborates).  This is
    the single-failure decision shared by every mode's sanitiser.

    Listener-outage overlap is **closed-interval**: the failure's closed
    span ``[start, end]`` need only touch an outage's closed span — a
    zero-duration failure sitting exactly on an outage boundary was still
    observed while the listener was blind, so it is dropped rather than
    falling through the measure-zero crack of half-open intersection.
    """
    if listener_outages.touches(failure.start, failure.end):
        return DROP_LISTENER
    if failure.duration >= config.long_failure_threshold and tickets is not None:
        if tickets.confirms(
            failure.link, failure.start, failure.end, slack=config.ticket_slack
        ):
            return KEEP_VERIFIED
        return DROP_UNVERIFIED
    return KEEP


def apply_disposition(
    report: SanitizationReport, failure: FailureEvent, disposition: str
) -> None:
    """Record one classified failure in a report (shared by every mode)."""
    if disposition == DROP_LISTENER:
        report.removed_listener_overlap.append(failure)
    elif disposition == DROP_UNVERIFIED:
        report.removed_unverified_long.append(failure)
    elif disposition == KEEP_VERIFIED:
        report.verified_long.append(failure)
        report.kept.append(failure)
    elif disposition == KEEP:
        report.kept.append(failure)
    else:
        raise ValueError(f"unknown disposition {disposition!r}")


class Sanitizer:
    """Per-link watermark-ordered application of §4.2's cleaning rules.

    The one genuinely temporal rule is deferred: a syslog failure at or
    above the 24 h threshold is held until the watermark passes its end
    plus the ticket slack — the horizon inside which a NOC ticket
    corroborating it could still close — before the ticket archive is
    consulted.  Listener-outage masking is immediate: the listener's
    outage log for the elapsed portion of the campaign is already final
    when the failure ends.  Per-link release order is preserved (a held
    long failure queues everything behind it on its link) so downstream
    consumers see per-link failure streams in start order.
    """

    # Checkpointed state (see repro.engine.state).
    report: Annotated[SanitizationReport, PRODUCTS]
    #: Per-link FIFO of failures awaiting a decision.
    held: Dict[str, Deque[FailureEvent]]

    def __init__(
        self,
        listener_outages: IntervalSet,
        tickets: Optional[TicketSystem],
        config: SanitizationConfig,
    ) -> None:
        self.listener_outages = listener_outages
        self.tickets = tickets
        self.config = config
        self.report = SanitizationReport()
        self.held = {}

    def _decidable(self, failure: FailureEvent, watermark: float) -> bool:
        if self.tickets is None:
            return True
        if failure.duration < self.config.long_failure_threshold:
            return True
        # The ticket horizon: a corroborating ticket can open/close up to
        # `ticket_slack` after the outage; only then is absence decisive.
        return watermark > failure.end + self.config.ticket_slack

    def feed(self, failure: FailureEvent, watermark: float) -> List[FailureEvent]:
        """Add one failure; returns the kept failures released by it."""
        queue = self.held.get(failure.link)
        if queue is None:
            queue = self.held[failure.link] = deque()
        queue.append(failure)
        return self._drain_link(failure.link, watermark)

    def _drain_link(self, link: str, watermark: float) -> List[FailureEvent]:
        queue = self.held.get(link)
        released: List[FailureEvent] = []
        while queue and self._decidable(queue[0], watermark):
            failure = queue.popleft()
            disposition = classify_failure(
                failure, self.listener_outages, self.tickets, self.config
            )
            apply_disposition(self.report, failure, disposition)
            if disposition in (KEEP, KEEP_VERIFIED):
                released.append(failure)
        if queue is not None and not queue:
            del self.held[link]
        return released

    def advance(self, watermark: float) -> List[FailureEvent]:
        """Release everything whose ticket horizon has closed."""
        released: List[FailureEvent] = []
        for link in sorted(self.held):
            released.extend(self._drain_link(link, watermark))
        return released

    def flush(self) -> List[FailureEvent]:
        return self.advance(math.inf)

    def held_frontier(self, link: str) -> float:
        """Lower bound on the start of any held (undecided) failure."""
        queue = self.held.get(link)
        return queue[0].start if queue else math.inf

    @property
    def held_count(self) -> int:
        return sum(len(queue) for queue in self.held.values())

    def finalized_report(self) -> SanitizationReport:
        """The report in the batch pass's canonical (start, link) order."""
        report = SanitizationReport()
        key = lambda f: (f.start, f.link)  # noqa: E731
        report.kept = sorted(self.report.kept, key=key)
        report.removed_listener_overlap = sorted(
            self.report.removed_listener_overlap, key=key
        )
        report.removed_unverified_long = sorted(
            self.report.removed_unverified_long, key=key
        )
        report.verified_long = sorted(self.report.verified_long, key=key)
        return report
