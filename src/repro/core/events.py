"""The common event vocabulary both channels are reduced to.

The paper's comparison requires reducing syslog messages and IS-IS LSP
deltas to the same three-level hierarchy (§3.4):

``LinkMessage``
    One channel record attributed to a link: a single router's syslog
    message, or a single origin's reachability withdrawal/advertisement.
``Transition``
    A link-level state change: same-direction messages from the link's two
    ends merged within a small window.  Carries which ends reported — the
    raw material for Table 3's None/One/Both accounting.
``FailureEvent``
    A DOWN transition followed by an UP transition on the same link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.intervals.timeline import DOWN, UP

#: Channel labels used in ``source`` fields.
SOURCE_SYSLOG = "syslog"
SOURCE_ISIS_IS = "isis-is"
SOURCE_ISIS_IP = "isis-ip"


# --------------------------------------------------------- canonical order
# The three canonical sort keys every execution mode must order by.  All
# four drivers (batch, columnar, stream, service) sort the same streams
# with the same keys — drifting tie-breakers are exactly how a second
# driver or a resumed stream would silently diverge from the reference
# run, so the keys live here once and the engine conformance tests
# check every driver's output order against them on tied input.
def message_sort_key(message: "LinkMessage") -> Tuple[float, str, str]:
    """``(time, link, reporter)`` — the message-stream order."""
    return (message.time, message.link, message.reporter)


def transition_sort_key(transition: "Transition") -> Tuple[float, str]:
    """``(time, link)`` — the transition-stream order."""
    return (transition.time, transition.link)


def failure_sort_key(event: "FailureEvent") -> Tuple[float, str]:
    """``(start, link)`` — failure and flap-episode order (duck-typed:
    :class:`~repro.core.flapping.FlapEpisode` carries the same fields)."""
    return (event.start, event.link)


@dataclass(frozen=True)
class LinkMessage:
    """One single-reporter record attributed to a canonical link.

    ``reporter`` is the hostname of the router whose syslog message (or
    whose LSP) produced this record; ``category`` distinguishes IS-IS
    protocol messages from physical-media messages (Table 2's rows), and
    ``reason`` carries the Cisco cause phrase where present.
    """

    time: float
    link: str
    direction: str
    reporter: str
    source: str
    category: str = "isis"
    reason: str = ""

    def __post_init__(self) -> None:
        if self.direction not in (UP, DOWN):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass(frozen=True)
class Transition:
    """A link-level state change merged from one or both ends' reports."""

    time: float
    link: str
    direction: str
    source: str
    reporters: FrozenSet[str]
    messages: Tuple[LinkMessage, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.direction not in (UP, DOWN):
            raise ValueError(f"bad direction {self.direction!r}")
        if not self.reporters:
            raise ValueError("a transition needs at least one reporter")


@dataclass(frozen=True)
class FailureEvent:
    """A reconstructed failure: DOWN at ``start``, UP at ``end``.

    Zero-duration failures (``end == start``) are legal: sanitising a
    double-down/double-up message sequence can collapse a failure to an
    instant, and §4.1's flap detection must still count it.  Only a
    failure that ends before it starts is an error.
    """

    link: str
    start: float
    end: float
    source: str
    start_transition: Optional[Transition] = None
    end_transition: Optional[Transition] = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("failure end precedes its start")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "FailureEvent") -> bool:
        """Positive-measure overlap on the same link."""
        return (
            self.link == other.link
            and self.start < other.end
            and other.start < self.end
        )
