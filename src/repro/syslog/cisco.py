"""Cisco syslog message vocabulary.

The paper's syslog feed contains the messages pertaining to "the link, link
protocol, and IS-IS routing protocol" (§3.3); Table 1 names the two IS-IS
adjacency mnemonics:

* ``%CLNS-5-ADJCHANGE`` — classic IOS (our CPE routers),
* ``%ROUTING-ISIS-4-ADJCHANGE`` — IOS-XR (our Core routers),

and §3.4/Table 2 additionally use the physical-media messages
``%LINK-3-UPDOWN`` and ``%LINEPROTO-5-UPDOWN``.

Each message class renders to the authentic body text and parses back,
carrying the structured facts the analysis needs: the local interface, the
direction, and (for adjacency messages) the neighbor's hostname.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional, Union

from repro.syslog.message import Severity, SyslogMessage


class CiscoFlavor(enum.Enum):
    """Which operating system's message format a router emits."""

    IOS = "ios"
    IOS_XR = "ios-xr"


class MessageCategory(enum.Enum):
    """Table 2's split: IS-IS protocol messages vs physical media messages."""

    ISIS = "isis"
    PHYSICAL = "physical"


@dataclass(frozen=True)
class AdjacencyChangeMessage:
    """An IS-IS adjacency state change logged by a router.

    ``reason`` carries Cisco's cause phrase; the analysis in §4.3 uses it to
    distinguish a *reset adjacency* pseudo-failure from a subsequent real
    link failure ("differentiated ... by the type of syslog message being
    sent").
    """

    router: str
    interface: str
    neighbor_hostname: str
    direction: str  # "up" | "down"
    reason: str = ""
    flavor: CiscoFlavor = CiscoFlavor.IOS

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")

    @property
    def category(self) -> MessageCategory:
        return MessageCategory.ISIS

    @property
    def mnemonic(self) -> str:
        if self.flavor is CiscoFlavor.IOS:
            return "%CLNS-5-ADJCHANGE"
        return "%ROUTING-ISIS-4-ADJCHANGE"

    @property
    def severity(self) -> Severity:
        return (
            Severity.NOTICE if self.flavor is CiscoFlavor.IOS else Severity.WARNING
        )

    def render_body(self) -> str:
        state = "Up" if self.direction == "up" else "Down"
        suffix = f", {self.reason}" if self.reason else ""
        if self.flavor is CiscoFlavor.IOS:
            return (
                f"{self.mnemonic}: ISIS: Adjacency to {self.neighbor_hostname} "
                f"({self.interface}) {state}{suffix}"
            )
        return (
            f"{self.mnemonic} : Adjacency to {self.neighbor_hostname} "
            f"({self.interface}) (L2) {state}{suffix}"
        )

    def to_syslog(self, time: float) -> SyslogMessage:
        return SyslogMessage(
            timestamp=time,
            hostname=self.router,
            body=self.render_body(),
            severity=self.severity,
        )


@dataclass(frozen=True)
class LinkUpDownMessage:
    """``%LINK-3-UPDOWN`` — the physical interface changed state."""

    router: str
    interface: str
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")

    @property
    def category(self) -> MessageCategory:
        return MessageCategory.PHYSICAL

    mnemonic = "%LINK-3-UPDOWN"

    @property
    def severity(self) -> Severity:
        return Severity.ERROR

    def render_body(self) -> str:
        return (
            f"{self.mnemonic}: Interface {self.interface}, "
            f"changed state to {self.direction}"
        )

    def to_syslog(self, time: float) -> SyslogMessage:
        return SyslogMessage(
            timestamp=time,
            hostname=self.router,
            body=self.render_body(),
            severity=self.severity,
        )


@dataclass(frozen=True)
class LineProtoUpDownMessage:
    """``%LINEPROTO-5-UPDOWN`` — the link protocol followed the interface."""

    router: str
    interface: str
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")

    @property
    def category(self) -> MessageCategory:
        return MessageCategory.PHYSICAL

    mnemonic = "%LINEPROTO-5-UPDOWN"

    @property
    def severity(self) -> Severity:
        return Severity.NOTICE

    def render_body(self) -> str:
        return (
            f"{self.mnemonic}: Line protocol on Interface {self.interface}, "
            f"changed state to {self.direction}"
        )

    def to_syslog(self, time: float) -> SyslogMessage:
        return SyslogMessage(
            timestamp=time,
            hostname=self.router,
            body=self.render_body(),
            severity=self.severity,
        )


CiscoLogEntry = Union[AdjacencyChangeMessage, LinkUpDownMessage, LineProtoUpDownMessage]

_CLNS_RE = re.compile(
    r"^%CLNS-5-ADJCHANGE: ISIS: Adjacency to (?P<neighbor>\S+) "
    r"\((?P<interface>\S+)\) (?P<state>Up|Down)(?:, (?P<reason>.*))?$"
)
_XR_RE = re.compile(
    r"^%ROUTING-ISIS-4-ADJCHANGE : Adjacency to (?P<neighbor>\S+) "
    r"\((?P<interface>\S+)\) \(L2\) (?P<state>Up|Down)(?:, (?P<reason>.*))?$"
)
_LINK_RE = re.compile(
    r"^%LINK-3-UPDOWN: Interface (?P<interface>\S+), "
    r"changed state to (?P<state>up|down)$"
)
_LINEPROTO_RE = re.compile(
    r"^%LINEPROTO-5-UPDOWN: Line protocol on Interface (?P<interface>\S+), "
    r"changed state to (?P<state>up|down)$"
)


def parse_cisco_body(router: str, body: str) -> Optional[CiscoLogEntry]:
    """Parse a syslog body into a typed Cisco entry.

    Returns ``None`` for bodies that are not one of the four link-related
    mnemonics — the collector feed, like CENIC's, may contain other chatter
    that the failure analysis must skip over.  Each mnemonic's regex is
    anchored on its literal prefix, so only the one regex whose prefix
    the body starts with is tried, and chatter costs four ``startswith``.
    """
    if body.startswith("%CLNS-5-"):
        match = _CLNS_RE.match(body)
        if match:
            return AdjacencyChangeMessage(
                router=router,
                interface=match.group("interface"),
                neighbor_hostname=match.group("neighbor"),
                direction=match.group("state").lower(),
                reason=match.group("reason") or "",
                flavor=CiscoFlavor.IOS,
            )
    elif body.startswith("%ROUTING-ISIS-4-"):
        match = _XR_RE.match(body)
        if match:
            return AdjacencyChangeMessage(
                router=router,
                interface=match.group("interface"),
                neighbor_hostname=match.group("neighbor"),
                direction=match.group("state").lower(),
                reason=match.group("reason") or "",
                flavor=CiscoFlavor.IOS_XR,
            )
    elif body.startswith("%LINK-3-"):
        match = _LINK_RE.match(body)
        if match:
            return LinkUpDownMessage(
                router=router,
                interface=match.group("interface"),
                direction=match.group("state"),
            )
    elif body.startswith("%LINEPROTO-5-"):
        match = _LINEPROTO_RE.match(body)
        if match:
            return LineProtoUpDownMessage(
                router=router,
                interface=match.group("interface"),
                direction=match.group("state"),
            )
    return None
