"""Mine router configurations for the network's link inventory.

This is the reproduction of the paper's config-mining step (§3.4): given an
archive of configuration files, recover

* the hostname ↔ OSI system-ID mapping (from ``hostname`` and ``net``),
* every interface's /31 address and description, and
* the link inventory, by pairing the two interfaces that share each /31.

The mined inventory — not the generator's ground-truth model — is what the
analysis pipeline uses for naming, so a mining defect would surface as
unmatchable links exactly as it would have in the original study.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.addressing import parse_ipv4, system_id_from_net

_HOSTNAME_RE = re.compile(r"^hostname\s+(\S+)\s*$")
_NET_RE = re.compile(r"^\s*net\s+(\S+)\s*$")
_INTERFACE_RE = re.compile(r"^interface\s+(\S+)\s*$")
_ADDRESS_RE = re.compile(r"^\s*ip address\s+(\S+)\s+(\S+)\s*$")
_DESCRIPTION_RE = re.compile(r"^\s*description\s+Link to\s+(\S+)\s+(\S+)\s*$")


@dataclass(frozen=True)
class MinedInterface:
    """One interface as recovered from a configuration file."""

    router: str
    name: str
    address: int
    described_far_router: Optional[str] = None
    described_far_port: Optional[str] = None


@dataclass(frozen=True)
class MinedLink:
    """A link recovered by pairing interfaces on a shared /31 subnet."""

    router_a: str
    port_a: str
    router_b: str
    port_b: str
    subnet: int

    @property
    def canonical_name(self) -> str:
        return f"({self.router_a}:{self.port_a}, {self.router_b}:{self.port_b})"


@dataclass
class MinedInventory:
    """Everything the analysis needs from the configuration archive."""

    hostname_to_system_id: Dict[str, str] = field(default_factory=dict)
    system_id_to_hostname: Dict[str, str] = field(default_factory=dict)
    interfaces: List[MinedInterface] = field(default_factory=list)
    links: List[MinedLink] = field(default_factory=list)
    #: Interfaces whose /31 peer never appeared in the archive.
    unpaired_interfaces: List[MinedInterface] = field(default_factory=list)


class ConfigArchive:
    """A collection of configuration file texts, keyed by an archive name.

    Mirrors the paper's archive of config snapshots; only one snapshot per
    router is required for mining, but multiple snapshots of the same router
    are tolerated (later snapshots win), matching how an archive accumulated
    over years behaves.
    """

    def __init__(self) -> None:
        self._configs: Dict[str, str] = {}

    def add(self, name: str, text: str) -> None:
        self._configs[name] = text

    def __len__(self) -> int:
        return len(self._configs)

    def texts(self) -> List[str]:
        return [self._configs[name] for name in sorted(self._configs)]


def _parse_one(text: str) -> Tuple[Optional[str], Optional[str], List[MinedInterface]]:
    """Extract (hostname, system_id, interfaces) from one config text."""
    hostname: Optional[str] = None
    system_id: Optional[str] = None
    interfaces: List[MinedInterface] = []

    current_port: Optional[str] = None
    current_far: Tuple[Optional[str], Optional[str]] = (None, None)
    current_address: Optional[int] = None

    def flush() -> None:
        nonlocal current_port, current_far, current_address
        if current_port is not None and current_address is not None and hostname:
            interfaces.append(
                MinedInterface(
                    router=hostname,
                    name=current_port,
                    address=current_address,
                    described_far_router=current_far[0],
                    described_far_port=current_far[1],
                )
            )
        current_port = None
        current_far = (None, None)
        current_address = None

    for line in text.splitlines():
        match = _HOSTNAME_RE.match(line)
        if match:
            hostname = match.group(1)
            continue
        match = _INTERFACE_RE.match(line)
        if match:
            flush()
            current_port = match.group(1)
            continue
        if line.strip() == "!":
            flush()
            continue
        match = _DESCRIPTION_RE.match(line)
        if match and current_port is not None:
            current_far = (match.group(1), match.group(2))
            continue
        match = _ADDRESS_RE.match(line)
        if match and current_port is not None:
            current_address = parse_ipv4(match.group(1))
            continue
        match = _NET_RE.match(line)
        if match:
            system_id = system_id_from_net(match.group(1))
    flush()
    return hostname, system_id, interfaces


def mine_configs(archive: ConfigArchive) -> MinedInventory:
    """Mine an archive into a :class:`MinedInventory`.

    Links are formed by pairing the two interfaces whose addresses fall in
    the same /31; a subnet with only one configured interface is recorded as
    unpaired (visible in the inventory so analyses can report coverage).
    """
    inventory = MinedInventory()
    interfaces_by_router: Dict[Tuple[str, str], MinedInterface] = {}

    for text in archive.texts():
        hostname, system_id, interfaces = _parse_one(text)
        if hostname is None:
            continue
        if system_id is not None:
            inventory.hostname_to_system_id[hostname] = system_id
            inventory.system_id_to_hostname[system_id] = hostname
        for interface in interfaces:
            interfaces_by_router[(interface.router, interface.name)] = interface

    inventory.interfaces = sorted(
        interfaces_by_router.values(), key=lambda i: (i.router, i.name)
    )

    by_subnet: Dict[int, List[MinedInterface]] = {}
    for interface in inventory.interfaces:
        subnet = interface.address & ~1  # /31 network address
        by_subnet.setdefault(subnet, []).append(interface)

    for subnet, members in sorted(by_subnet.items()):
        if len(members) == 2:
            first, second = sorted(members, key=lambda i: (i.router, i.name))
            inventory.links.append(
                MinedLink(
                    router_a=first.router,
                    port_a=first.name,
                    router_b=second.router,
                    port_b=second.name,
                    subnet=subnet,
                )
            )
        else:
            inventory.unpaired_interfaces.extend(members)
    return inventory
