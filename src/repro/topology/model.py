"""Object model for the simulated network.

The model mirrors what the paper's analysis needs to know about CENIC:

* routers split into **Core** (backbone) and **CPE** (customer premises),
* point-to-point **links**, each with two named ports, a /31 subnet, and an
  IS-IS metric; links between the same device pair may be *parallel*
  (multi-link adjacencies, which IS reachability cannot tell apart — §3.4),
* **customer sites** attached to one or more CPE routers, used by the
  isolation analysis of §4.4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from repro.topology.addressing import format_ipv4


class RouterClass(enum.Enum):
    """Backbone (Core) versus customer-premises (CPE) routers."""

    CORE = "core"
    CPE = "cpe"


class LinkClass(enum.Enum):
    """Link classification used throughout the paper's statistics.

    A link is CORE when both endpoints are Core routers; any link touching a
    CPE router is a CPE link.
    """

    CORE = "core"
    CPE = "cpe"


@dataclass(frozen=True)
class Interface:
    """A router port participating in exactly one point-to-point link."""

    router: str
    name: str
    address: int  # integer IPv4 host address on the link's /31
    link_id: str

    @property
    def address_text(self) -> str:
        return format_ipv4(self.address)


@dataclass(frozen=True)
class Link:
    """A point-to-point link between two router ports.

    Endpoints are stored in canonical order (lexicographic by
    ``(router, port)``) so that a link observed from either end maps to the
    same identity — the common naming convention of §3.4.
    """

    link_id: str
    router_a: str
    port_a: str
    router_b: str
    port_b: str
    subnet: int  # network address of the /31, an even integer
    metric: int = 10
    link_class: LinkClass = LinkClass.CORE

    def __post_init__(self) -> None:
        if (self.router_a, self.port_a) > (self.router_b, self.port_b):
            raise ValueError("link endpoints must be in canonical order")
        if self.router_a == self.router_b:
            raise ValueError("self-loop links are not allowed")
        if self.subnet % 2:
            raise ValueError("subnet must be the even /31 network address")

    @property
    def device_pair(self) -> FrozenSet[str]:
        """The unordered router pair — the granularity of IS reachability."""
        return frozenset((self.router_a, self.router_b))

    @property
    def endpoints(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        return ((self.router_a, self.port_a), (self.router_b, self.port_b))

    def other_end(self, router: str) -> str:
        """The router at the far end from ``router``."""
        if router == self.router_a:
            return self.router_b
        if router == self.router_b:
            return self.router_a
        raise ValueError(f"{router} is not an endpoint of {self.link_id}")

    def port_on(self, router: str) -> str:
        """The local port name on ``router``."""
        if router == self.router_a:
            return self.port_a
        if router == self.router_b:
            return self.port_b
        raise ValueError(f"{router} is not an endpoint of {self.link_id}")

    def address_on(self, router: str) -> int:
        """The /31 host address assigned to ``router``'s end.

        The canonical-order lower endpoint takes the even (network) address.
        """
        if router == self.router_a:
            return self.subnet
        if router == self.router_b:
            return self.subnet + 1
        raise ValueError(f"{router} is not an endpoint of {self.link_id}")

    @property
    def canonical_name(self) -> str:
        """`(host1:port1, host2:port2)` — the paper's link naming convention."""
        return f"({self.router_a}:{self.port_a}, {self.router_b}:{self.port_b})"


@dataclass(frozen=True)
class Router:
    """A router with its class, hostname, and OSI system ID."""

    name: str
    router_class: RouterClass
    system_id: str

    @property
    def is_core(self) -> bool:
        return self.router_class is RouterClass.CORE


@dataclass(frozen=True)
class CustomerSite:
    """A customer institution attached to one or more CPE routers."""

    name: str
    attachment_routers: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attachment_routers:
            raise ValueError("a customer site needs at least one attachment")


@dataclass
class Network:
    """The complete simulated network: routers, links, and customer sites."""

    routers: Dict[str, Router] = field(default_factory=dict)
    links: Dict[str, Link] = field(default_factory=dict)
    sites: Dict[str, CustomerSite] = field(default_factory=dict)

    # ------------------------------------------------------------------ adds
    def add_router(self, router: Router) -> None:
        if router.name in self.routers:
            raise ValueError(f"duplicate router {router.name}")
        for existing in self.routers.values():
            if existing.system_id == router.system_id:
                raise ValueError(f"duplicate system id {router.system_id}")
        self.routers[router.name] = router

    def add_link(self, link: Link) -> None:
        if link.link_id in self.links:
            raise ValueError(f"duplicate link {link.link_id}")
        for endpoint in (link.router_a, link.router_b):
            if endpoint not in self.routers:
                raise ValueError(f"link references unknown router {endpoint}")
        for existing in self.links.values():
            if existing.subnet == link.subnet:
                raise ValueError(f"duplicate subnet on {link.link_id}")
        self.links[link.link_id] = link

    def add_site(self, site: CustomerSite) -> None:
        if site.name in self.sites:
            raise ValueError(f"duplicate site {site.name}")
        for attachment in site.attachment_routers:
            router = self.routers.get(attachment)
            if router is None:
                raise ValueError(f"site references unknown router {attachment}")
            if router.is_core:
                raise ValueError("customer sites attach to CPE routers")
        self.sites[site.name] = site

    # --------------------------------------------------------------- lookups
    def router_by_system_id(self, system_id: str) -> Router:
        for router in self.routers.values():
            if router.system_id == system_id:
                return router
        raise KeyError(system_id)

    def links_between(self, router_a: str, router_b: str) -> List[Link]:
        """All (possibly parallel) links joining a device pair."""
        pair = frozenset((router_a, router_b))
        return [link for link in self.links.values() if link.device_pair == pair]

    def links_of(self, router: str) -> List[Link]:
        """All links incident to ``router``."""
        return [
            link
            for link in self.links.values()
            if router in (link.router_a, link.router_b)
        ]

    def multi_link_pairs(self) -> List[FrozenSet[str]]:
        """Device pairs joined by more than one physical link.

        These are the adjacencies the paper *omits* from IS-reachability
        analysis because a single IS reachability entry covers all parallel
        links (§3.4).
        """
        counts: Dict[FrozenSet[str], int] = {}
        for link in self.links.values():
            counts[link.device_pair] = counts.get(link.device_pair, 0) + 1
        return [pair for pair, count in counts.items() if count > 1]

    def single_link_ids(self) -> List[str]:
        """IDs of links that are their device pair's only link."""
        multi = set(self.multi_link_pairs())
        return [
            link_id
            for link_id, link in self.links.items()
            if link.device_pair not in multi
        ]

    def core_links(self) -> List[Link]:
        return [l for l in self.links.values() if l.link_class is LinkClass.CORE]

    def cpe_links(self) -> List[Link]:
        return [l for l in self.links.values() if l.link_class is LinkClass.CPE]

    def core_routers(self) -> List[Router]:
        return [r for r in self.routers.values() if r.is_core]

    def cpe_routers(self) -> List[Router]:
        return [r for r in self.routers.values() if not r.is_core]

    # ----------------------------------------------------------------- graph
    def graph(self) -> "nx.MultiGraph":
        """The network as a multigraph keyed by link ID.

        A multigraph (rather than a simple graph) is required because of
        multi-link adjacencies: removing one of two parallel links must not
        disconnect the pair.
        """
        g = nx.MultiGraph()
        for router in self.routers.values():
            g.add_node(router.name, router_class=router.router_class.value)
        for link in self.links.values():
            g.add_edge(link.router_a, link.router_b, key=link.link_id)
        return g

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for link in self.links.values():
            classes = {
                self.routers[link.router_a].router_class,
                self.routers[link.router_b].router_class,
            }
            expected = (
                LinkClass.CORE if classes == {RouterClass.CORE} else LinkClass.CPE
            )
            if link.link_class is not expected:
                raise ValueError(
                    f"{link.link_id} marked {link.link_class.value} but endpoints "
                    f"imply {expected.value}"
                )
        g = self.graph()
        if self.routers and not nx.is_connected(g):
            raise ValueError("network graph is not connected")

    def interfaces_of(self, router: str) -> List[Interface]:
        """The interface objects configured on ``router``, in port order."""
        interfaces = [
            Interface(
                router=router,
                name=link.port_on(router),
                address=link.address_on(router),
                link_id=link.link_id,
            )
            for link in self.links_of(router)
        ]
        return sorted(interfaces, key=lambda itf: itf.name)
