"""Simulated routers: protocol state, syslog emission, LSP flooding.

A :class:`SimulatedRouter` owns one router's IS-IS view: which links toward
each neighbor are currently up (an *IS reachability entry exists while at
least one parallel link is up* — the multi-link collapse of §3.4) and which
connected /31 prefixes are advertised.  Injected events mutate that state;
the router responds like IOS does:

* state changes mark the LSP dirty and schedule a regeneration, subject to
  an **LSP generation interval** — changes arriving faster than the
  interval coalesce into one flood, so a sub-interval down/up round trip can
  produce an LSP identical to the previous one (a flap the IS-IS channel
  never sees);
* every flood carries a fresh sequence number, so the listener's LSDB
  accepts it even when the content is unchanged.

Syslog emission is driven by the effects layer, not the router, because the
message mix depends on failure cause and per-end detection mode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from repro.isis.lsp import LinkStatePacket, LspId
from repro.isis.tlv import (
    AreaAddressesTlv,
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
    ProtocolsSupportedTlv,
    Tlv,
)
from repro.simulation.engine import EventQueue
from repro.syslog.cisco import CiscoFlavor
from repro.topology.model import Network, Router

#: Entries per TLV instance keeping the value under 255 octets.
_IS_ENTRIES_PER_TLV = 23  # 11 octets each
_IP_ENTRIES_PER_TLV = 28  # at most 9 octets each

FloodCallback = Callable[[float, "SimulatedRouter", LinkStatePacket], None]


def _chunk(seq: list, size: int) -> List[list]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


class SimulatedRouter:
    """One router's IS-IS advertisement state and flooding behaviour."""

    def __init__(
        self,
        router: Router,
        network: Network,
        engine: EventQueue,
        flood_callback: FloodCallback,
        lsp_generation_interval: float = 5.0,
        initial_flood_delay: float = 0.05,
    ) -> None:
        self.router = router
        self.name = router.name
        self.system_id = router.system_id
        self.flavor = CiscoFlavor.IOS_XR if router.is_core else CiscoFlavor.IOS
        self._engine = engine
        self._flood_callback = flood_callback
        self.lsp_generation_interval = lsp_generation_interval
        self.initial_flood_delay = initial_flood_delay

        # Static per-link facts.
        self._link_neighbor: Dict[str, str] = {}  # link_id -> neighbor system id
        self._link_metric: Dict[str, int] = {}
        self._link_prefix: Dict[str, Tuple[int, int]] = {}
        for link in network.links_of(router.name):
            neighbor = network.routers[link.other_end(router.name)]
            self._link_neighbor[link.link_id] = neighbor.system_id
            self._link_metric[link.link_id] = link.metric
            self._link_prefix[link.link_id] = (link.subnet, 31)

        # Dynamic advertisement state: initially everything is up.
        self._up_links_by_neighbor: Dict[str, Set[str]] = {}
        for link_id, neighbor_id in self._link_neighbor.items():
            self._up_links_by_neighbor.setdefault(neighbor_id, set()).add(link_id)
        self._advertised_prefixes: Set[Tuple[int, int]] = set(
            self._link_prefix.values()
        )

        self._sequence_number = 0
        self._last_flood_time = float("-inf")
        self._flood_pending = False
        self.flood_count = 0

    # ------------------------------------------------------------- queries
    def advertises_neighbor(self, neighbor_system_id: str) -> bool:
        return bool(self._up_links_by_neighbor.get(neighbor_system_id))

    def advertises_prefix(self, prefix: Tuple[int, int]) -> bool:
        return prefix in self._advertised_prefixes

    # ---------------------------------------------------- injected events
    def adjacency_down(self, time: float, link_id: str) -> None:
        """The adjacency over ``link_id`` was lost at this end."""
        neighbor_id = self._link_neighbor[link_id]
        up_links = self._up_links_by_neighbor.get(neighbor_id, set())
        if link_id in up_links:
            up_links.discard(link_id)
            # Only the last parallel link's loss changes IS reachability,
            # but the LSP must be regenerated regardless of which: IOS
            # refloods on any adjacency database change.
            self._mark_dirty(time)

    def adjacency_up(self, time: float, link_id: str) -> None:
        """The adjacency over ``link_id`` (re-)reached UP at this end."""
        neighbor_id = self._link_neighbor[link_id]
        up_links = self._up_links_by_neighbor.setdefault(neighbor_id, set())
        if link_id not in up_links:
            up_links.add(link_id)
            self._mark_dirty(time)

    def prefix_down(self, time: float, link_id: str) -> None:
        """The connected /31 of ``link_id`` left the routing table."""
        prefix = self._link_prefix[link_id]
        if prefix in self._advertised_prefixes:
            self._advertised_prefixes.discard(prefix)
            self._mark_dirty(time)

    def prefix_up(self, time: float, link_id: str) -> None:
        """The connected /31 of ``link_id`` returned to the routing table."""
        prefix = self._link_prefix[link_id]
        if prefix not in self._advertised_prefixes:
            self._advertised_prefixes.add(prefix)
            self._mark_dirty(time)

    # ------------------------------------------------------------ flooding
    def _mark_dirty(self, time: float) -> None:
        if self._flood_pending:
            return  # the already-scheduled flood will pick this change up
        flood_time = max(
            time + self.initial_flood_delay,
            self._last_flood_time + self.lsp_generation_interval,
        )
        self._flood_pending = True
        self._engine.schedule(flood_time, self._flood_now)

    def _flood_now(self) -> None:
        self._flood_pending = False
        self.flood(self._engine.now)

    def flood(self, time: float) -> LinkStatePacket:
        """Build and flood the current LSP unconditionally (fresh seqno)."""
        self._sequence_number += 1
        self._last_flood_time = time
        lsp = self.build_lsp()
        self.flood_count += 1
        self._flood_callback(time, self, lsp)
        return lsp

    def build_lsp(self) -> LinkStatePacket:
        """The LSP describing this router's current advertisement state."""
        neighbors: List[IsNeighbor] = []
        for neighbor_id in sorted(self._up_links_by_neighbor):
            up_links = self._up_links_by_neighbor[neighbor_id]
            if not up_links:
                continue
            metric = min(self._link_metric[link_id] for link_id in up_links)
            neighbors.append(IsNeighbor(system_id=neighbor_id, metric=metric))
        prefixes = [
            IpPrefix(prefix=prefix, prefix_length=length, metric=10)
            for prefix, length in sorted(self._advertised_prefixes)
        ]

        tlvs: List[Tlv] = [
            AreaAddressesTlv(areas=(bytes.fromhex("490001"),)),
            ProtocolsSupportedTlv(nlpids=(0xCC,)),
            DynamicHostnameTlv(hostname=self.name),
        ]
        for chunk in _chunk(neighbors, _IS_ENTRIES_PER_TLV):
            tlvs.append(ExtendedIsReachabilityTlv(neighbors=tuple(chunk)))
        for chunk in _chunk(prefixes, _IP_ENTRIES_PER_TLV):
            tlvs.append(ExtendedIpReachabilityTlv(prefixes=tuple(chunk)))

        return LinkStatePacket(
            lsp_id=LspId(self.system_id),
            sequence_number=self._sequence_number,
            remaining_lifetime=1199,
            tlvs=tuple(tlvs),
        )
