"""The passive IS-IS listener — this reproduction's PyRT.

The listener participates in the IS-IS domain only to hear floods.  For
every LSP it: (1) checks the LSDB acceptance rule so duplicate floods are
ignored; (2) on first contact with an origin, records its hostname from the
Dynamic Hostname TLV and its initial IS/IP reachability; (3) on subsequent
LSPs, diffs the advertised Extended IS Reachability and Extended IP
Reachability against the previous advertisement and emits a
:class:`ReachabilityChange` for every entry gained or lost — exactly the
procedure of §3.2.

Resolution of changes onto *links* (using the mined config inventory) is
deliberately not done here; that is analysis-side work performed by
:mod:`repro.core.extract_isis`, mirroring the paper's separation between
data collection and failure reconstruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple, Union

from repro.isis.compact import LspRecord, decode_lsp_record, record_from_lsp
from repro.isis.database import supersedes
from repro.isis.lsp import LinkStatePacket


class ReachabilityKind(enum.Enum):
    """Which LSP field the change was observed in (§3.4's IS-vs-IP choice)."""

    IS = "is"
    IP = "ip"


@dataclass(frozen=True)
class ReachabilityChange:
    """One reachability entry appearing or disappearing from an origin's LSP.

    ``target`` is the neighbor system ID for IS changes, or the
    ``(prefix, prefix_length)`` pair for IP changes.  ``direction`` uses the
    paper's vocabulary: ``"down"`` for a withdrawal, ``"up"`` for a
    (re-)advertisement.
    """

    time: float
    origin_system_id: str
    kind: ReachabilityKind
    direction: str
    target: Union[str, Tuple[int, int]]

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass
class _OriginState:
    is_neighbors: FrozenSet[str]
    ip_prefixes: FrozenSet[Tuple[int, int]]


class IsisListener:
    """Consumes timestamped LSPs, produces reachability change events.

    Every LSP, wire bytes or decoded, becomes one :class:`LspRecord` and
    goes through :meth:`_observe`.  The listener stores the newest record
    per LSP ID, indexed by origin: it needs only the acceptance rule and
    the origin's stored fragments.
    """

    def __init__(self) -> None:
        #: origin -> eight-octet LSP ID -> newest accepted record.
        self._fragments: Dict[str, Dict[bytes, LspRecord]] = {}
        self._origin_state: Dict[str, _OriginState] = {}
        self.hostnames: Dict[str, str] = {}
        self.changes: List[ReachabilityChange] = []
        #: LSPs rejected by the acceptance rule (duplicates / stale floods).
        self.rejected_count = 0

    def observe_bytes(self, time: float, raw: bytes) -> List[ReachabilityChange]:
        """Decode a wire LSP and process it (checksum verified)."""
        return self._observe(time, decode_lsp_record(raw))

    def observe(self, time: float, lsp: LinkStatePacket) -> List[ReachabilityChange]:
        """Process one already decoded LSP (see :meth:`observe_bytes`)."""
        return self._observe(time, record_from_lsp(lsp))

    def _observe(self, time: float, record: LspRecord) -> List[ReachabilityChange]:
        """Process one LSP; returns (and records) the changes it implies."""
        origin = record.origin
        fragments = self._fragments.setdefault(origin, {})
        stored = fragments.get(record.key)
        if stored is not None and not supersedes(
            record.sequence_number,
            record.purge,
            stored.sequence_number,
            stored.purge,
        ):
            self.rejected_count += 1
            return []
        fragments[record.key] = record

        if record.hostname is not None:
            self.hostnames[origin] = record.hostname

        if record.purge:
            new_is: FrozenSet[str] = frozenset()
            new_ip: FrozenSet[Tuple[int, int]] = frozenset()
        else:
            # Aggregate over all stored fragments of this origin so a
            # multi-fragment router is diffed on its full advertisement.
            new_is = frozenset().union(
                *(fragment.is_neighbors for fragment in fragments.values())
            )
            new_ip = frozenset().union(
                *(fragment.ip_prefixes for fragment in fragments.values())
            )

        previous = self._origin_state.get(origin)
        emitted: List[ReachabilityChange] = []
        if previous is None:
            # First LSP from this origin: record state, emit nothing —
            # the paper's listener likewise seeds its view silently (§3.2).
            self._origin_state[origin] = _OriginState(new_is, new_ip)
            return emitted

        for neighbor_id in sorted(previous.is_neighbors - new_is):
            emitted.append(
                ReachabilityChange(time, origin, ReachabilityKind.IS, "down", neighbor_id)
            )
        for neighbor_id in sorted(new_is - previous.is_neighbors):
            emitted.append(
                ReachabilityChange(time, origin, ReachabilityKind.IS, "up", neighbor_id)
            )
        for prefix in sorted(previous.ip_prefixes - new_ip):
            emitted.append(
                ReachabilityChange(time, origin, ReachabilityKind.IP, "down", prefix)
            )
        for prefix in sorted(new_ip - previous.ip_prefixes):
            emitted.append(
                ReachabilityChange(time, origin, ReachabilityKind.IP, "up", prefix)
            )

        self._origin_state[origin] = _OriginState(new_is, new_ip)
        self.changes.extend(emitted)
        return emitted

    def current_is_neighbors(self, origin: str) -> FrozenSet[str]:
        """The origin's currently advertised IS neighbors (empty if unseen)."""
        state = self._origin_state.get(origin)
        return state.is_neighbors if state else frozenset()

    def current_ip_prefixes(self, origin: str) -> FrozenSet[Tuple[int, int]]:
        """The origin's currently advertised prefixes (empty if unseen)."""
        state = self._origin_state.get(origin)
        return state.ip_prefixes if state else frozenset()
