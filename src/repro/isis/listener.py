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

from repro.isis.compact import (
    DecodedLsp,
    LspRecord,
    decode_lsp,
    record_from_lsp,
    refresh_lsp,
)
from repro.isis.database import supersedes
from repro.isis.lsp import LinkStatePacket
from repro.isis.pdu import LSP_HEADER_LENGTH

#: Most TLV versions the listener keeps per LSP ID.  A link failure and
#: its recovery re-flood earlier advertisements, so a revisited version is
#: usually a few versions back: on the seed-7 campaign a cap of 2/4/8/16
#: catches 1,892/2,281/2,324/2,333 of the 2,333 revisits.  Memory stays
#: bounded by the cap times the LSP IDs heard.
LSP_VERSION_CAP = 8


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
    #: The sets are the union of the origin's stored fragments (false
    #: after a purge, until the next full recompute).
    is_union: bool


class IsisListener:
    """Consumes timestamped LSPs, produces reachability change events.

    Every LSP, wire bytes or decoded, becomes one :class:`LspRecord` and
    goes through :meth:`_observe`.  The listener stores the newest record
    per LSP ID, indexed by origin: it needs only the acceptance rule and
    the origin's stored fragments.

    Beside them it keeps, per LSP ID, up to :data:`LSP_VERSION_CAP`
    recently accepted *versions*: distinct TLV octets the compact walk
    read, each with its decoded record and Fletcher sums, newest last.
    A wire LSP whose TLV octets repeat any stored version of its LSP ID —
    a plain refresh, or a link failure's re-flood that restores an
    earlier advertisement — is checked from its 15 header octets
    (:func:`~repro.isis.compact.refresh_lsp`) instead of walked.  An
    accepted version moves to the end, and the oldest one is evicted
    once the cap is passed; a revisit of an evicted version is simply
    decoded again.  An accepted fragment whose reachability is unchanged
    skips the aggregation and the diff.
    """

    def __init__(self) -> None:
        #: origin -> eight-octet LSP ID -> newest accepted record.
        self._fragments: Dict[str, Dict[bytes, LspRecord]] = {}
        #: eight-octet LSP ID -> TLV octets -> their decode, newest last.
        self._versions: Dict[bytes, Dict[bytes, DecodedLsp]] = {}
        self._origin_state: Dict[str, _OriginState] = {}
        self.hostnames: Dict[str, str] = {}
        self.changes: List[ReachabilityChange] = []
        #: LSPs rejected by the acceptance rule (duplicates / stale floods).
        self.rejected_count = 0

    def observe_bytes(self, time: float, raw: bytes) -> List[ReachabilityChange]:
        """Decode a wire LSP and process it (checksum verified)."""
        versions = self._versions.get(raw[12:20])
        if versions is not None:
            stored = versions.get(raw[LSP_HEADER_LENGTH:])
            if stored is not None:
                refreshed = refresh_lsp(raw, stored)
                if refreshed is not None:
                    return self._observe(time, refreshed)
        return self._observe(time, decode_lsp(raw))

    def observe(self, time: float, lsp: LinkStatePacket) -> List[ReachabilityChange]:
        """Process one already decoded LSP (see :meth:`observe_bytes`)."""
        return self._observe(time, (record_from_lsp(lsp), None, 0, 0))

    def _observe(self, time: float, decoded: DecodedLsp) -> List[ReachabilityChange]:
        """Process one LSP; returns (and records) the changes it implies."""
        record = decoded[0]
        key = record.key
        origin = record.origin
        fragments = self._fragments.setdefault(origin, {})
        stored = fragments.get(key)
        if stored is not None and not supersedes(
            record.sequence_number,
            record.purge,
            stored.sequence_number,
            stored.purge,
        ):
            self.rejected_count += 1
            return []
        fragments[key] = record
        tlvs = decoded[1]
        if tlvs is not None:
            versions = self._versions.get(key)
            if versions is None:
                self._versions[key] = {tlvs: decoded}
            else:
                versions.pop(tlvs, None)
                versions[tlvs] = decoded
                if len(versions) > LSP_VERSION_CAP:
                    del versions[next(iter(versions))]

        if record.hostname is not None:
            self.hostnames[origin] = record.hostname

        previous = self._origin_state.get(origin)
        if (
            stored is not None
            and previous is not None
            and previous.is_union
            and not (record.purge or stored.purge)
            and record.is_neighbors == stored.is_neighbors
            and record.ip_prefixes == stored.ip_prefixes
        ):
            # The fragment's reachability is unchanged, so is the union of
            # the origin's fragments, and the diff is empty.
            return []

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

        self._origin_state[origin] = _OriginState(new_is, new_ip, not record.purge)
        emitted: List[ReachabilityChange] = []
        if previous is None:
            # First LSP from this origin: record state, emit nothing —
            # the paper's listener likewise seeds its view silently (§3.2).
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
