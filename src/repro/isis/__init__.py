"""IS-IS protocol substrate: LSP/TLV codec, LSDB, adjacencies, listener.

This package is the reproduction's stand-in for the paper's measurement
apparatus — a lightly modified PyRT [Mortier] participating passively in the
IS-IS domain (§3.2).  It provides:

* a binary **TLV codec** for the fields the paper consumes (Table 1):
  LSP ID, Dynamic Hostname (TLV 137), Extended IS Reachability (TLV 22) and
  Extended IP Reachability (TLV 135), plus Area Addresses and Protocols
  Supported for realistic LSPs;
* **LSP** pack/unpack with the ISO 10589 common header, sequence numbers,
  remaining lifetime, and Fletcher checksum;
* a **link-state database** with the newer-LSP acceptance rules;
* the **adjacency three-way-handshake FSM** (RFC 5303), whose aborted
  handshakes are one source of syslog's sub-second false positives (§4.3);
* a simple **flooding** model delivering LSPs to a listener;
* the passive **listener** that diffs consecutive LSPs from each origin on
  IS and IP reachability and emits link state transitions — the paper's
  ground-truth channel — reading each archived LSP through one compact
  decoder (:mod:`repro.isis.compact`) with full unpack as its barrier;
* an **MRT-style dump** reader/writer so LSP streams can be archived and
  replayed like PyRT capture files.
"""

from repro.isis.tlv import (
    AreaAddressesTlv,
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
    ProtocolsSupportedTlv,
    RawTlv,
    Tlv,
    decode_tlvs,
    encode_tlvs,
)
from repro.isis.lsp import LinkStatePacket, LspId
from repro.isis.pdu import PduHeader, PduType
from repro.isis.database import LinkStateDatabase
from repro.isis.adjacency import (
    AdjacencyEvent,
    AdjacencyState,
    AdjacencyStateMachine,
    HandshakeOutcome,
)
from repro.isis.flooding import FloodingModel
from repro.isis.hello import PointToPointHello, ThreeWayAdjacencyTlv
from repro.isis.snp import (
    CompleteSnp,
    LspSummary,
    PartialSnp,
    missing_or_stale,
    summarize_database,
)
from repro.isis.listener import IsisListener, ReachabilityChange, ReachabilityKind
from repro.isis.mrt import MrtDumpReader, MrtDumpWriter

__all__ = [
    "AreaAddressesTlv",
    "DynamicHostnameTlv",
    "ExtendedIpReachabilityTlv",
    "ExtendedIsReachabilityTlv",
    "IpPrefix",
    "IsNeighbor",
    "ProtocolsSupportedTlv",
    "RawTlv",
    "Tlv",
    "decode_tlvs",
    "encode_tlvs",
    "LinkStatePacket",
    "LspId",
    "PduHeader",
    "PduType",
    "LinkStateDatabase",
    "AdjacencyEvent",
    "AdjacencyState",
    "AdjacencyStateMachine",
    "HandshakeOutcome",
    "FloodingModel",
    "PointToPointHello",
    "ThreeWayAdjacencyTlv",
    "CompleteSnp",
    "LspSummary",
    "PartialSnp",
    "missing_or_stale",
    "summarize_database",
    "IsisListener",
    "ReachabilityChange",
    "ReachabilityKind",
    "MrtDumpReader",
    "MrtDumpWriter",
]
