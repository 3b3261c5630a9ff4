"""The listener's compact decoded-LSP record and the decoder that yields it.

The paper's listener reads four things from each LSP it archives (§3.2,
Table 1): the LSP ID, the Dynamic Hostname, Extended IS Reachability and
Extended IP Reachability.  :func:`decode_lsp_record` checks the same
framing, checksum and value rules as :meth:`LinkStatePacket.unpack` but
walks the wire bytes once and keeps only those fields, with no per-TLV
objects.

The contract
------------
For every input, the decoder returns the record :func:`record_from_lsp`
converts from ``LinkStatePacket.unpack(raw)``, or raises what ``unpack``
raises.  It answers only records it can *prove* valid.  Everything else
— a short buffer, a bad header, a checksum failure, a TLV that overruns,
a prefix with host bits, the IP sub-TLV flag, sequence number 0, a
non-ASCII hostname — goes to full ``unpack`` as the **barrier**, so
exceptions and messages stay byte-identical.  This is the shape of the
columnar syslog barrier (``repro.columnar.ingest``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.isis.lsp import LinkStatePacket, iso_checksum_verify
from repro.isis.pdu import ISIS_DISCRIMINATOR, LSP_HEADER_LENGTH, PduType
from repro.isis.tlv import (
    TLV_AREA_ADDRESSES,
    TLV_DYNAMIC_HOSTNAME,
    TLV_EXTENDED_IP_REACHABILITY,
    TLV_EXTENDED_IS_REACHABILITY,
)
from repro.topology.addressing import system_id_from_bytes

_LSP_TYPES = frozenset({int(PduType.L1_LSP), int(PduType.L2_LSP)})


class LspRecord(NamedTuple):
    """What the listener keeps of one LSP."""

    #: The eight-octet wire LSP ID (system ID, pseudonode, fragment).
    key: bytes
    #: Dotted system ID of the originating router.
    origin: str
    pseudonode: int
    fragment: int
    sequence_number: int
    #: Zero remaining lifetime: the origin withdraws this fragment.
    purge: bool
    #: The first Dynamic Hostname TLV, if any.
    hostname: Optional[str]
    #: Extended IS Reachability neighbor system IDs, in wire order.
    is_neighbors: Tuple[str, ...]
    #: Extended IP Reachability ``(prefix, prefix_length)`` pairs, in wire order.
    ip_prefixes: Tuple[Tuple[int, int], ...]


def record_from_lsp(lsp: LinkStatePacket) -> LspRecord:
    """The record of an already decoded (or simulator-built) LSP."""
    lsp_id = lsp.lsp_id
    return LspRecord(
        key=lsp_id.pack(),
        origin=lsp_id.system_id,
        pseudonode=lsp_id.pseudonode,
        fragment=lsp_id.fragment,
        sequence_number=lsp.sequence_number,
        purge=lsp.is_purge(),
        hostname=lsp.hostname,
        is_neighbors=tuple(neighbor.system_id for neighbor in lsp.is_neighbors),
        ip_prefixes=tuple(
            (prefix.prefix, prefix.prefix_length) for prefix in lsp.ip_prefixes
        ),
    )


def _barrier(raw: bytes) -> LspRecord:
    # Looked up at call time, so a wrapped ``unpack`` sees every call.
    return record_from_lsp(LinkStatePacket.unpack(raw))


def decode_lsp_record(raw: bytes) -> LspRecord:
    """Decode wire LSP bytes to a record, verifying the checksum.

    Raises exactly what ``LinkStatePacket.unpack(raw)`` raises.
    """
    size = len(raw)
    if (
        size < LSP_HEADER_LENGTH
        or raw[0] != ISIS_DISCRIMINATOR
        or raw[2] != 1
        or raw[5] != 1
        or raw[6] != 0
        or (raw[4] & 0x1F) not in _LSP_TYPES
        or (raw[8] << 8 | raw[9]) != size
    ):
        return _barrier(raw)
    sequence_number = int.from_bytes(raw[20:24], "big")
    purge = raw[10] == 0 and raw[11] == 0
    if sequence_number == 0 or not (purge or iso_checksum_verify(raw[12:])):
        return _barrier(raw)

    hostname: Optional[str] = None
    neighbors: List[str] = []
    prefixes: List[Tuple[int, int]] = []
    offset = LSP_HEADER_LENGTH
    while offset < size:
        if offset + 2 > size:
            return _barrier(raw)
        tlv_type = raw[offset]
        start = offset + 2
        end = start + raw[offset + 1]
        if end > size:
            return _barrier(raw)
        if tlv_type == TLV_EXTENDED_IS_REACHABILITY:
            while start < end:
                if start + 11 > end:
                    return _barrier(raw)
                entry_end = start + 11 + raw[start + 10]
                if entry_end > end:
                    return _barrier(raw)
                neighbors.append(system_id_from_bytes(raw[start : start + 6]))
                start = entry_end
        elif tlv_type == TLV_EXTENDED_IP_REACHABILITY:
            while start < end:
                if start + 5 > end:
                    return _barrier(raw)
                control = raw[start + 4]
                length = control & 0x3F
                octets = (length + 7) >> 3
                entry_end = start + 5 + octets
                if length > 32 or control & 0x40 or entry_end > end:
                    return _barrier(raw)
                prefix = int.from_bytes(raw[start + 5 : entry_end], "big") << (
                    32 - 8 * octets
                )
                if prefix & ((1 << (32 - length)) - 1):
                    return _barrier(raw)  # host bits set
                prefixes.append((prefix, length))
                start = entry_end
        elif tlv_type == TLV_DYNAMIC_HOSTNAME:
            value = raw[start:end]
            if not value.isascii():
                return _barrier(raw)
            if hostname is None:
                hostname = value.decode("ascii")
        elif tlv_type == TLV_AREA_ADDRESSES:
            while start < end:
                area_end = start + 1 + raw[start]
                if area_end == start + 1 or area_end > end:
                    return _barrier(raw)
                start = area_end
        offset = end

    key = raw[12:20]
    return LspRecord(
        key,
        system_id_from_bytes(key[:6]),
        key[6],
        key[7],
        sequence_number,
        purge,
        hostname,
        tuple(neighbors),
        tuple(prefixes),
    )
