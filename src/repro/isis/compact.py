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

Refreshes
---------
Most LSPs repeat, byte for byte, the TLV octets ``raw[27:]`` of an
earlier LSP with the same LSP ID: a periodic refresh repeats the
previous one, and a link failure's re-floods and its recovery return to
older ones.  The listener keeps up to
:data:`~repro.isis.listener.LSP_VERSION_CAP` such versions per LSP ID,
newest last, evicting the oldest.  The walk's result — hostname,
neighbours, prefixes and the barrier conditions — is a function of the
TLV octets and their length alone, and the key is ``raw[12:20]``, so
:func:`refresh_lsp` rebuilds the record of an LSP that matches a stored
:data:`DecodedLsp` after checking only the header.  The checksum is
verified exactly without re-reading the TLVs: Fletcher sums are linear,
so with ``(h0, h1)`` over the 15 header octets ``raw[12:27]`` and the
stored ``(b0, b1)`` over the ``m`` TLV octets, the whole block's sums
are ``h0 + b0`` and ``m·h0 + h1 + b1``.  An LSP that fails either
check, or whose version is not stored (never seen, or evicted), gets
the full decode, and so the barrier's exception.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, NamedTuple, Optional, Tuple

from repro.isis.lsp import LinkStatePacket
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


#: ``(record, tlvs, b0, b1)``: a decoded record, the TLV octets
#: ``raw[27:]`` the compact walk read it from, and their unreduced
#: Fletcher sums.  ``tlvs`` is ``None`` when the record did not come from
#: the walk (the barrier, a built LSP).  A plain tuple, because one is
#: built per LSP and a ``NamedTuple`` costs several times as much.
DecodedLsp = Tuple[LspRecord, Optional[bytes], int, int]


def _barrier(raw: bytes) -> DecodedLsp:
    # Looked up at call time, so a wrapped ``unpack`` sees every call.
    return record_from_lsp(LinkStatePacket.unpack(raw)), None, 0, 0


def _header_sequence(raw: bytes) -> int:
    """The sequence number of a header the compact decoder accepts, else 0.

    Zero is itself a sequence number the decoder refuses, so it doubles
    as the verdict.
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
        return 0
    return int.from_bytes(raw[20:24], "big")


def _checksum_ok(raw: bytes, b0: int, b1: int) -> bool:
    """``iso_checksum_verify(raw[12:])`` given the TLV octets' sums ``b0, b1``."""
    header = raw[12:LSP_HEADER_LENGTH]
    h0 = sum(header)
    return (h0 + b0) % 255 == 0 and (
        (len(raw) - LSP_HEADER_LENGTH) * h0 + sum(accumulate(header)) + b1
    ) % 255 == 0


def decode_lsp_record(raw: bytes) -> LspRecord:
    """Decode wire LSP bytes to a record, verifying the checksum.

    Raises exactly what ``LinkStatePacket.unpack(raw)`` raises.
    """
    return decode_lsp(raw)[0]


def decode_lsp(raw: bytes) -> DecodedLsp:
    """:func:`decode_lsp_record`, keeping the TLV octets and their sums.

    The sums are taken once, over ``raw[27:]``, and serve both this
    checksum and a later :func:`refresh_lsp`.
    """
    sequence_number = _header_sequence(raw)
    if sequence_number == 0:
        return _barrier(raw)
    tlvs = raw[LSP_HEADER_LENGTH:]
    b0 = sum(tlvs)
    b1 = sum(accumulate(tlvs))
    purge = raw[10] == 0 and raw[11] == 0
    if not (purge or _checksum_ok(raw, b0, b1)):
        return _barrier(raw)

    size = len(raw)
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
    record = LspRecord(
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
    return record, tlvs, b0, b1


def refresh_lsp(raw: bytes, stored: DecodedLsp) -> Optional[DecodedLsp]:
    """``decode_lsp(raw)`` for a refresh of ``stored``, or ``None``.

    The caller has matched ``raw[12:20]`` to the stored record's key and
    ``raw[27:]`` to its stored TLV octets, which may be any stored
    version of that LSP ID, not only the newest.  ``None`` means the
    header or the checksum failed; the caller then decodes in full,
    reaching the barrier.
    """
    sequence_number = _header_sequence(raw)
    if sequence_number == 0:
        return None
    record, tlvs, b0, b1 = stored
    purge = raw[10] == 0 and raw[11] == 0
    if not (purge or _checksum_ok(raw, b0, b1)):
        return None
    # ``record._replace(sequence_number=..., purge=...)``, built directly:
    # ``_replace`` costs twice as much, and this runs once per refresh.
    refreshed = LspRecord(
        record.key,
        record.origin,
        record.pseudonode,
        record.fragment,
        sequence_number,
        purge,
        record.hostname,
        record.is_neighbors,
        record.ip_prefixes,
    )
    return refreshed, tlvs, b0, b1
