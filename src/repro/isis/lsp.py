"""Link state packets: structure, wire codec, and the ISO Fletcher checksum.

An LSP is a router's flooded advertisement of its current adjacencies and
reachable prefixes.  The listener in this reproduction — like the paper's
PyRT deployment — archives the raw bytes of every LSP it hears and later
decodes the fields in Table 1: LSP ID, hostname, Extended IS Reachability,
Extended IP Reachability.

Wire layout (ISO 10589 §9.8, after the eight-octet common header):

====================  ======
PDU length            2
Remaining lifetime    2
LSP ID                8  (system ID + pseudonode + fragment)
Sequence number       4
Checksum              2  (ISO 8473 Fletcher, LSP ID through end)
P/ATT/OL/IS-type      1
TLVs                  ...
====================  ======
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import List, Optional, Tuple

from repro.isis.pdu import LSP_HEADER_LENGTH, PduDecodeError, PduHeader, PduType
from repro.isis.tlv import (
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
    Tlv,
    decode_tlvs,
    encode_tlvs,
)
from repro.topology.addressing import system_id_from_bytes, system_id_to_bytes

#: IS type bits: level-2 intermediate system.
IS_TYPE_LEVEL_2 = 0x03

#: Offset of the checksum field, measured from the start of the LSP ID
#: (the checksum covers LSP ID through the end of the PDU).
_CHECKSUM_OFFSET_FROM_LSP_ID = 12


class LspDecodeError(PduDecodeError):
    """Raised when LSP bytes are malformed or fail the checksum."""


def _fletcher_sums(data: bytes) -> Tuple[int, int]:
    """The ISO 8473 Fletcher running sums ``(c0, c1)`` over ``data``.

    ``c0`` is the octet sum and ``c1`` the sum of its running values, both
    mod 255.  Reducing once at the end equals the per-octet reduction of
    ISO 8473 Annex C, and both sums run at C speed.
    """
    return sum(data) % 255, sum(accumulate(data)) % 255


def iso_checksum(data: bytes, checksum_offset: int) -> int:
    """Compute the ISO 8473 Fletcher checksum for ``data``.

    ``data`` must contain zeros at the two checksum positions; the returned
    16-bit value, when stored there, makes the whole block verify.
    """
    c0, c1 = _fletcher_sums(data)
    x = ((len(data) - checksum_offset - 1) * c0 - c1) % 255
    if x <= 0:
        x += 255
    y = 510 - c0 - x
    if y > 255:
        y -= 255
    return (x << 8) | y


def iso_checksum_verify(data: bytes) -> bool:
    """True when a block containing its checksum verifies (c0 == c1 == 0)."""
    return _fletcher_sums(data) == (0, 0)


@dataclass(frozen=True, order=True)
class LspId:
    """The eight-octet LSP identifier: system ID, pseudonode, fragment."""

    system_id: str
    pseudonode: int = 0
    fragment: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.pseudonode <= 255:
            raise ValueError("pseudonode octet out of range")
        if not 0 <= self.fragment <= 255:
            raise ValueError("fragment octet out of range")

    def pack(self) -> bytes:
        return system_id_to_bytes(self.system_id) + bytes(
            [self.pseudonode, self.fragment]
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "LspId":
        if len(raw) != 8:
            raise LspDecodeError("LSP ID must be eight octets")
        return cls(
            system_id=system_id_from_bytes(raw[:6]),
            pseudonode=raw[6],
            fragment=raw[7],
        )

    def __str__(self) -> str:
        return f"{self.system_id}.{self.pseudonode:02x}-{self.fragment:02x}"


@dataclass(frozen=True)
class LinkStatePacket:
    """A decoded (or to-be-encoded) level-2 LSP."""

    lsp_id: LspId
    sequence_number: int
    remaining_lifetime: int = 1199
    tlvs: Tuple[Tlv, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0 < self.sequence_number < 2**32:
            raise ValueError("sequence number must be a positive 32-bit value")
        if not 0 <= self.remaining_lifetime < 2**16:
            raise ValueError("remaining lifetime out of range")

    # ------------------------------------------------------------ accessors
    @property
    def hostname(self) -> Optional[str]:
        """The Dynamic Hostname advertisement, if present."""
        for tlv in self.tlvs:
            if isinstance(tlv, DynamicHostnameTlv):
                return tlv.hostname
        return None

    @property
    def is_neighbors(self) -> Tuple[IsNeighbor, ...]:
        """All Extended IS Reachability entries across TLV instances."""
        entries: List[IsNeighbor] = []
        for tlv in self.tlvs:
            if isinstance(tlv, ExtendedIsReachabilityTlv):
                entries.extend(tlv.neighbors)
        return tuple(entries)

    @property
    def ip_prefixes(self) -> Tuple[IpPrefix, ...]:
        """All Extended IP Reachability entries across TLV instances."""
        entries: List[IpPrefix] = []
        for tlv in self.tlvs:
            if isinstance(tlv, ExtendedIpReachabilityTlv):
                entries.extend(tlv.prefixes)
        return tuple(entries)

    def is_purge(self) -> bool:
        """A zero-lifetime LSP purges the origin's advertisement."""
        return self.remaining_lifetime == 0

    def with_sequence(self, sequence_number: int) -> "LinkStatePacket":
        return replace(self, sequence_number=sequence_number)

    # ---------------------------------------------------------------- codec
    def pack(self) -> bytes:
        """Encode to wire bytes with a freshly computed checksum."""
        tlv_bytes = encode_tlvs(self.tlvs)
        pdu_length = LSP_HEADER_LENGTH + len(tlv_bytes)
        header = PduHeader(pdu_type=PduType.L2_LSP).pack()
        body = struct.pack(">HH", pdu_length, self.remaining_lifetime)
        checked_region = bytearray()
        checked_region.extend(self.lsp_id.pack())
        checked_region.extend(struct.pack(">IH", self.sequence_number, 0))
        checked_region.append(IS_TYPE_LEVEL_2)
        checked_region.extend(tlv_bytes)
        checksum = iso_checksum(bytes(checked_region), _CHECKSUM_OFFSET_FROM_LSP_ID)
        struct.pack_into(">H", checked_region, 12, checksum)
        return header + body + bytes(checked_region)

    @classmethod
    def unpack(cls, raw: bytes, verify_checksum: bool = True) -> "LinkStatePacket":
        """Decode wire bytes; validates framing and (optionally) the checksum."""
        header = PduHeader.unpack(raw)
        if header.pdu_type not in (PduType.L1_LSP, PduType.L2_LSP):
            raise LspDecodeError(f"not an LSP (PDU type {header.pdu_type})")
        if len(raw) < LSP_HEADER_LENGTH:
            raise LspDecodeError("truncated LSP header")
        pdu_length, remaining_lifetime = struct.unpack_from(">HH", raw, 8)
        if pdu_length != len(raw):
            raise LspDecodeError(
                f"PDU length field {pdu_length} disagrees with buffer {len(raw)}"
            )
        lsp_id = LspId.unpack(raw[12:20])
        sequence_number, checksum = struct.unpack_from(">IH", raw, 20)
        # A purge (zero lifetime) legitimately carries a stale checksum.
        if verify_checksum and remaining_lifetime != 0:
            if not iso_checksum_verify(raw[12:]):
                raise LspDecodeError(f"checksum failure on {lsp_id}")
        tlvs = decode_tlvs(raw[LSP_HEADER_LENGTH:])
        return cls(
            lsp_id=lsp_id,
            sequence_number=sequence_number,
            remaining_lifetime=remaining_lifetime,
            tlvs=tuple(tlvs),
        )
