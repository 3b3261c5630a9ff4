"""OSI and IPv4 addressing for the simulated network.

IS-IS identifies routers by OSI system IDs (six octets, conventionally
written ``xxxx.xxxx.xxxx``); syslog identifies them by hostname.  Bridging
the two naming schemes is a central mechanic of the paper, so addresses are
first-class here.

Links are numbered from unique /31 subnets (RFC 3021 point-to-point
numbering), which is what makes the *Extended IP Reachability* TLV able to
identify individual physical links even between routers with multi-link
adjacencies (§3.4).
"""

from __future__ import annotations

import re

_SYSTEM_ID_RE = re.compile(r"^[0-9a-f]{4}\.[0-9a-f]{4}\.[0-9a-f]{4}$")
_NET_RE = re.compile(r"^49\.([0-9a-f]{4})\.([0-9a-f]{4}\.[0-9a-f]{4}\.[0-9a-f]{4})\.00$")

#: CENIC's public allocation; our simulated backbone numbers links out of it.
DEFAULT_BASE_PREFIX = "137.164.0.0"


def system_id_for_index(index: int) -> str:
    """Deterministic six-octet system ID for the ``index``-th router.

    >>> system_id_for_index(1)
    '0000.0000.0001'
    >>> system_id_for_index(0x12345)
    '0000.0001.2345'
    """
    if not 0 <= index < 2**48:
        raise ValueError("system-id index out of range")
    raw = f"{index:012x}"
    return f"{raw[0:4]}.{raw[4:8]}.{raw[8:12]}"


def parse_system_id(text: str) -> int:
    """Inverse of :func:`system_id_for_index`."""
    if not _SYSTEM_ID_RE.match(text):
        raise ValueError(f"malformed system id {text!r}")
    return int(text.replace(".", ""), 16)


def system_id_to_bytes(text: str) -> bytes:
    """Pack a dotted system ID into its six-octet wire form."""
    return parse_system_id(text).to_bytes(6, "big")


def system_id_from_bytes(raw: bytes) -> str:
    """Unpack a six-octet wire system ID into dotted form."""
    if len(raw) != 6:
        raise ValueError("system id must be exactly six octets")
    return raw.hex(".", 2)  # same text as system_id_for_index


def net_for_system_id(system_id: str, area: str = "0001") -> str:
    """Build an ISO NET (network entity title) for a router.

    The conventional private AFI is 49; the NSEL suffix ``.00`` denotes the
    router itself.

    >>> net_for_system_id('0000.0000.0001')
    '49.0001.0000.0000.0001.00'
    """
    if not _SYSTEM_ID_RE.match(system_id):
        raise ValueError(f"malformed system id {system_id!r}")
    if not re.match(r"^[0-9a-f]{4}$", area):
        raise ValueError(f"malformed area {area!r}")
    return f"49.{area}.{system_id}.00"


def system_id_from_net(net: str) -> str:
    """Extract the system ID from a NET string.

    >>> system_id_from_net('49.0001.0000.0000.0001.00')
    '0000.0000.0001'
    """
    match = _NET_RE.match(net)
    if not match:
        raise ValueError(f"malformed NET {net!r}")
    return match.group(2)


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 into an integer.

    >>> parse_ipv4('137.164.0.1')
    2309095425
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Render an integer IPv4 address as dotted quad.

    >>> format_ipv4(2309095425)
    '137.164.0.1'
    """
    if not 0 <= value < 2**32:
        raise ValueError("IPv4 address out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix_mask(prefix_length: int) -> str:
    """Dotted-quad netmask for a prefix length.

    >>> prefix_mask(31)
    '255.255.255.254'
    """
    if not 0 <= prefix_length <= 32:
        raise ValueError("prefix length out of range")
    if prefix_length == 0:
        return "0.0.0.0"
    mask = (0xFFFFFFFF << (32 - prefix_length)) & 0xFFFFFFFF
    return format_ipv4(mask)


class Ipv4SubnetAllocator:
    """Hands out consecutive /31 subnets from a base prefix.

    Every point-to-point link in the simulated network receives its own /31,
    mirroring CENIC practice; the low address goes to the lexicographically
    smaller endpoint so numbering is deterministic.
    """

    def __init__(self, base: str = DEFAULT_BASE_PREFIX, prefix_length: int = 31) -> None:
        if prefix_length != 31:
            raise ValueError("link numbering uses /31 subnets")
        self._next = parse_ipv4(base)
        if self._next % 2:
            raise ValueError("base address must be even for /31 numbering")
        self.prefix_length = prefix_length

    def allocate(self) -> int:
        """Return the network address (an even integer) of a fresh /31."""
        subnet = self._next
        self._next += 2
        return subnet
