"""Micro-benchmarks for the hot codec paths.

Replaying a 13-month LSP archive means millions of compact-record
decodes (full ``unpack`` is the simulator's codec and the decoder's
barrier); parsing the syslog file means hundreds of thousands of line
parses.  These benches track the unit costs so a performance regression
in the codecs is visible without running a full campaign.
"""

from __future__ import annotations

import pytest

from repro.isis.compact import decode_lsp_record
from repro.isis.listener import IsisListener, ReachabilityChange, ReachabilityKind
from repro.isis.lsp import LinkStatePacket, LspDecodeError, LspId
from repro.isis.tlv import (
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
)
from repro.syslog.cisco import (
    AdjacencyChangeMessage,
    LineProtoUpDownMessage,
    LinkUpDownMessage,
    parse_cisco_body,
)
from repro.syslog.collector import CollectedEntry, SyslogCollector
from repro.syslog.message import SyslogMessage, parse_syslog_line
from repro.topology.addressing import system_id_for_index


def _sample_lsp() -> LinkStatePacket:
    neighbors = tuple(IsNeighbor(system_id_for_index(i + 2), 10) for i in range(8))
    prefixes = tuple(
        IpPrefix(0x89A40000 + 2 * i, 31, 10) for i in range(8)
    )
    return LinkStatePacket(
        lsp_id=LspId("0000.0000.0001"),
        sequence_number=12345,
        tlvs=(
            DynamicHostnameTlv(hostname="lax-core-01"),
            ExtendedIsReachabilityTlv(neighbors=neighbors),
            ExtendedIpReachabilityTlv(prefixes=prefixes),
        ),
    )


def test_lsp_pack(benchmark):
    lsp = _sample_lsp()
    raw = benchmark(lsp.pack)
    assert len(raw) > 100


def test_lsp_unpack(benchmark):
    raw = _sample_lsp().pack()
    lsp = benchmark(LinkStatePacket.unpack, raw)
    assert lsp.hostname == "lax-core-01"


def test_lsp_decode_record(benchmark):
    raw = _sample_lsp().pack()
    record = benchmark(decode_lsp_record, raw)
    assert record.hostname == "lax-core-01"
    assert len(record.is_neighbors) == len(record.ip_prefixes) == 8


def _primed_refresh():
    """A listener that holds ``_sample_lsp()``, and its next refresh."""
    lsp = _sample_lsp()
    listener = IsisListener()
    listener.observe_bytes(0.0, lsp.pack())
    # ``pack`` recomputes the checksum over the bumped sequence number.
    return (listener, lsp.with_sequence(lsp.sequence_number + 1).pack()), {}


def test_lsp_refresh_observe(benchmark):
    def observe(listener, raw):
        return listener, listener.observe_bytes(1.0, raw)

    listener, changes = benchmark.pedantic(
        observe, setup=_primed_refresh, rounds=2000
    )
    assert changes == [] and listener.changes == []
    assert listener.rejected_count == 0


def _primed_revisit():
    """A listener that heard ``_sample_lsp()`` (version A), then version B
    without its last neighbour and prefix; and A again, one sequence on."""
    lsp = _sample_lsp()
    hostname, is_reach, ip_reach = lsp.tlvs
    version_b = LinkStatePacket(
        lsp_id=lsp.lsp_id,
        sequence_number=lsp.sequence_number + 1,
        tlvs=(
            hostname,
            ExtendedIsReachabilityTlv(neighbors=is_reach.neighbors[:-1]),
            ExtendedIpReachabilityTlv(prefixes=ip_reach.prefixes[:-1]),
        ),
    )
    listener = IsisListener()
    listener.observe_bytes(0.0, lsp.pack())
    listener.observe_bytes(1.0, version_b.pack())
    return (listener, lsp.with_sequence(lsp.sequence_number + 2).pack()), {}


def test_lsp_revisit_observe(benchmark):
    """A re-flood of an older version is verified from its header too."""

    def observe(listener, raw):
        return listener.observe_bytes(2.0, raw)

    changes = benchmark.pedantic(observe, setup=_primed_revisit, rounds=2000)
    lsp = _sample_lsp()
    origin = lsp.lsp_id.system_id
    last_prefix = lsp.ip_prefixes[-1]
    assert changes == [
        ReachabilityChange(
            2.0, origin, ReachabilityKind.IS, "up", lsp.is_neighbors[-1].system_id
        ),
        ReachabilityChange(
            2.0,
            origin,
            ReachabilityKind.IP,
            "up",
            (last_prefix.prefix, last_prefix.prefix_length),
        ),
    ]


def test_lsp_refresh_with_flipped_header_bit_raises():
    (listener, raw), _ = _primed_refresh()
    damaged = bytearray(raw)
    damaged[23] ^= 0x01  # the sequence number's low bit
    with pytest.raises(LspDecodeError, match="checksum failure"):
        listener.observe_bytes(1.0, bytes(damaged))


def test_syslog_render(benchmark):
    message = AdjacencyChangeMessage(
        router="cust001-cpe-01",
        interface="GigabitEthernet0/0",
        neighbor_hostname="lax-core-01",
        direction="down",
        reason="hold time expired",
    ).to_syslog(12345.678)
    line = benchmark(message.render)
    assert line.startswith("<189>")


def test_syslog_parse(benchmark):
    line = AdjacencyChangeMessage(
        router="cust001-cpe-01",
        interface="GigabitEthernet0/0",
        neighbor_hostname="lax-core-01",
        direction="down",
        reason="hold time expired",
    ).to_syslog(12345.678).render()

    def parse():
        message = parse_syslog_line(line)
        return parse_cisco_body(message.hostname, message.body)

    entry = benchmark(parse)
    assert entry.direction == "down"


def _sample_log(lines: int = 2000) -> str:
    """A log of ``lines`` lines over 14 months: 40 routers' link and
    adjacency messages plus chatter, so (hostname, body) pairs repeat."""
    rendered = []
    for index in range(lines):
        router = f"cust{index % 40:03d}-cpe-01"
        interface = f"GigabitEthernet0/{index % 3}"
        direction = "down" if index % 2 else "up"
        kind = index % 4
        if kind == 0:
            body = AdjacencyChangeMessage(
                router, interface, "lax-core-01", direction, "hold time expired"
            ).render_body()
        elif kind == 1:
            body = LinkUpDownMessage(router, interface, direction).render_body()
        elif kind == 2:
            body = LineProtoUpDownMessage(router, interface, direction).render_body()
        else:
            body = "%SYS-5-CONFIG_I: Configured from console by vty0"
        time = index * 18_361.7 + (index % 7) * 0.25
        rendered.append(SyslogMessage(time, router, body).render())
    return "".join(line + "\n" for line in rendered)


def test_syslog_parse_log(benchmark):
    text = _sample_log()
    entries = benchmark(SyslogCollector.parse_log, text)
    expected = []
    latest = 0.0
    for line in text.splitlines():
        message = parse_syslog_line(line, after=latest)
        latest = max(latest, message.timestamp)
        expected.append(
            CollectedEntry(
                message.timestamp,
                message.hostname,
                message.body,
                parse_cisco_body(message.hostname, message.body),
            )
        )
    assert len(entries) == 2000
    assert entries == expected
    assert len({(entry.hostname, entry.raw_body) for entry in entries}) < 500
