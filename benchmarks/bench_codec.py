"""Micro-benchmarks for the hot codec paths.

Replaying a 13-month LSP archive means millions of compact-record
decodes (full ``unpack`` is the simulator's codec and the decoder's
barrier); parsing the syslog file means hundreds of thousands of line
parses.  These benches track the unit costs so a performance regression
in the codecs is visible without running a full campaign.
"""

from __future__ import annotations

from repro.isis.compact import decode_lsp_record
from repro.isis.lsp import LinkStatePacket, LspId
from repro.isis.tlv import (
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
)
from repro.syslog.cisco import AdjacencyChangeMessage, parse_cisco_body
from repro.syslog.message import parse_syslog_line
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
