"""Differential tests: the compact LSP decoder against the object codec.

For every input, :func:`decode_lsp_record` must return the record
:func:`record_from_lsp` converts from ``LinkStatePacket.unpack``, or both
must raise the same exception type with the same message.  Inputs are
every single-bit flip and every truncation of real seed-7 LSPs, plus
Hypothesis-built wire LSPs covering the shapes the simulator never
emits.
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScenarioConfig, run_scenario
from repro.isis.compact import decode_lsp_record, record_from_lsp
from repro.isis.listener import IsisListener
from repro.isis.lsp import IS_TYPE_LEVEL_2, LinkStatePacket, LspId, iso_checksum
from repro.isis.pdu import PduType
from repro.isis.tlv import (
    TLV_AREA_ADDRESSES,
    TLV_DYNAMIC_HOSTNAME,
    TLV_EXTENDED_IP_REACHABILITY,
    TLV_EXTENDED_IS_REACHABILITY,
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
)


def outcome(decode, raw):
    try:
        return decode(raw)
    except Exception as error:  # noqa: BLE001 - the type is the comparison
        return (type(error), str(error))


def object_record(raw):
    return record_from_lsp(LinkStatePacket.unpack(raw))


def assert_same(raw):
    assert outcome(decode_lsp_record, raw) == outcome(object_record, raw)


@pytest.fixture(scope="module")
def seed7_archive():
    return run_scenario(ScenarioConfig(seed=7, duration_days=3.0)).lsp_records


@pytest.fixture(scope="module")
def seed7_variants(seed7_archive):
    """A real LSP plus the shapes the paper's archive also holds."""
    real = max(
        (LinkStatePacket.unpack(raw) for _, raw in seed7_archive),
        key=lambda lsp: len(lsp.is_neighbors),
    )
    is_tlvs = tuple(t for t in real.tlvs if isinstance(t, ExtendedIsReachabilityTlv))
    ip_tlvs = tuple(t for t in real.tlvs if isinstance(t, ExtendedIpReachabilityTlv))
    origin = real.lsp_id.system_id
    return {
        "real": real,
        "purge": replace(real, remaining_lifetime=0),
        "fragment-0": replace(real, tlvs=tuple(t for t in real.tlvs if t not in ip_tlvs)),
        "fragment-1": replace(real, lsp_id=LspId(origin, fragment=1), tlvs=ip_tlvs),
        "no-hostname": replace(
            real, tlvs=tuple(t for t in real.tlvs if not isinstance(t, DynamicHostnameTlv))
        ),
        "is-only": replace(real, tlvs=is_tlvs),
        "repeated-tlvs": replace(
            real, tlvs=real.tlvs + (DynamicHostnameTlv(hostname="shadow"),) + is_tlvs + ip_tlvs
        ),
    }


@pytest.mark.parametrize(
    "name",
    ["real", "purge", "fragment-0", "fragment-1", "no-hostname", "is-only", "repeated-tlvs"],
)
class TestSeedLspDamage:
    def test_clean(self, seed7_variants, name):
        raw = seed7_variants[name].pack()
        assert decode_lsp_record(raw) == record_from_lsp(seed7_variants[name])

    def test_every_single_bit_flip(self, seed7_variants, name):
        raw = seed7_variants[name].pack()
        for position in range(len(raw)):
            for bit in range(8):
                damaged = bytearray(raw)
                damaged[position] ^= 1 << bit
                assert_same(bytes(damaged))

    def test_every_truncation(self, seed7_variants, name):
        raw = seed7_variants[name].pack()
        for length in range(len(raw)):
            assert_same(raw[:length])

    def test_every_reframed_truncation(self, seed7_variants, name):
        """Cut TLVs behind a valid length field and checksum reach the walk."""
        raw = seed7_variants[name].pack()
        for length in range(27, len(raw)):
            assert_same(
                wire_lsp(
                    raw[27:length],
                    sequence=int.from_bytes(raw[20:24], "big"),
                    lifetime=int.from_bytes(raw[10:12], "big"),
                    lsp_id=raw[12:20],
                )
            )


def test_barrier_never_entered_on_clean_seed7_archive(seed7_archive, monkeypatch):
    unpack = LinkStatePacket.unpack
    calls = []

    def counting_unpack(raw, *args, **kwargs):
        calls.append(raw)
        return unpack(raw, *args, **kwargs)

    monkeypatch.setattr(LinkStatePacket, "unpack", counting_unpack)
    listener = IsisListener()
    for time, raw in seed7_archive:
        listener.observe_bytes(time, raw)
    assert listener.changes
    assert calls == []


def test_barrier_entered_on_damage(monkeypatch, seed7_variants):
    """The counting hook above does see barrier calls."""
    unpack = LinkStatePacket.unpack
    calls = []
    monkeypatch.setattr(
        LinkStatePacket, "unpack", lambda raw: calls.append(raw) or unpack(raw)
    )
    raw = seed7_variants["real"].pack()
    with pytest.raises(ValueError, match="length"):
        decode_lsp_record(raw + b"\x00")
    assert len(calls) == 1


def test_multi_fragment_origin_through_listener(seed7_variants):
    """Fragments aggregate; a purge of any fragment empties the origin's view."""
    listener = IsisListener()
    fragment_0 = seed7_variants["fragment-0"]
    fragment_1 = seed7_variants["fragment-1"]
    listener.observe_bytes(0.0, fragment_0.pack())
    listener.observe_bytes(1.0, fragment_1.pack())
    origin = fragment_0.lsp_id.system_id
    assert listener.current_is_neighbors(origin) == {
        neighbor.system_id for neighbor in fragment_0.is_neighbors
    }
    assert len(listener.current_ip_prefixes(origin)) == len(
        {(p.prefix, p.prefix_length) for p in fragment_1.ip_prefixes}
    )
    changes = listener.observe_bytes(2.0, replace(fragment_1, remaining_lifetime=0).pack())
    assert {change.direction for change in changes} == {"down"}
    assert listener.current_is_neighbors(origin) == frozenset()
    assert listener.current_ip_prefixes(origin) == frozenset()


# ----------------------------------------------------------- built LSPs
def wire_lsp(
    tlvs,
    *,
    sequence=1,
    lifetime=1199,
    lsp_id=b"\x00" * 5 + b"\x01\x00\x00",
    pdu_type=int(PduType.L2_LSP),
    corrupt_checksum=False,
):
    """Wire bytes with any field value the object codec refuses to build."""
    checked = bytearray(lsp_id + struct.pack(">IH", sequence, 0))
    checked.append(IS_TYPE_LEVEL_2)
    checked.extend(tlvs)
    struct.pack_into(">H", checked, 12, iso_checksum(bytes(checked), 12))
    if corrupt_checksum:
        checked[13] ^= 0x5A
    header = bytes([0x83, 27, 1, 0, pdu_type, 1, 0, 0])
    return header + struct.pack(">HH", 12 + len(checked), lifetime) + bytes(checked)


def tlv(tlv_type, value):
    return bytes([tlv_type, len(value)]) + value


def test_wire_builder_agrees_with_pack():
    lsp = LinkStatePacket(
        lsp_id=LspId("0000.0000.0001"),
        sequence_number=7,
        tlvs=(DynamicHostnameTlv(hostname="r1"),),
    )
    tlv_bytes = tlv(TLV_DYNAMIC_HOSTNAME, b"r1")
    assert wire_lsp(tlv_bytes, sequence=7, lsp_id=lsp.lsp_id.pack()) == lsp.pack()


is_entry = st.builds(
    lambda sysid, pseudonode, metric, sub: sysid + bytes([pseudonode]) + metric
    + bytes([len(sub)]) + sub,
    st.binary(min_size=6, max_size=6),
    st.integers(0, 255),
    st.binary(min_size=3, max_size=3),
    st.one_of(st.just(b""), st.binary(max_size=6)),
)


@st.composite
def ip_entry(draw):
    control = draw(st.one_of(st.integers(0, 32), st.integers(0, 255)))
    control |= draw(st.sampled_from([0, 0, 0x80, 0x40]))
    octets = ((control & 0x3F) + 7) // 8
    prefix = draw(
        st.one_of(
            st.binary(min_size=octets, max_size=octets),
            st.just(b"\x89\xa4\x00\x00"[:octets]),
        )
    )
    return draw(st.binary(min_size=4, max_size=4)) + bytes([control]) + prefix


hostname_value = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=12).map(str.encode),
    st.text(min_size=1, max_size=6).map(lambda s: s.encode("utf-8")),
    st.binary(max_size=12),
)

def entries(entry, max_size):
    """Whole entries followed, now and then, by a cut-off one."""
    return st.builds(
        lambda items, cut: b"".join(items) + cut,
        st.lists(entry, max_size=max_size),
        st.one_of(st.just(b""), st.binary(max_size=10)),
    )


any_tlv = st.one_of(
    entries(is_entry, 5).map(lambda value: tlv(TLV_EXTENDED_IS_REACHABILITY, value)),
    entries(ip_entry(), 6).map(lambda value: tlv(TLV_EXTENDED_IP_REACHABILITY, value)),
    hostname_value.map(lambda v: tlv(TLV_DYNAMIC_HOSTNAME, v)),
    st.binary(max_size=12).map(lambda v: tlv(TLV_AREA_ADDRESSES, v)),
    st.lists(st.binary(max_size=4), max_size=3).map(
        lambda areas: tlv(TLV_AREA_ADDRESSES, b"".join(bytes([len(a)]) + a for a in areas))
    ),
    st.builds(tlv, st.integers(0, 255), st.binary(max_size=16)),
)


@settings(max_examples=400, deadline=None)
@given(
    tlvs=st.lists(any_tlv, max_size=8),
    tail=st.one_of(st.just(b""), st.binary(max_size=2)),
    sequence=st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    lifetime=st.one_of(st.sampled_from([0, 1199]), st.integers(0, 2**16 - 1)),
    lsp_id=st.binary(min_size=8, max_size=8),
    pdu_type=st.sampled_from([20, 18, 17, 20 | 0x20, 31]),
    corrupt_checksum=st.booleans(),
)
def test_built_lsps_match_object_codec(
    tlvs, tail, sequence, lifetime, lsp_id, pdu_type, corrupt_checksum
):
    raw = wire_lsp(
        b"".join(tlvs) + tail,
        sequence=sequence,
        lifetime=lifetime,
        lsp_id=lsp_id,
        pdu_type=pdu_type,
        corrupt_checksum=corrupt_checksum,
    )
    assert_same(raw)


@pytest.mark.parametrize(
    "tlv_type,entry",
    [
        (TLV_EXTENDED_IS_REACHABILITY, bytes(5) + b"\x02\x00\x00\x00\x0a\x00"),
        (TLV_EXTENDED_IP_REACHABILITY, b"\x00\x00\x00\x0a\x1f\x89\xa4\x00\x00"),
    ],
)
def test_cut_entry_at_end_of_pdu(tlv_type, entry):
    for cut in range(len(entry) + 1):
        assert_same(wire_lsp(tlv(tlv_type, entry + entry[:cut])))
