"""Unit and property tests for LSP encoding and the ISO Fletcher checksum."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isis.compact import _checksum_ok
from repro.isis.lsp import (
    LinkStatePacket,
    LspDecodeError,
    LspId,
    iso_checksum,
    iso_checksum_verify,
)
from repro.isis.pdu import PduDecodeError, PduHeader, PduType
from repro.isis.tlv import (
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
)


def sample_lsp(seq=1, lifetime=1199):
    return LinkStatePacket(
        lsp_id=LspId("0000.0000.0001"),
        sequence_number=seq,
        remaining_lifetime=lifetime,
        tlvs=(
            DynamicHostnameTlv(hostname="lax-core-01"),
            ExtendedIsReachabilityTlv(
                neighbors=(IsNeighbor("0000.0000.0002", 10),)
            ),
            ExtendedIpReachabilityTlv(
                prefixes=(IpPrefix(0x89A40000, 31, 10),)
            ),
        ),
    )


class TestPduHeader:
    def test_round_trip(self):
        header = PduHeader(pdu_type=PduType.L2_LSP)
        assert PduHeader.unpack(header.pack()) == header

    def test_wrong_discriminator_rejected(self):
        raw = bytearray(PduHeader(pdu_type=PduType.L2_LSP).pack())
        raw[0] = 0x45  # IPv4, not IS-IS
        with pytest.raises(PduDecodeError):
            PduHeader.unpack(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(PduDecodeError):
            PduHeader.unpack(b"\x83\x1b")

    def test_unknown_pdu_type_rejected(self):
        raw = bytearray(PduHeader(pdu_type=PduType.L2_LSP).pack())
        raw[4] = 31
        with pytest.raises(PduDecodeError):
            PduHeader.unpack(bytes(raw))


class TestLspId:
    def test_round_trip(self):
        lsp_id = LspId("0000.0000.00ff", pseudonode=2, fragment=1)
        assert LspId.unpack(lsp_id.pack()) == lsp_id

    def test_str(self):
        assert str(LspId("0000.0000.0001")) == "0000.0000.0001.00-00"

    def test_octet_ranges_checked(self):
        with pytest.raises(ValueError):
            LspId("0000.0000.0001", pseudonode=256)

    def test_ordering(self):
        assert LspId("0000.0000.0001") < LspId("0000.0000.0002")


def per_octet_sums(data):
    """ISO 8473 Annex C as written: reduce mod 255 after every octet."""
    c0 = c1 = 0
    for octet in data:
        c0 = (c0 + octet) % 255
        c1 = (c1 + c0) % 255
    return c0, c1


def per_octet_checksum(data, checksum_offset):
    c0, c1 = per_octet_sums(data)
    x = ((len(data) - checksum_offset - 1) * c0 - c1) % 255
    if x <= 0:
        x += 255
    y = 510 - c0 - x
    if y > 255:
        y -= 255
    return (x << 8) | y


class TestChecksum:
    @given(st.binary(min_size=2, max_size=1500), st.integers(0, 1500))
    @settings(max_examples=300)
    def test_matches_per_octet_oracle(self, payload, offset_seed):
        offset = offset_seed % (len(payload) - 1)
        assert iso_checksum(payload, offset) == per_octet_checksum(payload, offset)
        assert iso_checksum_verify(payload) == (per_octet_sums(payload) == (0, 0))

    @given(st.binary(min_size=0, max_size=64).map(lambda b: b + bytes(2)), st.data())
    @settings(max_examples=200)
    def test_verify_matches_oracle_on_checksummed_blocks(self, payload, data):
        offset = data.draw(st.integers(0, len(payload) - 2))
        block = bytearray(payload)
        block[offset : offset + 2] = bytes(2)
        checksum = per_octet_checksum(bytes(block), offset)
        block[offset : offset + 2] = checksum.to_bytes(2, "big")
        flip = data.draw(st.integers(-1, len(block) - 1))
        if flip >= 0:
            block[flip] ^= data.draw(st.integers(1, 255))
        assert iso_checksum_verify(bytes(block)) == (per_octet_sums(block) == (0, 0))

    @given(
        st.binary(min_size=15, max_size=15),
        st.one_of(
            st.binary(max_size=1485),
            st.integers(0, 1485).map(lambda n: b"\xff" * n),
        ),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=300)
    def test_split_sums_match_whole_block(self, header, tlvs, sealed, data):
        """Header sums plus stored TLV sums verify exactly as the whole block.

        ``_checksum_ok`` sees the LSP (12 octets before the checked
        block, which starts with the 15 header octets) and the TLV
        octets' unreduced sums, as a refresh does.
        """
        block = bytearray(header + tlvs)
        if sealed:
            block[12:14] = bytes(2)
            block[12:14] = per_octet_checksum(bytes(block), 12).to_bytes(2, "big")
        b0, b1 = sum(tlvs), sum(accumulate(tlvs))
        whole = iso_checksum_verify(bytes(block))
        assert whole == (per_octet_sums(block) == (0, 0))
        assert _checksum_ok(bytes(12) + bytes(block), b0, b1) == whole

        # One changed header octet flips the verdict as the whole block does.
        position = data.draw(st.integers(0, 14))
        before = block[position]
        block[position] ^= data.draw(st.integers(1, 255))
        flipped = iso_checksum_verify(bytes(block))
        assert _checksum_ok(bytes(12) + bytes(block), b0, b1) == flipped
        assert flipped == (per_octet_sums(block) == (0, 0))
        if sealed:
            # Mod 255, 0x00 and 0xFF are the same octet: only that swap hides.
            assert whole and flipped == ((block[position] - before) % 255 == 0)

    def test_computed_checksum_verifies(self):
        data = bytearray(b"\x01\x02\x03\x00\x00\x04\x05")
        checksum = iso_checksum(bytes(data), 3)
        data[3] = checksum >> 8
        data[4] = checksum & 0xFF
        assert iso_checksum_verify(bytes(data))

    def test_corruption_detected(self):
        data = bytearray(b"\x01\x02\x03\x00\x00\x04\x05")
        checksum = iso_checksum(bytes(data), 3)
        data[3] = checksum >> 8
        data[4] = checksum & 0xFF
        data[0] ^= 0xFF
        assert not iso_checksum_verify(bytes(data))

    @given(st.binary(min_size=3, max_size=200), st.integers(0, 100))
    @settings(max_examples=300)
    def test_checksum_always_verifies(self, payload, offset_seed):
        offset = offset_seed % (len(payload) - 1)
        data = bytearray(payload)
        data[offset] = 0
        data[offset + 1] = 0
        checksum = iso_checksum(bytes(data), offset)
        data[offset] = checksum >> 8
        data[offset + 1] = checksum & 0xFF
        assert iso_checksum_verify(bytes(data))


class TestLinkStatePacket:
    def test_round_trip(self):
        lsp = sample_lsp()
        assert LinkStatePacket.unpack(lsp.pack()) == lsp

    def test_checksum_failure_detected(self):
        raw = bytearray(sample_lsp().pack())
        raw[-1] ^= 0x01
        with pytest.raises(LspDecodeError, match="checksum"):
            LinkStatePacket.unpack(bytes(raw))

    def test_purge_skips_checksum_verification(self):
        raw = bytearray(sample_lsp(lifetime=0).pack())
        # Corrupt the stored checksum (octets 24-25: after the 8-octet
        # common header, PDU length, lifetime, LSP ID, and sequence
        # number); purges legally carry stale checksums.
        raw[24] ^= 0xFF
        decoded = LinkStatePacket.unpack(bytes(raw), verify_checksum=True)
        assert decoded.is_purge()

    def test_non_purge_with_corrupt_checksum_field_rejected(self):
        raw = bytearray(sample_lsp(lifetime=900).pack())
        raw[24] ^= 0xFF
        with pytest.raises(LspDecodeError, match="checksum"):
            LinkStatePacket.unpack(bytes(raw))

    def test_length_field_must_match(self):
        raw = sample_lsp().pack() + b"\x00"
        with pytest.raises(LspDecodeError, match="length"):
            LinkStatePacket.unpack(raw)

    def test_non_lsp_pdu_rejected(self):
        header = PduHeader(pdu_type=PduType.P2P_HELLO).pack()
        with pytest.raises(LspDecodeError):
            LinkStatePacket.unpack(header + b"\x00" * 19)

    def test_accessors(self):
        lsp = sample_lsp()
        assert lsp.hostname == "lax-core-01"
        assert [n.system_id for n in lsp.is_neighbors] == ["0000.0000.0002"]
        assert [p.text for p in lsp.ip_prefixes] == ["137.164.0.0/31"]

    def test_accessors_aggregate_multiple_tlv_instances(self):
        lsp = LinkStatePacket(
            lsp_id=LspId("0000.0000.0001"),
            sequence_number=1,
            tlvs=(
                ExtendedIsReachabilityTlv(neighbors=(IsNeighbor("0000.0000.0002", 1),)),
                ExtendedIsReachabilityTlv(neighbors=(IsNeighbor("0000.0000.0003", 1),)),
            ),
        )
        assert len(lsp.is_neighbors) == 2

    def test_sequence_number_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_lsp(seq=0)

    def test_with_sequence(self):
        assert sample_lsp(seq=1).with_sequence(9).sequence_number == 9

    def test_missing_hostname_is_none(self):
        lsp = LinkStatePacket(lsp_id=LspId("0000.0000.0001"), sequence_number=1)
        assert lsp.hostname is None
