"""Differential tests: the version-aware listener against decode-everything.

:class:`IsisListener` verifies an LSP whose TLV octets repeat any stored
version of its LSP ID from its 15 header octets, and skips the
aggregation and the diff when an accepted fragment's reachability is
unchanged.  The oracle below is the listener without either shortcut:
every LSP goes through :func:`decode_lsp_record` and the full aggregation
and diff.  Hypothesis builds wire archives of one- and two-fragment
origins with refreshes, reverts to an earlier advertisement, duplicate
and stale floods, hostname changes, purges, and refreshes and reverts
damaged in the header or checksum; both listeners must agree record by
record, and batch and stream replay must quarantine the same records.
"""

import struct
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extract_isis import replay_lsp_records
from repro.faults.ledger import IngestReport
from repro.isis import listener as listener_module
from repro.isis.compact import LspRecord, decode_lsp_record, record_from_lsp
from repro.isis.database import supersedes
from repro.isis.listener import (
    LSP_VERSION_CAP,
    IsisListener,
    ReachabilityChange,
    ReachabilityKind,
)
from repro.isis.lsp import LinkStatePacket, LspId, iso_checksum
from repro.isis.tlv import (
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
)
from repro.stream.sources import isis_events


# ------------------------------------------------------------------ oracle
@dataclass
class _OracleOriginState:
    is_neighbors: FrozenSet[str]
    ip_prefixes: FrozenSet[Tuple[int, int]]


class OracleListener:
    """The listener that decodes every LSP and diffs every accepted one."""

    def __init__(self) -> None:
        self._fragments: Dict[str, Dict[bytes, LspRecord]] = {}
        self._origin_state: Dict[str, _OracleOriginState] = {}
        self.hostnames: Dict[str, str] = {}
        self.changes: List[ReachabilityChange] = []
        self.rejected_count = 0

    def observe_bytes(self, time, raw):
        return self._observe(time, decode_lsp_record(raw))

    def observe(self, time, lsp):
        return self._observe(time, record_from_lsp(lsp))

    def _observe(self, time: float, record: LspRecord) -> List[ReachabilityChange]:
        """Process one LSP; returns (and records) the changes it implies."""
        origin = record.origin
        fragments = self._fragments.setdefault(origin, {})
        stored = fragments.get(record.key)
        if stored is not None and not supersedes(
            record.sequence_number,
            record.purge,
            stored.sequence_number,
            stored.purge,
        ):
            self.rejected_count += 1
            return []
        fragments[record.key] = record

        if record.hostname is not None:
            self.hostnames[origin] = record.hostname

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

        previous = self._origin_state.get(origin)
        emitted: List[ReachabilityChange] = []
        if previous is None:
            # First LSP from this origin: record state, emit nothing —
            # the paper's listener likewise seeds its view silently (§3.2).
            self._origin_state[origin] = _OracleOriginState(new_is, new_ip)
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

        self._origin_state[origin] = _OracleOriginState(new_is, new_ip)
        self.changes.extend(emitted)
        return emitted

    def current_is_neighbors(self, origin):
        state = self._origin_state.get(origin)
        return state.is_neighbors if state else frozenset()

    def current_ip_prefixes(self, origin):
        state = self._origin_state.get(origin)
        return state.ip_prefixes if state else frozenset()


# ---------------------------------------------------------------- archives
ORIGINS = ("0000.0000.0001", "0000.0000.0002", "0000.0000.0009")
#: The first two origins flood two fragments, the third only one.
LSP_IDS = tuple(
    LspId(origin, fragment=fragment) for origin in ORIGINS[:2] for fragment in (0, 1)
) + (LspId(ORIGINS[2]),)
NEIGHBORS = tuple(f"0000.0000.00{index:02x}" for index in range(3, 8))
PREFIXES = tuple((0x89A40000 + 2 * index, 31) for index in range(5))
HOSTNAMES = ("lax-core-01", "lax-core-02", None)


def wire(lsp_id, sequence, hostname, neighbors, prefixes, lifetime=1199):
    tlvs = []
    if hostname is not None:
        tlvs.append(DynamicHostnameTlv(hostname=hostname))
    if neighbors:
        tlvs.append(
            ExtendedIsReachabilityTlv(neighbors=tuple(IsNeighbor(n, 10) for n in neighbors))
        )
    if prefixes:
        tlvs.append(
            ExtendedIpReachabilityTlv(
                prefixes=tuple(IpPrefix(prefix, length, 10) for prefix, length in prefixes)
            )
        )
    return LinkStatePacket(lsp_id, sequence, lifetime, tuple(tlvs)).pack()


def reseal(raw):
    """``raw`` with its checksum recomputed over the current octets."""
    checked = bytearray(raw[12:])
    checked[12:14] = bytes(2)
    struct.pack_into(">H", checked, 12, iso_checksum(bytes(checked), 12))
    return raw[:12] + bytes(checked)


def damage(raw, kind, where):
    """An identical-TLV refresh damaged in its header."""
    out = bytearray(raw)
    if kind == "lsp-id":
        out[12 + where % 8] ^= 1 << (where >> 3) % 8
    elif kind == "sequence":
        out[20 + where % 4] ^= 1 << (where >> 2) % 8
    elif kind == "checksum":
        out[24 + where % 2] ^= 1 << (where >> 1) % 8
    elif kind == "length":
        struct.pack_into(">H", out, 8, len(raw) + (1 if where % 2 else -1))
    elif kind == "sequence-0":
        out[20:24] = bytes(4)
        return reseal(bytes(out))
    elif kind == "pdu-type":
        out[4] = (15, 17, 31)[where % 3]
    else:  # truncation
        return bytes(out[: where % len(raw)])
    return bytes(out)


DAMAGE = ("lsp-id", "sequence", "checksum", "length", "sequence-0", "pdu-type", "truncate")
OPS = (
    "change",
    "refresh",
    "refresh",
    "refresh",
    "revert",
    "revert",
    "duplicate",
    "stale",
    "hostname",
    "purge",
    "damage",
    "damaged-revert",
)


def subset(pool, bits):
    return tuple(item for index, item in enumerate(pool) if bits >> index & 1)


def build_archive(steps):
    """Interpret ``(op, lsp index, parameter)`` steps as a wire archive."""
    state = {}
    #: LSP ID -> every (hostname, neighbors, prefixes) it advertised.
    history = {}
    records = []
    for time, (op, which, param) in enumerate(steps):
        lsp_id = LSP_IDS[which]
        current = state.get(lsp_id)
        if current is None:
            op = "change"
        else:
            earlier = history[lsp_id][param % len(history[lsp_id])]
        if op == "change":
            sequence = current["sequence"] + 1 if current else 1 + param % 3
            current = state[lsp_id] = {
                "sequence": sequence,
                "hostname": HOSTNAMES[param % 3],
                "neighbors": subset(NEIGHBORS, param >> 2),
                "prefixes": subset(PREFIXES, param >> 7),
            }
            lifetime = 1199
        elif op == "refresh":
            current["sequence"] += 1 + param % 3
            lifetime = 1199
        elif op == "hostname":
            current["sequence"] += 1
            current["hostname"] = HOSTNAMES[param % 3]
            lifetime = 1199
        elif op == "revert":
            # Re-advertise an earlier content, as both ends of a failed
            # link do on recovery.
            current["sequence"] += 1 + (param >> 6) % 2
            current["hostname"], current["neighbors"], current["prefixes"] = earlier
            lifetime = 1199
        elif op == "purge":
            current["sequence"] += param % 2
            lifetime = 0
        if op == "duplicate":
            raw = current["last"]
        elif op == "stale":
            raw = wire(
                lsp_id,
                max(1, current["sequence"] - param % 3),
                current["hostname"],
                current["neighbors"],
                subset(PREFIXES, param >> 2) if param & 1 else current["prefixes"],
            )
        elif op == "damage":
            refresh = wire(
                lsp_id,
                current["sequence"] + 1,
                current["hostname"],
                current["neighbors"],
                current["prefixes"],
            )
            raw = damage(refresh, DAMAGE[param % len(DAMAGE)], param // len(DAMAGE))
        elif op == "damaged-revert":
            sequence = current["sequence"] + 1
            revert = wire(lsp_id, sequence, *earlier)
            kind = (DAMAGE + ("foreign-checksum",))[(param >> 4) % (len(DAMAGE) + 1)]
            if kind == "foreign-checksum":
                # The checksum the current content carries at this
                # sequence number, on a revisited version's TLV octets.
                foreign = wire(
                    lsp_id,
                    sequence,
                    current["hostname"],
                    current["neighbors"],
                    current["prefixes"],
                )
                raw = revert[:24] + foreign[24:26] + revert[26:]
            else:
                raw = damage(revert, kind, param >> 8)
        else:
            raw = current["last"] = wire(
                lsp_id,
                current["sequence"],
                current["hostname"],
                current["neighbors"],
                current["prefixes"],
                lifetime,
            )
            history.setdefault(lsp_id, []).append(
                (current["hostname"], current["neighbors"], current["prefixes"])
            )
        records.append((float(time), raw))
    return records


steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, len(LSP_IDS) - 1),
        st.integers(0, 2**12 - 1),
    ),
    min_size=1,
    max_size=40,
)


# ------------------------------------------------------------------ driving
def outcomes(observe, records):
    """What each record yields: its changes, or its exception."""
    result = []
    for time, raw in records:
        try:
            result.append(observe(time, raw))
        except Exception as error:  # noqa: BLE001 - the type is the comparison
            result.append((type(error), str(error)))
    return result


def final_view(listener):
    return (
        listener.changes,
        listener.rejected_count,
        listener.hostnames,
        {origin: listener.current_is_neighbors(origin) for origin in ORIGINS},
        {origin: listener.current_ip_prefixes(origin) for origin in ORIGINS},
    )


class IndexedReport(IngestReport):
    """A drop ledger that keeps every quarantined record index."""

    def __init__(self):
        super().__init__()
        self.quarantined = []

    def record(self, channel, reason, offset=None, index=None, sample=""):
        self.quarantined.append((reason, index))
        return super().record(channel, reason, offset, index, sample)


class UnresolvingResolver:
    def hostname_for(self, system_id):
        return None


def assert_matches_decode_everything(records):
    """Both listeners agree record by record and on their final view;
    strict replay raises the oracle's first exception, and lenient batch
    and stream replay quarantine exactly the oracle's failures."""
    listener, oracle = IsisListener(), OracleListener()
    expected = outcomes(oracle.observe_bytes, records)
    assert outcomes(listener.observe_bytes, records) == expected
    assert final_view(listener) == final_view(oracle)

    failures = [(i, e) for i, e in enumerate(expected) if isinstance(e, tuple)]
    try:
        _, changes = replay_lsp_records(records)
    except Exception as error:  # noqa: BLE001 - the type is the comparison
        assert failures and (type(error), str(error)) == failures[0][1]
    else:
        assert not failures and changes == oracle.changes

    quarantined = [("lsp-decode", index) for index, _ in failures]
    batch_report = IndexedReport()
    _, changes = replay_lsp_records(records, strict=False, report=batch_report)
    assert batch_report.quarantined == quarantined
    assert changes == oracle.changes
    stream_report = IndexedReport()
    dataset = SimpleNamespace(iter_lsp_records=lambda: iter(records))
    list(isis_events(dataset, UnresolvingResolver(), strict=False, report=stream_report))
    assert stream_report.quarantined == quarantined


@settings(max_examples=300, deadline=None)
@given(steps)
def test_refresh_listener_matches_decode_everything(steps):
    assert_matches_decode_everything(build_archive(steps))


@settings(max_examples=200, deadline=None)
@given(steps)
def test_observe_of_built_lsps_matches_decode_everything(steps):
    """``observe(lsp)``, the simulator's path, takes the diff skip too."""
    lsps = []
    for time, raw in build_archive(steps):
        try:
            lsps.append((time, LinkStatePacket.unpack(raw)))
        except ValueError:
            continue
    listener, oracle = IsisListener(), OracleListener()
    assert outcomes(listener.observe, lsps) == outcomes(oracle.observe, lsps)
    assert final_view(listener) == final_view(oracle)


# ---------------------------------------------------------------- versions
def count_decodes(monkeypatch):
    """The wire LSPs the listener decodes in full, in order."""
    decoded = []
    decode = listener_module.decode_lsp

    def counted(raw):
        decoded.append(raw)
        return decode(raw)

    monkeypatch.setattr(listener_module, "decode_lsp", counted)
    return decoded


@pytest.mark.parametrize(
    "lsp_ids", [LSP_IDS[4:], LSP_IDS[:2]], ids=["one-fragment", "two-fragment"]
)
def test_reverts_skip_the_decode_and_damaged_ones_reach_the_barrier(
    monkeypatch, lsp_ids
):
    """Versions A, B, C, then reverts to A and B, three damaged reverts
    to C (a flipped bit in the length field, the sequence number or the
    checksum) and a clean one."""
    records = []
    decoded = []
    for fragment, lsp_id in enumerate(lsp_ids):
        a, b, c = (
            ("lax-core-01", NEIGHBORS[fragment : fragment + k], PREFIXES[:k])
            for k in (1, 2, 3)
        )
        for sequence, content in enumerate((a, b, c, a, b), start=1):
            records.append((float(len(records)), wire(lsp_id, sequence, *content)))
        decoded += [raw for _, raw in records[-5:-2]]
        revert = wire(lsp_id, 6, *c)
        for octet in (9, 23, 25):  # the length's, sequence's, checksum's low bits
            damaged = bytearray(revert)
            damaged[octet] ^= 0x01
            records.append((float(len(records)), bytes(damaged)))
            decoded.append(bytes(damaged))
        records.append((float(len(records)), revert))

    calls = count_decodes(monkeypatch)
    outcomes(IsisListener().observe_bytes, records)
    assert calls == decoded
    monkeypatch.undo()
    assert_matches_decode_everything(records)


def test_versions_are_capped_and_an_evicted_one_is_decoded_again(monkeypatch):
    lsp_id = LSP_IDS[4]
    key = lsp_id.pack()
    contents = [
        ("lax-core-01", subset(NEIGHBORS, bits), ())
        for bits in range(1, LSP_VERSION_CAP + 3)
    ]
    # The oldest (evicted), the newest but one (kept), the second
    # (also evicted).
    revisits = [contents[0], contents[-2], contents[1]]
    records = [
        (float(sequence), wire(lsp_id, sequence, *content))
        for sequence, content in enumerate(contents + revisits, start=1)
    ]

    calls = count_decodes(monkeypatch)
    listener = IsisListener()
    for time, raw in records:
        listener.observe_bytes(time, raw)
        versions = list(listener._versions[key])
        assert len(versions) <= LSP_VERSION_CAP
        assert versions[-1] == raw[27:]  # newest last, hit or miss
    assert len(listener._versions[key]) == LSP_VERSION_CAP
    assert calls == [raw for _, raw in records[: len(contents)]] + [
        records[-3][1],
        records[-1][1],
    ]
    monkeypatch.undo()

    oracle = OracleListener()
    outcomes(oracle.observe_bytes, records)
    assert listener.changes == oracle.changes
    assert final_view(listener) == final_view(oracle)


# ------------------------------------------------- purge, then a sibling
def test_purge_then_sibling_refresh_is_pinned():
    """A purge withdraws the whole origin; a sibling's refresh restores it.

    ISO 10589 withdraws only the purged fragment.  This listener (like
    the one before the refresh path) empties the origin's view on a purge
    of any fragment, and the next plain refresh of a sibling re-announces
    the purged fragment's neighbour, because the stored purge record keeps
    its stale TLVs in the union.  docs/methodology.md records the
    question; this test pins today's output.
    """
    origin = ORIGINS[0]
    fragment_0, fragment_1 = LspId(origin, fragment=0), LspId(origin, fragment=1)
    n0, n1 = NEIGHBORS[0], NEIGHBORS[1]
    records = [
        (0.0, wire(fragment_0, 1, "lax-core-01", (n0,), ())),
        (1.0, wire(fragment_1, 1, None, (n1,), ())),
        (2.0, wire(fragment_1, 1, None, (n1,), (), lifetime=0)),
        (3.0, wire(fragment_0, 2, "lax-core-01", (n0,), ())),
        (4.0, wire(fragment_0, 3, "lax-core-01", (n0,), ())),
    ]

    def change(time, direction, target):
        return ReachabilityChange(time, origin, ReachabilityKind.IS, direction, target)

    pinned = [
        [],
        [change(1.0, "up", n1)],
        [change(2.0, "down", n0), change(2.0, "down", n1)],
        [change(3.0, "up", n0), change(3.0, "up", n1)],
        [],
    ]
    for listener in (IsisListener(), OracleListener()):
        assert outcomes(listener.observe_bytes, records) == pinned
        assert listener.current_is_neighbors(origin) == {n0, n1}
