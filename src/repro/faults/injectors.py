"""Seeded corruptors for the on-disk artifacts of a measurement campaign.

Each injector is a pure ``bytes -> bytes`` function taking an explicit
:class:`random.Random`, so a given (artifact, seed) pair always produces
the same corruption — the chaos harness and the test suite rely on that
determinism to reproduce failures.  The damage modes are the ones a
crashed collector or listener actually leaves behind (§4.1/§4.2 of the
paper treat exactly these loss channels as the object of study):

* :func:`inject_garbage_lines` — binary junk and non-syslog chatter
  interleaved into the central log;
* :func:`truncate_log_lines` — syslog lines cut mid-line, as when the
  collector dies with a partially flushed buffer;
* :func:`truncate_mrt` — the LSP archive cut mid-record, the signature
  of a listener killed while appending;
* :func:`bitflip_mrt_payloads` — flipped bits inside LSP payloads
  (framing intact, checksums broken), as from storage rot;
* :func:`corrupt_mrt_length` — a mangled length field, after which the
  archive cannot be re-synchronised;
* :func:`corrupt_checkpoint` — a checkpoint file truncated, bit-flipped,
  or replaced with garbage mid-write;
* :func:`corrupt_segment` — a checkpoint's results segment with a torn
  tail past its committed length, cut below it, or bit-flipped inside it.

``INJECTOR_NAMES`` lists the scenario names ``repro chaos`` exposes.
"""

from __future__ import annotations

import random
import struct
from typing import List, Tuple

from repro.isis.mrt import MAGIC, _RECORD_HEADER

#: Scenario names the chaos harness runs (see repro.faults.chaos).
INJECTOR_NAMES = (
    "syslog-garbage",
    "syslog-truncate",
    "mrt-truncate",
    "mrt-bitflip",
    "mrt-badlength",
    "checkpoint-corrupt",
    "kill-resume",
)

#: Bytes drawn on for garbage lines: control characters, high bytes, and
#: printable junk — everything a wedged serial console can emit.
_GARBAGE_ALPHABET = bytes(range(0, 9)) + bytes(range(14, 32)) + bytes(
    range(127, 256)
) + b"{}[]<>%$#@!~^&*"


def _garbage_line(rng: random.Random) -> bytes:
    length = rng.randint(1, 60)
    return bytes(rng.choice(_GARBAGE_ALPHABET) for _ in range(length))


def inject_garbage_lines(
    raw: bytes, rng: random.Random, count: int = 8
) -> bytes:
    """Insert ``count`` garbage lines at random positions in a text log.

    Garbage alternates between raw binary junk and plausible-but-foreign
    chatter (the "other messages in the feed" problem, amplified to the
    point of being undecodable).
    """
    lines = raw.split(b"\n")
    for _ in range(count):
        position = rng.randint(0, len(lines))
        if rng.random() < 0.5:
            junk = _garbage_line(rng)
        else:
            junk = b"#%&! wedged console output " + _garbage_line(rng)
        lines.insert(position, junk)
    return b"\n".join(lines)


def truncate_log_lines(
    raw: bytes, rng: random.Random, count: int = 8
) -> bytes:
    """Cut ``count`` randomly chosen non-empty lines mid-line.

    A truncated RFC 3164 line usually loses its body or part of its
    header and stops parsing; lines cut inside the body may still parse
    (with a shortened body), which is fine — the injector models the
    damage, the ledger reports only what actually became unreadable.
    """
    lines = raw.split(b"\n")
    candidates = [i for i, line in enumerate(lines) if len(line) > 2]
    rng.shuffle(candidates)
    for i in candidates[:count]:
        cut = rng.randint(1, max(1, len(lines[i]) - 1))
        lines[i] = lines[i][:cut]
    return b"\n".join(lines)


def _mrt_record_spans(raw: bytes) -> List[Tuple[int, int]]:
    """``(offset, payload_length)`` of each complete record in a dump."""
    spans: List[Tuple[int, int]] = []
    offset = len(MAGIC)
    while offset + _RECORD_HEADER.size <= len(raw):
        _, length = _RECORD_HEADER.unpack_from(raw, offset)
        if offset + _RECORD_HEADER.size + length > len(raw):
            break
        spans.append((offset, length))
        offset += _RECORD_HEADER.size + length
    return spans


def truncate_mrt(raw: bytes, rng: random.Random) -> bytes:
    """Cut the archive at a random byte inside one of its last records.

    The cut lands strictly inside a record (header or payload), never on
    a record boundary, so the salvage reader must detect and report it.
    """
    spans = _mrt_record_spans(raw)
    if not spans:
        return raw[: len(MAGIC) + rng.randint(1, _RECORD_HEADER.size - 1)]
    # Cut within the last quarter of records so a meaningful prefix survives.
    first_candidate = (3 * len(spans)) // 4
    offset, length = spans[rng.randint(first_candidate, len(spans) - 1)]
    cut = offset + rng.randint(1, _RECORD_HEADER.size + length - 1)
    return raw[:cut]


#: First payload byte the Fletcher checksum covers (the LSP ID onward).
#: Real IS-IS deliberately excludes the header and remaining-lifetime
#: field from the checksum, so rot there is undetectable by design; the
#: injector targets the covered region so every flip is *attributable* —
#: the chaos harness asserts each damaged record lands in the ledger.
_LSP_CHECKSUMMED_FROM = 12
#: Offset of the remaining-lifetime field in an LSP payload; a zero
#: lifetime marks a purge, whose checksum is legitimately not verified.
_LSP_LIFETIME_OFFSET = 10


def bitflip_mrt_payloads(
    raw: bytes, rng: random.Random, records: int = 6, flips: int = 3
) -> bytes:
    """Flip bits inside the payloads of randomly chosen records.

    Record headers (timestamps and lengths) are left intact so the
    archive still frames correctly; the damage surfaces as LSP checksum
    failures, the paper's "listener heard something unusable" case.
    Flips land in the checksum-covered region of non-purge LSPs, so every
    corrupted record is detectable — and must show up in the drop ledger.
    """
    data = bytearray(raw)
    candidates = []
    for offset, length in _mrt_record_spans(raw):
        payload_start = offset + _RECORD_HEADER.size
        if length <= _LSP_CHECKSUMMED_FROM:
            continue
        lifetime = data[
            payload_start + _LSP_LIFETIME_OFFSET
            : payload_start + _LSP_LIFETIME_OFFSET + 2
        ]
        if lifetime == b"\x00\x00":
            continue
        candidates.append((payload_start, length))
    rng.shuffle(candidates)
    for payload_start, length in candidates[:records]:
        for _ in range(flips):
            position = payload_start + rng.randint(
                _LSP_CHECKSUMMED_FROM, length - 1
            )
            data[position] ^= 1 << rng.randint(0, 7)
    return bytes(data)


def corrupt_mrt_length(raw: bytes, rng: random.Random) -> bytes:
    """Overwrite one record's length field with an absurd value.

    Everything after the mangled header is unreachable (the reader cannot
    re-synchronise), so lenient mode must salvage the prefix and report
    an ``oversize-record`` cut.
    """
    spans = _mrt_record_spans(raw)
    if not spans:
        return raw
    offset, _ = spans[rng.randint(len(spans) // 2, len(spans) - 1)]
    data = bytearray(raw)
    # Length field sits after the 8-byte timestamp double.
    struct.pack_into(">I", data, offset + 8, 0x7FFFFFFF - rng.randint(0, 1 << 20))
    return bytes(data)


#: Corruption modes of :func:`corrupt_checkpoint`.
CHECKPOINT_MODES = ("truncate", "bitflip", "garbage")


def corrupt_checkpoint(raw: bytes, rng: random.Random, mode: str) -> bytes:
    """Damage a checkpoint document the way an interrupted writer would.

    ``truncate`` cuts the JSON mid-document (torn write), ``bitflip``
    sets high bits inside it (storage rot; checkpoint JSON is pure ASCII,
    so a set high bit is guaranteed-invalid UTF-8 and must surface as
    :class:`CheckpointError`, never a silent misread), ``garbage``
    replaces the file wholesale.
    """
    if mode == "truncate":
        if len(raw) < 2:
            return b""
        return raw[: rng.randint(1, len(raw) - 1)]
    if mode == "bitflip":
        data = bytearray(raw)
        for _ in range(max(4, len(raw) // 512)):
            position = rng.randint(0, len(data) - 1)
            data[position] ^= 0x80
        return bytes(data)
    if mode == "garbage":
        return _garbage_line(rng) + b"\n" + _garbage_line(rng)
    raise ValueError(f"unknown checkpoint corruption mode {mode!r}")


#: Damage modes of :func:`corrupt_segment`.
SEGMENT_MODES = ("tail", "cut", "bitflip")


def corrupt_segment(
    raw: bytes, committed: int, rng: random.Random, mode: str
) -> bytes:
    """Damage a results segment whose first ``committed`` bytes are live.

    ``tail`` appends a torn chunk past the committed length — what a
    save killed between its append and its frontier rename leaves, and
    the one mode a resume must absorb silently; ``cut`` truncates the
    segment below the committed length (lost writes); ``bitflip`` flips
    one bit inside the committed region (storage rot).  The last two
    must surface as :class:`~repro.stream.checkpoint.CheckpointError`.
    """
    if committed < 1:
        raise ValueError("segment damage needs a non-empty committed region")
    if mode == "tail":
        return raw[:committed] + b'{"raw_failures":{"syslog":[["torn'
    if mode == "cut":
        return raw[: rng.randint(0, committed - 1)]
    if mode == "bitflip":
        data = bytearray(raw)
        data[rng.randint(0, committed - 1)] ^= 1 << rng.randint(0, 7)
        return bytes(data)
    raise ValueError(f"unknown segment corruption mode {mode!r}")
