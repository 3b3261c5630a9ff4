"""PyRT-style binary dump files for LSP capture streams.

The paper's listener archived raw LSPs to disk for thirteen months; this
module provides the equivalent archive format so simulated captures can be
written once and re-analysed many times (and so the analysis pipeline reads
bytes off disk rather than objects out of memory).

Record layout (all big-endian), after a fixed eight-byte magic header:

======  =====================================
8       IEEE-754 double: capture timestamp
4       uint32: payload length ``n``
``n``   raw LSP bytes as heard on the wire
======  =====================================
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

from repro.faults.ledger import CHANNEL_ISIS, IngestReport

MAGIC = b"RPRTDMP1"
_RECORD_HEADER = struct.Struct(">dI")

#: Refuse absurd record lengths so a corrupt file fails fast instead of
#: attempting a multi-gigabyte read.
_MAX_RECORD = 1 << 20


class MrtFormatError(ValueError):
    """Raised when a dump file is corrupt or not a dump file at all."""


class MrtDumpWriter:
    """Appends timestamped LSP byte records to a dump file."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._stream.write(MAGIC)
        self._count = 0

    @classmethod
    def open(cls, path: Union[str, Path]) -> "MrtDumpWriter":
        return cls(open(path, "wb"))

    def write(self, time: float, payload: bytes) -> None:
        if len(payload) > _MAX_RECORD:
            raise MrtFormatError("record exceeds maximum payload size")
        self._stream.write(_RECORD_HEADER.pack(time, len(payload)))
        self._stream.write(payload)
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "MrtDumpWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MrtDumpReader:
    """Iterates ``(time, payload)`` records out of a dump file.

    Without a ``report`` any corruption raises :class:`MrtFormatError`,
    with the record index and byte offset in the message — and closes the
    underlying stream first, so a dump that fails halfway through
    iteration never leaks its file handle.

    With a ``report`` (an :class:`~repro.faults.ledger.IngestReport`) the
    reader is in salvage mode, for the archive a crashed listener leaves
    behind: the valid prefix is yielded, and the first structural error
    (truncated header/payload, absurd length — the file cannot be
    re-synchronised past any of these) ends iteration cleanly after
    recording the cut into the ledger with its reason, record index, and
    byte offset.
    """

    def __init__(
        self,
        stream: BinaryIO,
        *,
        report: Optional[IngestReport] = None,
    ) -> None:
        self._stream = stream
        self._report = report
        self._bad_magic = False
        magic = stream.read(len(MAGIC))
        if magic != MAGIC:
            if report is None:
                stream.close()
                raise MrtFormatError(
                    f"not a repro LSP dump file (bad magic at byte offset 0: "
                    f"{magic[:8]!r})"
                )
            self._bad_magic = True
            report.record(
                CHANNEL_ISIS,
                "bad-magic",
                offset=0,
                index=0,
                sample=magic[:8],
            )

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        *,
        report: Optional[IngestReport] = None,
    ) -> "MrtDumpReader":
        return cls(open(path, "rb"), report=report)

    def _fail(
        self, reason: str, detail: str, index: int, offset: int, sample: bytes
    ) -> None:
        """No ledger: close and raise with context.  Ledger: record the cut."""
        if self._report is None:
            self._stream.close()
            raise MrtFormatError(
                f"record {index} at byte offset {offset}: {detail}"
            )
        self._report.record(
            CHANNEL_ISIS, reason, offset=offset, index=index, sample=sample
        )

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        if self._bad_magic:
            return
        index = 0
        offset = len(MAGIC)
        while True:
            header = self._stream.read(_RECORD_HEADER.size)
            if not header:
                return
            if len(header) < _RECORD_HEADER.size:
                self._fail(
                    "truncated-header",
                    f"truncated record header ({len(header)} of "
                    f"{_RECORD_HEADER.size} bytes)",
                    index,
                    offset,
                    header,
                )
                return
            time, length = _RECORD_HEADER.unpack(header)
            if length > _MAX_RECORD:
                self._fail(
                    "oversize-record",
                    f"record length {length} exceeds maximum payload size "
                    f"{_MAX_RECORD} (corrupt length field)",
                    index,
                    offset,
                    header,
                )
                return
            payload = self._stream.read(length)
            if len(payload) < length:
                self._fail(
                    "truncated-payload",
                    f"truncated record payload ({len(payload)} of "
                    f"{length} bytes)",
                    index,
                    offset,
                    payload[:16],
                )
                return
            yield time, payload
            index += 1
            offset += _RECORD_HEADER.size + length

    def read_all(self) -> List[Tuple[float, bytes]]:
        return list(self)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "MrtDumpReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
