"""Vectorised RFC 3164 syslog parsing with an exact scalar-identity contract.

The contract
------------
:func:`parse_log_columnar` is a drop-in replacement for
:meth:`repro.syslog.collector.SyslogCollector.parse_log`: for every
input — clean, garbage, truncated, non-ASCII — it returns the same
entries, records the same drops in the same order into the
``IngestReport``, and raises the same exception from the same line in
strict mode.

The engine earns its speed only on lines it can *prove* the scalar parser
would accept, and proves it with vectorised byte-level checks:

* the line is printable ASCII (bytes 32..126) — this collapses the regex's
  Unicode ``\\S``/whitespace semantics to "not a space byte";
* the exact ``<PRI>Mmm dd HH:MM:SS.mmm HOST BODY`` grammar holds at fixed
  byte offsets, with PRI ≤ 191, a known month name, and in-range
  day/hour/minute/second values;
* the calendar date is not Feb 29 — the only date for which the scalar
  parser's candidate-year window can reject every year
  (``TimestampRangeError``), so the only date whose outcome depends on
  context in a way the batch path does not model.

Everything else — malformed lines, out-of-range values, control bytes,
Feb 29, non-ASCII — is handed to the scalar parser *in line order*, with
the running ``latest`` timestamp threaded through, so drop reasons, strict
errors, and year-resolution context stay bit-identical.

Year resolution as a fixpoint
-----------------------------
The scalar parser resolves the RFC 3164 missing-year ambiguity against the
running maximum timestamp (see :func:`repro.util.timefmt.parse_timestamp`):
each line takes the earliest candidate year whose timestamp is no more than
two days behind the maximum parsed so far.  Batch parsing computes the same
assignment by iteration: start every line at its earliest valid candidate,
compute the running maximum with ``np.maximum.accumulate``, bump any line
whose choice fell more than the slack behind the maximum *before* it to the
next candidate year, and repeat until no line moves.  Choices only ever
move up, each bump is forced under the final (larger) maxima as well, and
for any non-Feb-29 date the candidate one year past the running maximum is
always eligible — so the iteration terminates at exactly the sequential
assignment, and never needs the scalar parser's out-of-range escape.
"""

from __future__ import annotations

import datetime
import gc
from typing import Dict, List, Optional, Tuple

from repro.faults.ledger import CHANNEL_SYSLOG, IngestReport
from repro.syslog.collector import (
    CiscoMemo,
    CollectedEntry,
    SyslogCollector,
    collected_entry,
    line_octets,
)
from repro.syslog.message import parse_syslog_line, try_parse_syslog_line
from repro.util.timefmt import (
    DAYS_IN_MONTH,
    MONTH_BY_NAME,
    STUDY_EPOCH,
    _YEAR_RESOLUTION_SLACK,
    month_start,
)

try:  # numpy is the engine; without it the scalar parser serves every call.
    import numpy as np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    np = None  # type: ignore[assignment]

COLUMNAR_AVAILABLE = np is not None

try:  # pragma: no cover - optional, absent in the reference environment
    import polars  # noqa: F401

    _HAVE_POLARS = True
except ImportError:
    _HAVE_POLARS = False


def available_backends() -> Tuple[str, ...]:
    """Engine backends present in this environment (diagnostic only)."""
    backends = []
    if COLUMNAR_AVAILABLE:
        backends.append("numpy")
    if _HAVE_POLARS:
        backends.append("polars")
    return tuple(backends)


#: :data:`~repro.util.timefmt.MONTH_BY_NAME` keyed by the three name bytes
#: packed into one int.  Names not matching the line grammar's
#: ``[A-Z][a-z]{2}`` could never appear in a grammar-valid line.
_MONTH_BY_CODE: Dict[int, int] = {
    (ord(name[0]) << 16) | (ord(name[1]) << 8) | ord(name[2]): month
    for name, month in MONTH_BY_NAME.items()
    if len(name) == 3 and name[0].isupper() and name[1:].islower()
}

#: The columnar parser's Cisco-body memo, shared by every parse in the
#: process and bounded by :data:`~repro.syslog.collector.CISCO_MEMO_CAP`.
_CISCO_CACHE: CiscoMemo = {}

#: Lines per vectorised batch; bounds peak temporary-array memory on
#: multi-million-line corpora without changing results (batching is just
#: segment composition with the context threaded through).  Sized so the
#: classifier's windowed gathers stay cache-resident: 2**17 lines keep
#: every temporary under ~10 MB, measured ~3x faster end-to-end than
#: 2**20 on a 2M-line corpus.
_BATCH_LINES = 1 << 17


class _Walk:
    """Mutable per-parse state threaded through batches and slow lines."""

    __slots__ = ("strict", "report", "latest", "entries")

    def __init__(self, strict: bool, report: Optional[IngestReport]) -> None:
        self.strict = strict
        self.report = report
        self.latest = 0.0
        self.entries: List[CollectedEntry] = []

    def scalar_line(self, line: str, line_number: int, line_offset: int) -> None:
        """Process one line exactly as the scalar loop body does."""
        if not line.strip():
            return
        if self.strict:
            message = parse_syslog_line(line, after=self.latest)
        else:
            message, reason = try_parse_syslog_line(line, after=self.latest)
            if message is None:
                if self.report is not None:
                    self.report.record(
                        CHANNEL_SYSLOG,
                        reason or "malformed-line",
                        offset=line_offset,
                        index=line_number,
                        sample=line,
                    )
                return
        timestamp = message.timestamp
        if timestamp > self.latest:
            self.latest = timestamp
        self.entries.append(
            collected_entry(
                _CISCO_CACHE, timestamp, message.hostname, message.body
            )
        )


def _year_base_table(years: "np.ndarray") -> "np.ndarray":
    """``base[j, m-1]`` = integer seconds of (years[j], m, 1) past the epoch."""
    return np.array(
        [[month_start(year, month)[0] for month in range(1, 13)] for year in years.tolist()],
        dtype=np.int64,
    )


def _resolve_years(
    day_seconds: "np.ndarray",
    months: "np.ndarray",
    millis: "np.ndarray",
    after: float,
) -> Tuple["np.ndarray", float]:
    """Assign each fast line its sequential-identical timestamp.

    ``day_seconds`` is the year-independent part (seconds from the 1st of
    the month, integer-valued), ``months`` the 1-based month numbers.
    Returns the timestamps in line order plus the updated running maximum.
    """
    slack = _YEAR_RESOLUTION_SLACK
    count = len(day_seconds)
    reached = (STUDY_EPOCH + datetime.timedelta(seconds=after)).year
    high = max(2012, reached + 1)
    millis_f = millis.astype(np.float64) / 1000.0
    rows = np.arange(count)

    for _ in range(64):
        years = np.arange(2010, high + 1, dtype=np.int64)
        base = _year_base_table(years)
        cand_int = base[:, months - 1].T + day_seconds[:, None]
        cand = cand_int.astype(np.float64)
        cand[cand_int < 0] = np.inf
        cand += millis_f[:, None]
        choice = np.isfinite(cand).argmax(axis=1)

        # Each iteration bumps at least one line and every line bumps at
        # most once per candidate year, so this terminates; the budget is
        # the proof's worst case, not an expectation (clean corpora
        # converge in one or two passes).
        budget = count * len(years) + 2
        while budget > 0:
            budget -= 1
            chosen = cand[rows, choice]
            running = np.maximum.accumulate(
                np.concatenate(([after], chosen))
            )
            behind = chosen < running[:-1] - slack
            if not behind.any():
                return chosen, float(running[-1])
            choice[behind] += 1
            if choice.max() >= len(years):
                break  # widen the candidate-year window and restart
        high += 4
    raise RuntimeError("year-resolution fixpoint failed to converge")


def _classify_ascii(
    buf: "np.ndarray", starts: "np.ndarray", ends: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", dict]:
    """Split lines into provably-fast and everything-else.

    Returns ``(fast_mask, hostname_starts, hostname_spaces, fields)`` where
    the last two are aligned with the fast lines only and ``fields`` holds
    their decoded timestamp components.
    """
    # Pad so fixed-offset probes past short final lines stay in bounds; the
    # padding can never *validate* a line because the length gate below is
    # arithmetic on the true line extents.
    padded = np.concatenate([buf, np.zeros(32, dtype=np.uint8)])
    lengths = ends - starts
    s = starts

    # One windowed gather per region instead of dozens of scattered ones:
    # the PRI region is anchored at the line start, the timestamp region at
    # the (PRI-length-dependent) timestamp start.
    head = padded[s[:, None] + np.arange(5)]
    b1, b2, b3 = (
        head[:, 1].astype(np.int32),
        head[:, 2].astype(np.int32),
        head[:, 3].astype(np.int32),
    )
    d1 = (b1 >= 48) & (b1 <= 57)
    d2 = (b2 >= 48) & (b2 <= 57)
    d3 = (b3 >= 48) & (b3 <= 57)
    pri1 = d1 & (head[:, 2] == 62)
    pri2 = d1 & d2 & (head[:, 3] == 62)
    pri3 = d1 & d2 & d3 & (head[:, 4] == 62)
    pri_len = np.where(pri1, 1, np.where(pri2, 2, 3))
    pri_val = np.where(
        pri1,
        b1 - 48,
        np.where(pri2, (b1 - 48) * 10 + b2 - 48, (b1 - 48) * 100 + (b2 - 48) * 10 + b3 - 48),
    )
    fast = (head[:, 0] == 60) & (pri1 | pri2 | pri3) & (pri_val <= 191)

    ts = s + pri_len + 2  # first byte of the 19-char timestamp
    # Window columns 0..18 are the timestamp, 19 the pre-hostname space,
    # 20 the first hostname byte.
    win = padded[ts[:, None] + np.arange(21)]
    digit_cols = win[:, (5, 7, 8, 10, 11, 13, 14, 16, 17, 18)]
    fast &= ((digit_cols >= 48) & (digit_cols <= 57)).all(axis=1)
    sep_cols = win[:, (3, 6, 9, 12, 15, 19)]
    fast &= (
        sep_cols == np.array([32, 32, 58, 58, 46, 32], dtype=np.uint8)
    ).all(axis=1)
    day_hi = win[:, 4]
    fast &= (day_hi == 32) | ((day_hi >= 48) & (day_hi <= 57))
    fast &= win[:, 20] != 32  # hostname must start with a non-space

    # Month lookup: unknown names never survive strptime in any year.
    m0, m1, m2 = win[:, 0], win[:, 1], win[:, 2]
    fast &= (m0 >= 65) & (m0 <= 90) & (m1 >= 97) & (m1 <= 122)
    fast &= (m2 >= 97) & (m2 <= 122)
    code = (m0.astype(np.int32) << 16) | (m1.astype(np.int32) << 8) | m2
    month_codes = np.array(sorted(_MONTH_BY_CODE), dtype=np.int32)
    month_nums = np.array(
        [_MONTH_BY_CODE[c] for c in sorted(_MONTH_BY_CODE)], dtype=np.int32
    )
    pos = np.searchsorted(month_codes, code)
    pos[pos >= len(month_codes)] = 0
    month = np.where(month_codes[pos] == code, month_nums[pos], 0)
    fast &= month > 0

    day = (
        np.where(day_hi == 32, 0, day_hi.astype(np.int32) - 48) * 10
        + win[:, 5]
        - 48
    )
    hour = (win[:, 7].astype(np.int32) - 48) * 10 + win[:, 8] - 48
    minute = (win[:, 10].astype(np.int32) - 48) * 10 + win[:, 11] - 48
    second = (win[:, 13].astype(np.int32) - 48) * 10 + win[:, 14] - 48
    ms = (
        (win[:, 16].astype(np.int32) - 48) * 100
        + (win[:, 17].astype(np.int32) - 48) * 10
        + win[:, 18]
        - 48
    )
    # Day-count ceiling per month; Feb 29 is deliberately above it so
    # leap-day lines take the scalar route.
    dim = np.zeros(13, dtype=np.int32)
    dim[1:] = DAYS_IN_MONTH
    fast &= (day >= 1) & (day <= dim[month]) & (hour <= 23)
    fast &= (minute <= 59) & (second <= 59)

    # The line must have room for the full grammar: PRI, timestamp, one
    # hostname byte, and the hostname/body separator space.
    h0 = ts + 20
    fast &= lengths >= (pri_len + 24)

    # Any control byte (other than the newlines already removed) or
    # non-ASCII byte voids the whole line's proof: regex \S and str.strip
    # have Unicode semantics the byte checks don't model.
    suspicious = np.flatnonzero(
        ((buf < 32) & (buf != 10)) | (buf > 126)
    )
    if len(suspicious):
        bad_lines = np.unique(np.searchsorted(starts, suspicious, "right") - 1)
        fast[bad_lines] = False

    # First space at or after the hostname start (an index into buf, with a
    # one-past-the-end sentinel so "no space" falls out of the range check).
    space_positions = np.concatenate(
        (np.flatnonzero(buf == 32), [len(buf)])
    )
    fast_idx = np.flatnonzero(fast)
    h0_fast = h0[fast_idx]
    sp = space_positions[np.searchsorted(space_positions, h0_fast)]
    has_space = sp < ends[fast_idx]
    if not has_space.all():
        fast[fast_idx[~has_space]] = False
        fast_idx = fast_idx[has_space]
        h0_fast = h0_fast[has_space]
        sp = sp[has_space]

    fields = {
        "day_seconds": (
            (day[fast_idx].astype(np.int64) - 1) * 86400
            + hour[fast_idx].astype(np.int64) * 3600
            + minute[fast_idx].astype(np.int64) * 60
            + second[fast_idx].astype(np.int64)
        ),
        "month": month[fast_idx],
        "ms": ms[fast_idx],
    }
    return fast, h0_fast, sp, fields


def _parse_ascii_batch(
    text: str,
    buf: "np.ndarray",
    starts: "np.ndarray",
    ends: "np.ndarray",
    walk: _Walk,
    line_base: int,
    offset_base: int,
) -> None:
    """Parse one batch of lines of a printable-ASCII chunk.

    ``starts``/``ends`` index into ``buf`` (== character offsets in
    ``text``); ``line_base``/``offset_base`` place the batch's first line
    globally for ledger records.
    """
    fast, h0, sp, fields = _classify_ascii(buf, starts, ends)
    lengths = ends - starts
    slow_idx = np.flatnonzero(~fast & (lengths > 0))
    fast_idx = np.flatnonzero(fast)

    # Walk fast groups and slow lines in line order.  Slow lines can parse
    # (Feb 29, control bytes in the body) and thereby advance the
    # year-resolution context, so each one is a barrier between groups.
    group_start = 0  # position within fast_idx
    fast_list = fast_idx.tolist()
    h0_list = h0.tolist()
    sp_list = sp.tolist()
    end_list = ends[fast_idx].tolist()
    end_all = ends.tolist()
    start_list = starts.tolist()

    def run_group(lo: int, hi: int) -> None:
        """Vector-resolve and emit fast lines [lo, hi) of fast_idx."""
        if hi <= lo:
            return
        times, latest = _resolve_years(
            fields["day_seconds"][lo:hi],
            fields["month"][lo:hi],
            fields["ms"][lo:hi],
            walk.latest,
        )
        walk.latest = latest
        append = walk.entries.append
        make = collected_entry
        cache = _CISCO_CACHE
        for t, a, b, e in zip(
            times.tolist(), h0_list[lo:hi], sp_list[lo:hi], end_list[lo:hi]
        ):
            append(make(cache, t, text[a:b], text[b + 1 : e]))

    for slow_line in slow_idx.tolist():
        hi = group_start
        while hi < len(fast_list) and fast_list[hi] < slow_line:
            hi += 1
        run_group(group_start, hi)
        group_start = hi
        line_text = text[start_list[slow_line] : end_all[slow_line]]
        walk.scalar_line(
            line_text,
            line_base + 1 + slow_line,
            offset_base + start_list[slow_line],
        )
    run_group(group_start, len(fast_list))


def _parse_ascii_chunk(
    text: str, walk: _Walk, line_base: int, offset_base: int
) -> None:
    """Parse a printable-or-not, but pure-ASCII, chunk of log text."""
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    newline = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], newline + 1))
    ends = np.concatenate((newline, [len(buf)]))
    for lo in range(0, len(starts), _BATCH_LINES):
        hi = min(lo + _BATCH_LINES, len(starts))
        # Rebase the batch onto its own slice of the buffer: every scan
        # inside the classifier (control bytes, spaces, the pad copy) is
        # then O(batch), not O(chunk).  Classification never reads across
        # a line's own extent, so cutting at the batch's last line-end
        # cannot change any verdict.
        byte_lo = int(starts[lo])
        byte_hi = int(ends[hi - 1])
        _parse_ascii_batch(
            text[byte_lo:byte_hi],
            buf[byte_lo:byte_hi],
            starts[lo:hi] - byte_lo,
            ends[lo:hi] - byte_lo,
            walk,
            line_base + lo,
            offset_base + byte_lo,
        )


def _parse_mixed(text: str, walk: _Walk) -> None:
    """Non-ASCII text: vectorise maximal ASCII line runs, scalar the rest.

    Byte offsets count each line's octets in its source file — the same
    accounting the scalar loop performs (:func:`line_octets`) — while
    character slicing stays correct because runs are re-joined from the
    split lines.
    """
    lines = text.split("\n")
    offsets = []
    running = 0
    for line in lines:
        offsets.append(running)
        running += line_octets(line) + 1

    i = 0
    while i < len(lines):
        if lines[i].isascii():
            j = i
            while j < len(lines) and lines[j].isascii():
                j += 1
            _parse_ascii_chunk("\n".join(lines[i:j]), walk, i, offsets[i])
            i = j
        else:
            walk.scalar_line(lines[i], 1 + i, offsets[i])
            i += 1


def parse_log_columnar(
    text: str,
    *,
    strict: bool = True,
    report: Optional[IngestReport] = None,
) -> List[CollectedEntry]:
    """Vectorised twin of ``SyslogCollector.parse_log``.

    Same signature, same results, same ledger records, same strict-mode
    exceptions — see the module docstring for how the identity is proven
    line by line.  Falls back to the scalar parser wholesale when numpy is
    unavailable.
    """
    if np is None:
        return SyslogCollector.parse_log(text, strict=strict, report=report)
    walk = _Walk(strict=strict, report=report)
    # The parse allocates one tracked object per line and they all survive
    # to the end, so the generational collector can only waste time
    # re-walking the growing heap (measured at >2x the whole parse).  Pause
    # it for the duration; collection semantics are unchanged, only timing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if text.isascii():
            _parse_ascii_chunk(text, walk, 0, 0)
        else:
            _parse_mixed(text, walk)
    finally:
        if gc_was_enabled:
            gc.enable()
    return walk.entries
